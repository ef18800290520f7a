//go:build briskcheck

package engine

// wakeCheck is on under the briskcheck build tag: every Run ends by
// checking that its workers left no wake token and no parked count
// behind (see checkWakes).
const wakeCheck = true
