//go:build !briskcheck

package engine

// wakeCheck is off without the briskcheck build tag (see
// wakecheck_check.go).
const wakeCheck = false
