//go:build !briskcheck

package tuple

// poisonReleased is off without the briskcheck build tag (see
// release_check.go): Release costs no more than its share count.
const poisonReleased = false

func (b *Batch) poison() {}
