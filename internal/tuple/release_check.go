//go:build briskcheck

package tuple

// poisonReleased is on under the briskcheck build tag: the last
// Release overwrites the batch's slots and arena, so a reader that
// still reads a batch after its hold was dropped reads garbage (or
// panics on a string range) instead of rows that happen to be intact.
const poisonReleased = true

// poisonSlot fills every slot of a released batch: as an int it is an
// unlikely value, as a string range it lies far outside any arena.
const poisonSlot = 0x5a5a5a5a5a5a5a5a

// poison overwrites the slot lanes and arena bytes with sentinels.
func (b *Batch) poison() {
	for i := range b.slots {
		b.slots[i] = poisonSlot
	}
	for i := range b.arena {
		b.arena[i] = 0x5a
	}
}
