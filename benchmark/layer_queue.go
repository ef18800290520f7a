package main

import (
	"fmt"

	"briskstream/internal/queue"
)

// microQueue times the queue layer's three structures, each from one
// goroutine so the number is the cost of the operations, not of a
// scheduler hand-off.
func microQueue(rep *report) error {
	const ops = 1 << 20
	var err error

	ring := queue.NewRing[int](64)
	rep.set("queue.ring_putget_ns", fastest(ops, func() {
		for i := 0; i < ops && err == nil; i++ {
			if err = ring.Put(i); err == nil {
				_, err = ring.Get()
			}
		}
	}))

	inbox := queue.NewInbox[int](64)
	rings := [4]*queue.Ring[int]{inbox.Bind(), inbox.Bind(), inbox.Bind(), inbox.Bind()}
	rep.set("queue.inbox_fanin4_ns", fastest(ops, func() {
		for i := 0; i < ops && err == nil; i++ {
			if err = rings[i&3].Put(i); err == nil {
				_, err = inbox.Get()
			}
		}
	}))
	if err != nil {
		return fmt.Errorf("queue microbenchmark: %w", err)
	}

	free := queue.NewFreeRing[int](64)
	lost := 0
	rep.set("queue.freering_ns", fastest(ops, func() {
		for i := 0; i < ops; i++ {
			if !free.TryPut(i) {
				lost++
			}
			if _, ok := free.TryGet(); !ok {
				lost++
			}
		}
	}))
	if lost > 0 {
		return fmt.Errorf("queue microbenchmark: free ring refused %d operations", lost)
	}
	return nil
}
