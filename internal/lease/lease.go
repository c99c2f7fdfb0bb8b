// Package lease recycles working buffers across items, sessions and
// devices. The paper's TEE has little memory (§V), so a buffer is leased
// for one call and handed back, rather than owned by each of the
// thousands of devices a fleet builds.
//
// A FreeList keeps what it is given: unlike a sync.Pool, a collection
// never empties it, so what a warm call allocates does not depend on the
// collector's timing. A list only holds values that were leased at the
// same time, so it never grows past the peak number of concurrent
// leases, and Bound caps it.
package lease

import "sync"

// Bound caps every free list: room for every goroutine leasing at once
// on a large host, while an idle list of MFCC frame scratch stays under
// 1 MiB. A Put onto a full list drops the value for the collector.
const Bound = 64

// FreeList is a bounded LIFO list of values, safe for concurrent use.
// The zero value is an empty list whose Get returns T's zero value.
type FreeList[T any] struct {
	// New, if non-nil, makes a value when the list is empty.
	New func() T

	mu   sync.Mutex
	free []T
}

// Get takes the value Put last, or makes one when the list is empty. A
// leased value's contents are whatever its last holder left.
func (l *FreeList[T]) Get() T {
	l.mu.Lock()
	if n := len(l.free) - 1; n >= 0 {
		v := l.free[n]
		var zero T
		l.free[n] = zero
		l.free = l.free[:n]
		l.mu.Unlock()
		return v
	}
	l.mu.Unlock()
	if l.New != nil {
		return l.New()
	}
	var zero T
	return zero
}

// Put hands v back; the caller must not use it afterwards.
func (l *FreeList[T]) Put(v T) {
	l.mu.Lock()
	if len(l.free) < Bound {
		l.free = append(l.free, v)
	}
	l.mu.Unlock()
}
