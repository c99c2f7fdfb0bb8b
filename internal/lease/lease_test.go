package lease

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestFreeListLIFOAndNew(t *testing.T) {
	var empty FreeList[*int]
	if v := empty.Get(); v != nil {
		t.Fatalf("empty list without New gave %v, want nil", v)
	}
	made := 0
	l := FreeList[*int]{New: func() *int { made++; return new(int) }}
	a, b := l.Get(), l.Get()
	if made != 2 || a == b {
		t.Fatalf("New made %d values for two Gets on an empty list", made)
	}
	l.Put(a)
	l.Put(b)
	if got := l.Get(); got != b {
		t.Fatal("Get did not return the value Put last")
	}
	if got := l.Get(); got != a {
		t.Fatal("second Get did not return the value Put first")
	}
	l.Get()
	if made != 3 {
		t.Fatalf("New made %d values, want 3 once the list ran dry", made)
	}
}

func TestFreeListBound(t *testing.T) {
	var l FreeList[*int]
	vals := make([]*int, Bound+1)
	for i := range vals {
		vals[i] = new(int)
		l.Put(vals[i])
	}
	if len(l.free) != Bound {
		t.Fatalf("list holds %d values after %d Puts, want %d", len(l.free), Bound+1, Bound)
	}
	if got := l.Get(); got != vals[Bound-1] {
		t.Fatal("the Put past the bound was kept")
	}
}

// TestFreeListIdentityAcrossCollections: the value Put before two
// collections, which would empty a sync.Pool, is the one Get returns.
func TestFreeListIdentityAcrossCollections(t *testing.T) {
	var l FreeList[[]byte]
	buf := make([]byte, 4096)
	l.Put(buf)
	runtime.GC()
	runtime.GC()
	if got := l.Get(); &got[0] != &buf[0] {
		t.Fatal("two collections emptied the list")
	}
}

// TestFreeListConcurrentLeases: under -race, eight goroutines lease and
// return values, and no value is ever held by two of them at once.
func TestFreeListConcurrentLeases(t *testing.T) {
	type item struct{ holders atomic.Int32 }
	l := FreeList[*item]{New: func() *item { return new(item) }}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 1000 {
				v := l.Get()
				if v.holders.Add(1) != 1 {
					t.Error("a value was leased to two goroutines at once")
				}
				runtime.Gosched()
				v.holders.Add(-1)
				l.Put(v)
			}
		}()
	}
	wg.Wait()
	if len(l.free) > 8 {
		t.Fatalf("list holds %d values, more than the 8 leased at once", len(l.free))
	}
}
