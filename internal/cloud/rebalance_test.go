package cloud

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestRouterWeightedRing: a weight-3 shard owns roughly three times the
// keys of a weight-1 shard, and reweighting migrates registrations to
// the new owners.
func TestRouterWeightedRing(t *testing.T) {
	light, heavy := NewShard("light", 1, 2), NewShard("heavy", 1, 2)
	r, err := NewRouter([]*Shard{light, heavy}, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.SetWeight("heavy", 3)

	const n = 2000
	owned := map[string]int{}
	for i := 0; i < n; i++ {
		owned[r.ShardFor(fmt.Sprintf("device-%d", i)).Name()]++
	}
	// Expect ~3:1; allow generous slack for hash noise.
	if owned["heavy"] < n/2 || owned["light"] > n/2 {
		t.Fatalf("weight-3 shard owns %d/%d keys, weight-1 owns %d", owned["heavy"], n, owned["light"])
	}

	// Registrations follow a reweight: park every device, flip the
	// weights, and check each is ingestable (i.e. hosted by its owner).
	for i := 0; i < 64; i++ {
		r.Register(fmt.Sprintf("device-%d", i), &countingProvider{})
	}
	r.SetWeight("heavy", 1)
	r.SetWeight("light", 3)
	for i := 0; i < 64; i++ {
		if _, err := r.Ingest(fmt.Sprintf("device-%d", i), []byte("x")); err != nil {
			t.Fatalf("device-%d unreachable after reweight: %v", i, err)
		}
	}
}

// TestRouterDrainHandsOffOwnership: draining moves endpoints to ring
// successors, retires the shard's counters, and keeps every device
// ingestable with nothing double-counted.
func TestRouterDrainHandsOffOwnership(t *testing.T) {
	shards := []*Shard{NewShard("s0", 1, 2), NewShard("s1", 1, 2), NewShard("s2", 1, 2)}
	r, err := NewRouter(shards, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	const devices = 48
	for i := 0; i < devices; i++ {
		r.Register(fmt.Sprintf("device-%d", i), &countingProvider{})
	}
	for i := 0; i < devices; i++ {
		if _, err := r.Ingest(fmt.Sprintf("device-%d", i), []byte("pre")); err != nil {
			t.Fatal(err)
		}
	}
	preFrames := uint64(0)
	for _, st := range r.Stats() {
		preFrames += st.Frames
	}
	if preFrames != devices {
		t.Fatalf("pre-drain frames %d, want %d", preFrames, devices)
	}

	if err := r.Drain("s1"); err != nil {
		t.Fatal(err)
	}
	if err := r.Drain("nope"); err == nil {
		t.Fatal("drained an unknown shard")
	}

	for i := 0; i < devices; i++ {
		if _, err := r.Ingest(fmt.Sprintf("device-%d", i), []byte("post")); err != nil {
			t.Fatalf("device-%d lost after drain: %v", i, err)
		}
	}
	var drained *ShardStats
	total, registered := uint64(0), 0
	for _, st := range r.Stats() {
		st := st
		total += st.Frames
		registered += st.Devices
		if st.Drained {
			drained = &st
		}
	}
	if drained == nil || drained.Name != "s1" {
		t.Fatalf("retired stats missing: %+v", r.Stats())
	}
	if drained.Devices != 0 {
		t.Fatalf("drained shard still hosts %d devices", drained.Devices)
	}
	if total != 2*devices {
		t.Fatalf("frames %d across stats, want %d", total, 2*devices)
	}
	if registered != devices {
		t.Fatalf("registered %d devices across active shards, want %d", registered, devices)
	}
	if r.Audit().Events != 2*devices {
		t.Fatalf("audit events %d, want %d (endpoints double-counted or lost)", r.Audit().Events, 2*devices)
	}

	// The ring cannot be drained empty.
	if err := r.Drain("s0"); err != nil {
		t.Fatal(err)
	}
	if err := r.Drain("s2"); !errors.Is(err, ErrLastShard) {
		t.Fatalf("want ErrLastShard, got %v", err)
	}
}

// TestRebalanceUnderLoadRace is the rebalance-under-churn race test (run
// with -race): devices keep joining and ingesting while one shard drains
// and a fresh weighted shard joins the ring mid-stream. Every frame must
// be delivered exactly once — a frame that raced the ring change is
// redirected, never dropped — and the audit must balance to the frame
// count.
// TestRouterDrainKeepsCallerShards: the router owns its shard list, so
// draining a shard leaves the slice the router was built from as it was.
func TestRouterDrainKeepsCallerShards(t *testing.T) {
	shards := []*Shard{NewShard("s0", 1, 2), NewShard("s1", 1, 2), NewShard("s2", 1, 2)}
	r, err := NewRouter(shards, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Drain("s0"); err != nil {
		t.Fatal(err)
	}
	for i, s := range shards {
		if want := fmt.Sprintf("s%d", i); s.Name() != want {
			t.Fatalf("caller's shard %d is %s after Drain, want %s", i, s.Name(), want)
		}
	}
}

func TestRebalanceUnderLoadRace(t *testing.T) {
	shards := []*Shard{NewShard("s0", 2, 4), NewShard("s1", 2, 4), NewShard("s2", 2, 4)}
	r, err := NewRouter(shards, 32)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	const (
		baseDevices = 24
		joiners     = 24
		frames      = 20
	)
	providers := make([]*countingProvider, baseDevices+joiners)
	for i := 0; i < baseDevices; i++ {
		providers[i] = &countingProvider{}
		r.Register(fmt.Sprintf("device-%d", i), providers[i])
	}

	var wg sync.WaitGroup
	var sent atomic.Uint64
	ingest := func(i int) {
		defer wg.Done()
		id := fmt.Sprintf("device-%d", i)
		for f := 0; f < frames; f++ {
			if _, err := r.Ingest(id, []byte("frame")); err != nil {
				t.Errorf("%s frame %d: %v", id, f, err)
				return
			}
			sent.Add(1)
		}
	}
	for i := 0; i < baseDevices; i++ {
		wg.Add(1)
		go ingest(i)
	}
	// Joiners register while the base population is mid-stream.
	for i := baseDevices; i < baseDevices+joiners; i++ {
		wg.Add(1)
		go func(i int) {
			providers[i] = &countingProvider{}
			r.Register(fmt.Sprintf("device-%d", i), providers[i])
			ingest(i)
		}(i)
	}
	// And the tier rebalances under them: a weighted shard joins, then a
	// founding shard drains.
	wg.Add(1)
	go func() {
		defer wg.Done()
		r.AddShard(NewShard("s3", 2, 4), 2)
		if err := r.Drain("s0"); err != nil {
			t.Errorf("drain: %v", err)
		}
	}()
	wg.Wait()

	want := int(sent.Load())
	if want != (baseDevices+joiners)*frames {
		t.Fatalf("sent %d frames, want %d", want, (baseDevices+joiners)*frames)
	}
	got := 0
	for i, p := range providers {
		ev := p.Audit().Events
		if ev != frames {
			t.Fatalf("device-%d delivered %d frames, want %d", i, ev, frames)
		}
		got += ev
	}
	total := uint64(0)
	sawDrained := false
	for _, st := range r.Stats() {
		total += st.Frames
		if st.Errors != 0 {
			t.Fatalf("shard %s: %d endpoint errors", st.Name, st.Errors)
		}
		sawDrained = sawDrained || st.Drained
	}
	if got != want || total != uint64(want) {
		t.Fatalf("delivered %d / shard-counted %d frames, want %d", got, total, want)
	}
	if !sawDrained {
		t.Fatal("no drained shard in stats")
	}
}
