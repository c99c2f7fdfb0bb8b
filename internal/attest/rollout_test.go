package attest

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

func TestPackEncodeDecodeDigest(t *testing.T) {
	p := Pack{Version: 2, ModelSeed: 999, Text: []byte("text-weights"), Image: []byte("image-weights")}
	got, err := DecodePack(p.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != p.Version || got.ModelSeed != p.ModelSeed ||
		string(got.Text) != string(p.Text) || string(got.Image) != string(p.Image) {
		t.Fatalf("round trip: got %+v, want %+v", got, p)
	}
	if got.Digest() != p.Digest() {
		t.Fatal("digest changed across round trip")
	}
	tampered := p
	tampered.Text = []byte("text-weightX")
	if tampered.Digest() == p.Digest() {
		t.Fatal("tampered payload kept its digest")
	}
	if _, err := DecodePack(p.Encode()[:5]); !errors.Is(err, ErrBadPack) {
		t.Fatalf("truncated: got %v, want ErrBadPack", err)
	}
}

func TestManifestAuthorizesExactPayload(t *testing.T) {
	key := KeyFromSeed(55)
	keys := map[string]DeviceKey{"d0": key}
	v := NewVerifier(1, func(id string) (DeviceKey, bool) { k, ok := keys[id]; return k, ok })
	a := NewAttestor("d0", key)
	p := Pack{Version: 2, ModelSeed: 7, Text: []byte("weights")}

	tok, err := v.Manifest("d0", p)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.VerifyManifest(tok, p); err != nil {
		t.Fatalf("legit manifest: %v", err)
	}
	// Token survives serialization.
	tok2, err := UnmarshalManifestToken(tok.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if err := a.VerifyManifest(tok2, p); err != nil {
		t.Fatalf("marshalled manifest: %v", err)
	}
	// Tampered payload under a valid token is rejected.
	bad := p
	bad.Text = []byte("weightX")
	if err := a.VerifyManifest(tok, bad); !errors.Is(err, ErrBadPack) {
		t.Fatalf("tampered pack: got %v, want ErrBadPack", err)
	}
	// A token MACed with the wrong key is rejected.
	forged := tok
	forged.MAC[0] ^= 0xff
	if err := a.VerifyManifest(forged, p); !errors.Is(err, ErrBadManifest) {
		t.Fatalf("forged token: got %v, want ErrBadManifest", err)
	}
	// A token minted for another device is rejected.
	other := tok
	other.DeviceID = "d1"
	if err := a.VerifyManifest(other, p); !errors.Is(err, ErrBadManifest) {
		t.Fatalf("wrong device: got %v, want ErrBadManifest", err)
	}
}

func TestRolloutStaging(t *testing.T) {
	base := Pack{Version: 1, ModelSeed: 10}
	next := Pack{Version: 2, ModelSeed: 20}
	r := NewRollout(base)
	if got := r.Target("a"); got.Version != 1 {
		t.Fatalf("pre-publish target v%d, want v1", got.Version)
	}
	if err := r.Publish(next, 2); err != nil {
		t.Fatal(err)
	}
	if err := r.Publish(Pack{Version: 2}, 1); !errors.Is(err, ErrBadPack) {
		t.Fatalf("republish same version: got %v, want ErrBadPack", err)
	}

	// First two askers take the canary slots; the third holds at base.
	if got := r.Target("a"); got.Version != 2 {
		t.Fatalf("canary a got v%d", got.Version)
	}
	if got := r.Target("b"); got.Version != 2 {
		t.Fatalf("canary b got v%d", got.Version)
	}
	if got := r.Target("c"); got.Version != 1 {
		t.Fatalf("non-canary c got v%d, want v1", got.Version)
	}
	// Canary slots are sticky.
	if got := r.Target("a"); got.Version != 2 {
		t.Fatalf("repeat canary a got v%d", got.Version)
	}

	r.ReportSuccess("c") // non-canary success is a no-op
	if r.Full() {
		t.Fatal("rollout opened on a non-canary report")
	}
	r.ReportSuccess("a")
	if r.Full() {
		t.Fatal("rollout opened after 1/2 canary reports")
	}
	r.ReportSuccess("b")
	if !r.Full() {
		t.Fatal("rollout did not open after all canary reports")
	}
	// A device joining mid-rollout (after the canary verdict) gets the
	// newest version immediately.
	if got := r.Target("late-joiner"); got.Version != 2 {
		t.Fatalf("late joiner got v%d, want v2", got.Version)
	}
	var settled []bool
	r.OnSettled(func(full bool) { settled = append(settled, full) })
	if len(settled) != 1 || !settled[0] {
		t.Fatalf("OnSettled on a full rollout fired %v, want [true] at once", settled)
	}
}

// TestRolloutAwaitAndAbort: an OnSettled waiter parks until the canary
// verdict and fires exactly once — with true when the last canary
// reports, with false when the rollout is aborted first — and a later
// settle event never fires it again.
func TestRolloutAwaitAndAbort(t *testing.T) {
	r := NewRollout(Pack{Version: 1})
	if err := r.Publish(Pack{Version: 2}, 1); err != nil {
		t.Fatal(err)
	}
	_ = r.Target("canary")
	_ = r.Target("waiter")

	var mu sync.Mutex
	var got []string
	note := func(name string) func(bool) {
		return func(full bool) {
			mu.Lock()
			got = append(got, fmt.Sprintf("%s:%v", name, full))
			mu.Unlock()
		}
	}
	r.OnSettled(note("w1"))
	r.OnSettled(note("w2"))
	if len(got) != 0 {
		t.Fatalf("waiters fired before the verdict: %v", got)
	}
	r.ReportSuccess("waiter") // not a canary: no verdict
	if len(got) != 0 {
		t.Fatalf("waiters fired on a non-canary report: %v", got)
	}
	r.ReportSuccess("canary")
	if want := []string{"w1:true", "w2:true"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("open fired %v, want %v", got, want)
	}
	r.Abort("late")
	r.ReportSuccess("canary")
	if len(got) != 2 {
		t.Fatalf("a settled waiter fired again: %v", got)
	}

	// Abort settles waiters without opening the rollout, and a waiter
	// registered afterwards hears the verdict at once.
	got = nil
	r2 := NewRollout(Pack{Version: 1})
	if err := r2.Publish(Pack{Version: 2}, 1); err != nil {
		t.Fatal(err)
	}
	r2.OnSettled(note("w1"))
	r2.Abort("canary failed")
	r2.OnSettled(note("late"))
	if want := []string{"w1:false", "late:false"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("abort fired %v, want %v", got, want)
	}
	if aborted, reason := r2.Aborted(); !aborted || reason != "canary failed" {
		t.Fatalf("abort record = %v %q, want true %q", aborted, reason, "canary failed")
	}
	// The first reason wins.
	r2.Abort("second opinion")
	if _, reason := r2.Aborted(); reason != "canary failed" {
		t.Fatalf("abort reason overwritten: %q", reason)
	}

	// A waiter may call back into the rollout: it runs off the lock.
	r3 := NewRollout(Pack{Version: 1})
	if err := r3.Publish(Pack{Version: 2}, 1); err != nil {
		t.Fatal(err)
	}
	_ = r3.Target("canary")
	var target uint64
	r3.OnSettled(func(bool) { target = r3.Target("waiter").Version })
	r3.ReportSuccess("canary")
	if target != 2 {
		t.Fatalf("re-entrant waiter saw target v%d, want v2", target)
	}
}
