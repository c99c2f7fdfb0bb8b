package peripheral

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/audio"
	"repro/internal/i2s"
)

func newMicFixture(t *testing.T) (*Microphone, *i2s.Controller) {
	t.Helper()
	ctrl := i2s.NewController("i2s0", 65536)
	if err := ctrl.WriteReg(i2s.RegCtrl, i2s.CtrlRXEnable); err != nil {
		t.Fatalf("enable controller: %v", err)
	}
	mic, err := NewMicrophone(ctrl, i2s.DefaultFormat())
	if err != nil {
		t.Fatalf("NewMicrophone: %v", err)
	}
	return mic, ctrl
}

func TestNewMicrophoneRejectsStereo(t *testing.T) {
	ctrl := i2s.NewController("i2s0", 64)
	if _, err := NewMicrophone(ctrl, i2s.Format{SampleRate: 16000, BitsPerSample: 16, Channels: 2}); err == nil {
		t.Error("stereo microphone accepted")
	}
	if _, err := NewMicrophone(ctrl, i2s.Format{SampleRate: 100, BitsPerSample: 16, Channels: 1}); err == nil {
		t.Error("bad rate accepted")
	}
}

func TestMicrophonePumpDeliversAudio(t *testing.T) {
	mic, ctrl := newMicFixture(t)
	tone := audio.Sine(16000, 440, 0.5, 20*time.Millisecond)
	mic.Load(tone)
	wantBytes := len(tone.Samples) * 2

	var pushed int
	for {
		n, err := mic.PumpBytes(256)
		if errors.Is(err, ErrNoSignal) {
			break
		}
		if err != nil {
			t.Fatalf("PumpBytes: %v", err)
		}
		pushed += n
	}
	if pushed != wantBytes {
		t.Errorf("pushed %d bytes, want %d", pushed, wantBytes)
	}
	if mic.BytesPushed() != uint64(wantBytes) {
		t.Errorf("BytesPushed = %d", mic.BytesPushed())
	}
	wire := ctrl.PopBytes(wantBytes)
	samples, err := i2s.DecodeFrames(wire, i2s.DefaultFormat())
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	want := tone.ToInt16()
	for i := range want {
		if d := int(samples[i]) - int(want[i]); d < -1 || d > 1 {
			t.Fatalf("sample %d = %d, want %d", i, samples[i], want[i])
		}
	}
}

func TestMicrophoneLoadQueues(t *testing.T) {
	mic, _ := newMicFixture(t)
	a := audio.Sine(16000, 100, 0.3, 10*time.Millisecond)
	b := audio.Sine(16000, 200, 0.3, 10*time.Millisecond)
	mic.Load(a)
	if _, err := mic.PumpBytes(64); err != nil {
		t.Fatalf("PumpBytes: %v", err)
	}
	mic.Load(b)
	want := len(a.Samples) + len(b.Samples) - 32 // 64 bytes = 32 samples gone
	if got := mic.Remaining(); got != want {
		t.Errorf("Remaining = %d, want %d", got, want)
	}
}

// A signal at another rate than the queued remainder used to be dropped
// silently; it is now refused and the queue is left as it was.
func TestMicrophoneLoadRateMismatch(t *testing.T) {
	mic, ctrl := newMicFixture(t)
	a := audio.Sine(16000, 100, 0.3, 10*time.Millisecond)
	if err := mic.Load(a); err != nil {
		t.Fatalf("Load: %v", err)
	}
	if _, err := mic.PumpBytes(64); err != nil {
		t.Fatalf("PumpBytes: %v", err)
	}
	before := mic.Remaining()
	if err := mic.Load(audio.Sine(8000, 100, 0.3, 10*time.Millisecond)); !errors.Is(err, ErrRateMismatch) {
		t.Fatalf("Load at 8 kHz behind 16 kHz = %v, want ErrRateMismatch", err)
	}
	if got := mic.Remaining(); got != before {
		t.Fatalf("Remaining = %d after refused load, want %d", got, before)
	}
	for {
		if _, err := mic.PumpBytes(256); err != nil {
			break
		}
	}
	wire := ctrl.PopBytes(ctrl.BytesAvailable())
	want, err := i2s.EncodeFrames(quantize(a.Samples), i2s.DefaultFormat())
	if err != nil {
		t.Fatalf("EncodeFrames: %v", err)
	}
	if !bytes.Equal(wire, want) {
		t.Fatalf("bus carried %d bytes, want exactly signal A's %d", len(wire), len(want))
	}
	// A drained microphone takes any rate.
	if err := mic.Load(audio.Sine(8000, 100, 0.3, 10*time.Millisecond)); err != nil {
		t.Fatalf("Load at 8 kHz into a drained microphone: %v", err)
	}
}

func quantize(s []float64) []int32 {
	out := make([]int32, len(s))
	for i, v := range s {
		out[i] = int32(math.Max(-32768, math.Min(32767, math.Round(v*32768))))
	}
	return out
}

func TestMicrophoneEmpty(t *testing.T) {
	mic, _ := newMicFixture(t)
	if _, err := mic.PumpBytes(64); !errors.Is(err, ErrNoSignal) {
		t.Errorf("PumpBytes on empty = %v, want ErrNoSignal", err)
	}
}

func TestMicrophoneControllerOff(t *testing.T) {
	ctrl := i2s.NewController("i2s0", 64)
	mic, err := NewMicrophone(ctrl, i2s.DefaultFormat())
	if err != nil {
		t.Fatalf("NewMicrophone: %v", err)
	}
	mic.Load(audio.Sine(16000, 100, 0.3, 10*time.Millisecond))
	if _, err := mic.PumpBytes(64); !errors.Is(err, i2s.ErrControllerOff) {
		t.Errorf("PumpBytes with controller off = %v", err)
	}
}

func TestImageBasics(t *testing.T) {
	im, err := NewImage(4, 3)
	if err != nil {
		t.Fatalf("NewImage: %v", err)
	}
	im.Set(2, 1, 200)
	if im.At(2, 1) != 200 {
		t.Error("Set/At mismatch")
	}
	f := im.Floats()
	if len(f) != 12 {
		t.Fatalf("Floats len = %d", len(f))
	}
	if f[1*4+2] < 0.78 || f[1*4+2] > 0.79 {
		t.Errorf("normalized pixel = %v", f[6])
	}
	if _, err := NewImage(0, 5); !errors.Is(err, ErrBadImage) {
		t.Errorf("NewImage(0,5) = %v", err)
	}
}

func TestSynthesizeImageScenesDiffer(t *testing.T) {
	empty := SynthesizeImage(SceneEmpty, 1)
	person := SynthesizeImage(ScenePerson, 1)
	if empty.W != person.W || empty.H != person.H {
		t.Fatal("scene dimensions differ")
	}
	// A person frame must be brighter (head blob + torso).
	sum := func(im Image) int {
		total := 0
		for _, p := range im.Pix {
			total += int(p)
		}
		return total
	}
	if sum(person) <= sum(empty) {
		t.Error("person scene not brighter than empty scene")
	}
	// Determinism.
	again := SynthesizeImage(ScenePerson, 1)
	for i := range person.Pix {
		if person.Pix[i] != again.Pix[i] {
			t.Fatal("same seed produced different frames")
		}
	}
}

func TestSceneLabels(t *testing.T) {
	if SceneEmpty.Sensitive() || !ScenePerson.Sensitive() {
		t.Error("sensitivity labels wrong")
	}
	if SceneEmpty.String() != "empty" || ScenePerson.String() != "person" {
		t.Error("scene names wrong")
	}
	if Scene(9).String() != "scene(9)" {
		t.Error("unknown scene name wrong")
	}
}

func TestCameraQueueCapture(t *testing.T) {
	cam := NewCamera(7)
	cam.Queue(SceneEmpty, ScenePerson)
	if cam.Pending() != 2 {
		t.Fatalf("Pending = %d", cam.Pending())
	}
	im1, s1, ok := cam.Capture()
	if !ok || s1 != SceneEmpty || im1.W == 0 {
		t.Errorf("first capture = %v scene %v", ok, s1)
	}
	_, s2, ok := cam.Capture()
	if !ok || s2 != ScenePerson {
		t.Errorf("second capture = %v scene %v", ok, s2)
	}
	if _, _, ok := cam.Capture(); ok {
		t.Error("empty camera returned a frame")
	}
}

func TestCameraFramesVaryBetweenCaptures(t *testing.T) {
	cam := NewCamera(7)
	cam.Queue(ScenePerson, ScenePerson)
	a, _, _ := cam.Capture()
	b, _, _ := cam.Capture()
	same := true
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("consecutive person frames identical; jitter missing")
	}
}

// TestCameraCaptureIdentity: a captured frame is, pixel for pixel, the
// SynthesizeImage of its scene at the camera's seed plus the frame
// count, across interleaved scenes, although the camera draws from one
// PCG it reseeds per frame; and a capture allocates only its image.
func TestCameraCaptureIdentity(t *testing.T) {
	c := NewCamera(77)
	scenes := []Scene{ScenePerson, SceneEmpty, ScenePerson, ScenePerson, SceneEmpty, SceneEmpty, ScenePerson}
	for round := range 20 {
		c.Queue(scenes...)
		for i, s := range scenes {
			im, got, ok := c.Capture()
			n := uint64(round*len(scenes) + i + 1)
			if !ok || got != s {
				t.Fatalf("frame %d: scene %v ok %t, want %v", n, got, ok, s)
			}
			if want := SynthesizeImage(s, 77+n); !bytes.Equal(im.Pix, want.Pix) {
				t.Fatalf("frame %d (%v): captured pixels differ from SynthesizeImage", n, s)
			}
		}
	}
	for range 51 {
		c.Queue(ScenePerson)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, _, ok := c.Capture(); !ok {
			t.Fatal("no frame")
		}
	})
	if allocs > 1 {
		t.Errorf("a capture allocates %v times, want at most 1 (its image)", allocs)
	}
}
