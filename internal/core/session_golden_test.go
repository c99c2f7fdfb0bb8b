package core

// Session-path accounting golden: every secure session path, pinned to
// the virtual cycle. The leakage golden pins what the provider sees; this
// one pins what each path costs — per-utterance cycles and stage split,
// world switches, total cycles, radio bytes and the provider audit — so a
// refactor of the TA stage sequence or the normal-world group loops that
// moves a single charged cycle fails here.

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sensitive"
)

// sessionPathGolden is keyed by "<mode>/<path>"; batch3 is
// RunSessionBatched(·, 3) over 7 utterances, so the last group holds a
// single item.
var sessionPathGolden = map[string]string{
	"secure-nofilter/single": `total=8038858 switches=30 switch_cycles=372000 radio=1018 audit=7/31/2/0
0: cycles=2186920 capture=226670 transcribe=1909872 classify=0 relay=24878
1: cycles=1046045 capture=105832 transcribe=889872 classify=0 relay=24841
2: cycles=817503 capture=81294 transcribe=685872 classify=0 relay=24837
3: cycles=1274588 capture=130370 transcribe=1093872 classify=0 relay=24846
4: cycles=817499 capture=81294 transcribe=685872 classify=0 relay=24833
5: cycles=817504 capture=81294 transcribe=685872 classify=0 relay=24838
6: cycles=1046049 capture=105832 transcribe=889872 classify=0 relay=24845
`,
	"secure-nofilter/batch3": `total=7939558 switches=22 switch_cycles=272700 radio=1018 audit=7/31/2/0
0: cycles=2161420 capture=226670 transcribe=1909872 classify=0 relay=24878
1: cycles=1020545 capture=105832 transcribe=889872 classify=0 relay=24841
2: cycles=792003 capture=81294 transcribe=685872 classify=0 relay=24837
3: cycles=1249088 capture=130370 transcribe=1093872 classify=0 relay=24846
4: cycles=791999 capture=81294 transcribe=685872 classify=0 relay=24833
5: cycles=792004 capture=81294 transcribe=685872 classify=0 relay=24838
6: cycles=1020549 capture=105832 transcribe=889872 classify=0 relay=24845
`,
	"secure-filter/single": `total=8023843 switches=28 switch_cycles=348000 radio=840 audit=6/22/0/0
0: cycles=2163451 capture=226670 transcribe=1909872 classify=1409 relay=0
1: cycles=1047454 capture=105832 transcribe=889872 classify=1409 relay=24841
2: cycles=818912 capture=81294 transcribe=685872 classify=1409 relay=24837
3: cycles=1275997 capture=130370 transcribe=1093872 classify=1409 relay=24846
4: cycles=818908 capture=81294 transcribe=685872 classify=1409 relay=24833
5: cycles=818913 capture=81294 transcribe=685872 classify=1409 relay=24838
6: cycles=1047458 capture=105832 transcribe=889872 classify=1409 relay=24845
`,
	"secure-filter/batch3": `total=7924543 switches=20 switch_cycles=248700 radio=840 audit=6/22/0/0
0: cycles=2137951 capture=226670 transcribe=1909872 classify=1409 relay=0
1: cycles=1021954 capture=105832 transcribe=889872 classify=1409 relay=24841
2: cycles=793412 capture=81294 transcribe=685872 classify=1409 relay=24837
3: cycles=1250497 capture=130370 transcribe=1093872 classify=1409 relay=24846
4: cycles=793408 capture=81294 transcribe=685872 classify=1409 relay=24833
5: cycles=793413 capture=81294 transcribe=685872 classify=1409 relay=24838
6: cycles=1021958 capture=105832 transcribe=889872 classify=1409 relay=24845
`,
	"hybrid-he/single": `total=328973311 switches=42 switch_cycles=539100 radio=460096 audit=6/22/0/0
0: cycles=48013375 capture=226670 transcribe=1909872 classify=1280033 relay=0
1: cycles=46897378 capture=105832 transcribe=889872 classify=1280033 relay=24841
2: cycles=46668836 capture=81294 transcribe=685872 classify=1280033 relay=24837
3: cycles=47125921 capture=130370 transcribe=1093872 classify=1280033 relay=24846
4: cycles=46668832 capture=81294 transcribe=685872 classify=1280033 relay=24833
5: cycles=46668837 capture=81294 transcribe=685872 classify=1280033 relay=24838
6: cycles=46897382 capture=105832 transcribe=889872 classify=1280033 relay=24845
`,
	"hybrid-he/batch3": `total=328762111 switches=26 switch_cycles=327900 radio=460096 audit=6/22/0/0
0: cycles=3416575 capture=226670 transcribe=1909872 classify=1280033 relay=0
1: cycles=2300578 capture=105832 transcribe=889872 classify=1280033 relay=24841
2: cycles=2072036 capture=81294 transcribe=685872 classify=1280033 relay=24837
3: cycles=2529121 capture=130370 transcribe=1093872 classify=1280033 relay=24846
4: cycles=2072032 capture=81294 transcribe=685872 classify=1280033 relay=24833
5: cycles=2072037 capture=81294 transcribe=685872 classify=1280033 relay=24838
6: cycles=2300582 capture=105832 transcribe=889872 classify=1280033 relay=24845
`,
}

func sessionAccountingDump(res *SessionResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "total=%d switches=%d switch_cycles=%d radio=%d audit=%d/%d/%d/%d\n",
		res.TotalCycles, res.MonitorStats.Switches, res.MonitorStats.SwitchCycles, res.RadioBytes,
		res.CloudAudit.Events, res.CloudAudit.TokensSeen, res.CloudAudit.SensitiveTokens, res.CloudAudit.AudioBytes)
	for i, u := range res.Utterances {
		fmt.Fprintf(&b, "%d: cycles=%d capture=%d transcribe=%d classify=%d relay=%d\n",
			i, u.Cycles, u.Stages.Capture, u.Stages.Transcribe, u.Stages.Classify, u.Stages.Relay)
	}
	return b.String()
}

func TestSessionPathAccountingGolden(t *testing.T) {
	utts, err := sensitive.Generate(sensitive.GenConfig{N: 7, SensitiveFraction: 0.5, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	paths := []struct {
		name string
		run  func(*System) (*SessionResult, error)
	}{
		{"single", func(s *System) (*SessionResult, error) { return s.RunSession(utts) }},
		{"batch3", func(s *System) (*SessionResult, error) { return s.RunSessionBatched(utts, 3) }},
	}
	for _, mode := range []Mode{ModeSecureNoFilter, ModeSecureFilter, ModeHybridHE} {
		for _, p := range paths {
			key := mode.String() + "/" + p.name
			t.Run(key, func(t *testing.T) {
				sys, err := NewSystem(Config{Mode: mode, Seed: 7})
				if err != nil {
					t.Fatal(err)
				}
				res, err := p.run(sys)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Utterances) != len(utts) {
					t.Fatalf("%d outcomes for %d utterances", len(res.Utterances), len(utts))
				}
				if got, want := sessionAccountingDump(res), sessionPathGolden[key]; got != want {
					t.Errorf("accounting drifted\ngot:\n%s\nwant:\n%s", got, want)
				}
			})
		}
	}
}
