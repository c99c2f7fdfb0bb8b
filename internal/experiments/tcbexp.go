package experiments

import (
	"fmt"

	"repro/internal/driver"
	"repro/internal/ftrace"
	"repro/internal/i2s"
	"repro/internal/metrics"
	"repro/internal/tcb"
	"repro/internal/tz"
)

// E6Result holds the TCB-minimization outcome (Table-4).
type E6Result struct {
	Full          tcb.Image
	ExactErr      error // trace-only image fails to link when non-nil
	Exact         tcb.Image
	StaticClosure tcb.Image
	ExactRed      tcb.Reduction
	ClosureRed    tcb.Reduction
	TracedFuncs   int
	Directives    int
}

// E6TCB reproduces the paper's §IV.2 workflow: trace one "record a sound"
// task, derive the minimal driver function set, and build reduced OP-TEE
// images under both build policies. The comparison of Exact vs
// StaticClosure is the TCB ablation: pure trace-based
// minimization risks missing un-executed (error) paths; the closure build
// is the safe superset.
func E6TCB() (*metrics.Table, *metrics.Table, E6Result, error) {
	var res E6Result
	traced, err := TraceCapture()
	if err != nil {
		return nil, nil, res, err
	}
	res.TracedFuncs = len(traced)

	table, err := driver.BuildTable()
	if err != nil {
		return nil, nil, res, err
	}
	res.Full = table.FullImage()
	// The Exact build includes only what the trace saw. A clean capture
	// never executes the xrun error path, so this build fails the static
	// link check — the hazard of pure trace-based minimization.
	res.Exact, res.ExactErr = table.BuildImage("capture-exact", traced, tcb.Exact)
	res.StaticClosure, err = table.BuildImage("capture-closure", traced, tcb.StaticClosure)
	if err != nil {
		return nil, nil, res, fmt.Errorf("e6 closure image: %w", err)
	}
	if res.ExactErr == nil {
		res.ExactRed = tcb.Compare(res.Full, res.Exact)
	}
	res.ClosureRed = tcb.Compare(res.Full, res.StaticClosure)
	res.Directives = len(table.ExcludeDirectives(res.StaticClosure))

	tbl := metrics.NewTable("E6 (Table-4): driver TCB minimization",
		"image", "functions", "LoC", "bytes", "LoC cut")
	tbl.AddRow("full driver", res.ClosureRed.FullFuncs, res.ClosureRed.FullLoC, res.ClosureRed.FullBytes, "-")
	if res.ExactErr != nil {
		tbl.AddRow("traced exact", res.TracedFuncs, "-", "-", "FAILS TO LINK (untraced error path)")
	} else {
		tbl.AddRow("traced exact", res.ExactRed.MinFuncs, res.ExactRed.MinLoC, res.ExactRed.MinBytes,
			fmt.Sprintf("%.1f%%", res.ExactRed.LoCCutPct))
	}
	tbl.AddRow("static closure", res.ClosureRed.MinFuncs, res.ClosureRed.MinLoC, res.ClosureRed.MinBytes,
		fmt.Sprintf("%.1f%%", res.ClosureRed.LoCCutPct))

	byModule := metrics.NewTable("E6 per-module breakdown (full vs closure image)",
		"module", "full funcs", "full LoC", "min funcs", "min LoC")
	minBD := make(map[string]tcb.ModuleLoC)
	for _, m := range tcb.Breakdown(res.StaticClosure) {
		minBD[m.Module] = m
	}
	for _, m := range tcb.Breakdown(res.Full) {
		mm := minBD[m.Module]
		byModule.AddRow(m.Module, m.Funcs, m.LoC, mm.Funcs, mm.LoC)
	}
	return tbl, byModule, res, nil
}

// TraceCapture runs the paper's canonical traced task — record a sound:
// 32 KiB of tone captured through a normal-world driver under the kernel
// tracer — and returns the minimal function set it executed.
func TraceCapture() (map[string]bool, error) {
	rig, err := newDriverRig(tz.WorldNormal, 4096)
	if err != nil {
		return nil, err
	}
	rig.loadSignal(32 << 10)
	rig.Tracer.Start("record-a-sound")
	_, err = rig.Drv.CaptureTask(i2s.DefaultFormat(), 32<<10, func(need int) {
		_, _ = rig.Mic.PumpBytes(minInt(need, 4096))
	})
	trace := rig.Tracer.Stop()
	if err != nil {
		return nil, fmt.Errorf("e6 capture: %w", err)
	}
	return ftrace.MinimalSet(trace), nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
