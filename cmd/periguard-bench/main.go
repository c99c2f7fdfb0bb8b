// Command periguard-bench regenerates the evaluation's tables and figures
// (docs/ARCHITECTURE.md, "Experiments"): no arguments run the full
// suite; naming experiments (e1 e2 ... e18) runs a subset.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
	"repro/internal/tz"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "periguard-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("periguard-bench", flag.ContinueOnError)
	seed := fs.Uint64("seed", experiments.DefaultSeed, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	selected := fs.Args()
	want := func(id string) bool {
		if len(selected) == 0 {
			return true
		}
		for _, s := range selected {
			if s == id {
				return true
			}
		}
		return false
	}

	type experiment struct {
		id  string
		run func() error
	}
	suite := []experiment{
		{"e1", func() error {
			tbl, _, err := experiments.E1WorldSwitch(1000, tz.DefaultCostModel())
			if err != nil {
				return err
			}
			fmt.Println(tbl)
			return nil
		}},
		{"e2", func() error {
			fig, _, err := experiments.E2CaptureSweep()
			if err != nil {
				return err
			}
			fmt.Println(fig)
			return nil
		}},
		{"e3", func() error {
			tbl, _, err := experiments.E3Classifiers(*seed)
			if err != nil {
				return err
			}
			fmt.Println(tbl)
			return nil
		}},
		{"e3b", func() error {
			fig, _, err := experiments.E3bNoiseRobustness(*seed)
			if err != nil {
				return err
			}
			fmt.Println(fig)
			return nil
		}},
		{"e4", func() error {
			tbl, _, err := experiments.E4PipelineBreakdown(*seed)
			if err != nil {
				return err
			}
			fmt.Println(tbl)
			return nil
		}},
		{"e5", func() error {
			tbl, _, err := experiments.E5Leakage(*seed)
			if err != nil {
				return err
			}
			fmt.Println(tbl)
			return nil
		}},
		{"e6", func() error {
			tbl, byModule, _, err := experiments.E6TCB()
			if err != nil {
				return err
			}
			fmt.Println(tbl)
			fmt.Println(byModule)
			return nil
		}},
		{"e7", func() error {
			tbl, _, err := experiments.E7Energy(*seed)
			if err != nil {
				return err
			}
			fmt.Println(tbl)
			return nil
		}},
		{"e8", func() error {
			tbl, _, err := experiments.E8Snoop(*seed)
			if err != nil {
				return err
			}
			fmt.Println(tbl)
			return nil
		}},
		{"e9", func() error {
			fig, _, err := experiments.E9Scale(*seed)
			if err != nil {
				return err
			}
			fmt.Println(fig)
			return nil
		}},
		{"e10", func() error {
			tbl, _, err := experiments.E10FleetScale(*seed)
			if err != nil {
				return err
			}
			fmt.Println(tbl)
			return nil
		}},
		{"e11", func() error {
			tbl, _, err := experiments.E11AttestedRollout(*seed)
			if err != nil {
				return err
			}
			fmt.Println(tbl)
			return nil
		}},
		{"e12", func() error {
			tbl, _, err := experiments.E12ElasticFleet(*seed)
			if err != nil {
				return err
			}
			fmt.Println(tbl)
			return nil
		}},
		{"e13", func() error {
			tbl, _, err := experiments.E13AttestationLifecycle(*seed)
			if err != nil {
				return err
			}
			fmt.Println(tbl)
			return nil
		}},
		{"e14", func() error {
			tbl, _, err := experiments.E14FrameTelemetry(*seed)
			if err != nil {
				return err
			}
			fmt.Println(tbl)
			return nil
		}},
		{"e15", func() error {
			tbl, _, err := experiments.E15ChaosFleet(*seed)
			if err != nil {
				return err
			}
			fmt.Println(tbl)
			return nil
		}},
		{"e16", func() error {
			tbl, _, err := experiments.E16BatchScheduler(*seed)
			if err != nil {
				return err
			}
			fmt.Println(tbl)
			return nil
		}},
		{"e17", func() error {
			tbl, _, err := experiments.E17AsyncPipeline(*seed)
			if err != nil {
				return err
			}
			fmt.Println(tbl)
			return nil
		}},
		{"e18", func() error {
			tbl, _, err := experiments.E18HybridHE(*seed)
			if err != nil {
				return err
			}
			fmt.Println(tbl)
			return nil
		}},
	}

	fmt.Printf("PeriGuard experiment harness (seed %d)\n\n", *seed)
	for _, e := range suite {
		if !want(e.id) {
			continue
		}
		start := time.Now()
		if err := e.run(); err != nil {
			return fmt.Errorf("%s: %w", e.id, err)
		}
		fmt.Printf("[%s completed in %v]\n\n", e.id, time.Since(start).Round(time.Millisecond))
	}
	return nil
}
