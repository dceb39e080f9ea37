package formal

import (
	"context"
	"testing"

	"repro/internal/compile"
	"repro/internal/corpus"
)

func catalogDesign(t *testing.T, name string) *compile.Design {
	t.Helper()
	b := corpus.ByName(name)
	if b == nil {
		t.Fatalf("no catalog design %q", name)
	}
	return mustCompile(t, b.Source())
}

// TestCheckAllocBudget pins the scalar check's allocation discipline: the
// simulation machine, trace rows, compiled assertions and stimulus rows
// are built once per Check and rewritten in place per run, so an
// exhaustive check's allocations do not grow with its run count.
func TestCheckAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	d := catalogDesign(t, "counter_w4_m9")
	for _, fourState := range []bool{false, true} {
		opts := Options{FourState: fourState}
		var res *Result
		allocs := testing.AllocsPerRun(1, func() {
			var err error
			if res, err = Check(context.Background(), d, opts); err != nil {
				t.Fatal(err)
			}
		})
		if res.Strategy != "exhaustive-sequences" || res.Runs != 1<<16 {
			t.Fatalf("fourState=%v: %s with %d runs, want 65536 exhaustive runs", fourState, res.Strategy, res.Runs)
		}
		if allocs >= 1000 {
			t.Errorf("fourState=%v: %d runs allocated %.0f objects, want < 1000", fourState, res.Runs, allocs)
		}
	}
}

// TestCheckAllocPerRun bounds a directed+random check per run: past a
// fixed per-Check setup (drive list, directed patterns, the machine and
// row slabs), adding random runs adds no allocations.
func TestCheckAllocPerRun(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	d := catalogDesign(t, "parity_w16")
	for _, fourState := range []bool{false, true} {
		measure := func(randomRuns int) (float64, *Result) {
			opts := Options{FourState: fourState, Seed: 3, RandomRuns: randomRuns}
			var res *Result
			allocs := testing.AllocsPerRun(1, func() {
				var err error
				if res, err = Check(context.Background(), d, opts); err != nil {
					t.Fatal(err)
				}
			})
			if res.Strategy != "directed+random" || !res.Pass {
				t.Fatalf("fourState=%v: %s pass=%v, want a passing directed+random check", fourState, res.Strategy, res.Pass)
			}
			return allocs, res
		}
		few, short := measure(48)
		many, long := measure(1048)
		extra := long.Runs - short.Runs
		if per := (many - few) / float64(extra); per > 0.05 {
			t.Errorf("fourState=%v: %d extra runs added %.0f allocations (%.3f per run), want none", fourState, extra, many-few, per)
		}
		if per := few / float64(short.Runs); per >= 1 {
			t.Errorf("fourState=%v: %.0f allocations over %d runs, want < 1 per run", fourState, few, short.Runs)
		}
	}
}
