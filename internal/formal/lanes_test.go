package formal

import (
	"context"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bugs"
	"repro/internal/compile"
	"repro/internal/corpus"
	"repro/internal/sim"
	"repro/internal/sva"
	"repro/internal/verilog"
)

// resultFingerprint flattens everything observable about a Result except
// the trace pointer (traces are compared through the failure they carry).
type resultFingerprint struct {
	Pass     bool
	Strategy string
	Runs     int
	Log      string
	Vacuous  []string
	Failure  *sva.Failure
	TraceLen int
}

func fingerprint(r *Result) resultFingerprint {
	fp := resultFingerprint{Pass: r.Pass, Strategy: r.Strategy, Runs: r.Runs,
		Log: r.Log, Vacuous: r.VacuousAsserts, Failure: r.Failure}
	if r.Trace != nil {
		fp.TraceLen = r.Trace.Len()
	}
	return fp
}

// TestLanesByteIdenticalAcrossCorpus is the formal driver's contract: a
// lane-batched check produces exactly the same Result as a scalar one —
// same pass/fail, same counterexample, same log text, same run count, same
// strategy label, same vacuity report — for every corpus golden and a
// sample of its mutants, in both value domains.
func TestLanesByteIdenticalAcrossCorpus(t *testing.T) {
	check := func(name, src string, fourState bool) {
		d, diags, err := compile.Compile(src)
		if err != nil || compile.HasErrors(diags) || d == nil {
			return
		}
		dl, _, _ := compile.Compile(src)
		opts := Options{Depth: 10, RandomRuns: 6, Seed: 11, FourState: fourState}
		scalar, errS := Check(context.Background(), d, opts)
		opts.Lanes = 64
		lane, errL := Check(context.Background(), dl, opts)
		if (errS == nil) != (errL == nil) {
			t.Fatalf("%s (fourState=%v): scalar err=%v lane err=%v", name, fourState, errS, errL)
		}
		if errS != nil {
			return
		}
		fs, fl := fingerprint(scalar), fingerprint(lane)
		if !reflect.DeepEqual(fs, fl) {
			t.Fatalf("%s (fourState=%v): results diverge:\nscalar: %+v\nlane:   %+v", name, fourState, fs, fl)
		}
	}
	for _, bp := range corpus.Catalog() {
		check(bp.Name(), bp.Source(), false)
		check(bp.Name(), bp.Source(), true)
		for _, mu := range bugs.Enumerate(bp.Module, 3) {
			src := verilog.Print(mu.Mutant)
			check(bp.Name()+"/"+mu.Label(), src, false)
			check(bp.Name()+"/"+mu.Label(), src, true)
		}
	}
}

// TestLanesZeroSentinel: the zero value of Lanes must mean scalar mode —
// not a panic, not a zero-wide batch — and negatives and 1 normalise the
// same way, mirroring the NoRandom sentinel. Values beyond the word width
// clamp to 64.
func TestLanesZeroSentinel(t *testing.T) {
	for _, lanes := range []int{0, 1, -3} {
		if got := (Options{Lanes: lanes}).Normalized().Lanes; got != 0 {
			t.Fatalf("Lanes %d normalised to %d, want 0 (scalar)", lanes, got)
		}
	}
	if got := (Options{Lanes: 1000}).Normalized().Lanes; got != 64 {
		t.Fatalf("Lanes 1000 normalised to %d, want 64", got)
	}

	b := corpus.EdgeDetect()
	for _, lanes := range []int{0, 1, -3} {
		d, diags, err := compile.Compile(b.Source())
		if err != nil || compile.HasErrors(diags) {
			t.Fatal("fixture broken")
		}
		res, err := Check(context.Background(), d, Options{Depth: 8, RandomRuns: 4, Lanes: lanes})
		if err != nil {
			t.Fatalf("Lanes %d: %v", lanes, err)
		}
		if !res.Pass {
			t.Fatalf("Lanes %d: golden design failed: %s", lanes, res.Log)
		}
	}
}

// TestCheckStimuliPolicy pins the batch checker's two walks: a lane batch
// reports every stimulus as laned and carries scalar detail exactly on the
// failing ones, and a batch the lane checker declines (multi-clock) runs
// scalar and stops as soon as visit says so.
func TestCheckStimuliPolicy(t *testing.T) {
	compileSrc := func(src string) *compile.Design {
		d, diags, err := compile.Compile(src)
		if err != nil || compile.HasErrors(diags) {
			t.Fatalf("fixture does not compile: %v %v", err, diags)
		}
		return d
	}
	stims := func(d *compile.Design, rows ...[]uint64) []sim.VecStimulus {
		var out []sim.VecStimulus
		for _, sig := range rows {
			st := sim.VecStimulus{Inputs: d.Inputs(true)}
			for _, v := range sig {
				st.Rows = append(st.Rows, []uint64{v})
			}
			out = append(out, st)
		}
		return out
	}

	// pulse = sig fails p_no_repeat whenever sig is held high.
	edge := compileSrc(strings.Replace(corpus.EdgeDetect().Source(),
		"assign pulse = sig && !sig_d;", "assign pulse = sig;", 1))
	batch := stims(edge, []uint64{0, 0, 0, 0}, []uint64{0, 1, 1, 0}, []uint64{0, 1, 0, 1})
	var got []Outcome
	if err := NewChecker(edge, sim.TwoState).CheckStimuli(context.Background(), batch, func(o Outcome) bool {
		got = append(got, o)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(batch) {
		t.Fatalf("visited %d of %d stimuli", len(got), len(batch))
	}
	for i, o := range got {
		if o.Err != nil || !o.Laned || o.Failed != (i == 1) || (o.Check != nil) != o.Failed {
			t.Fatalf("stimulus %d: %+v, want laned, failed=%v, scalar detail only when failed", i, o, i == 1)
		}
	}

	src, err := os.ReadFile("../fuzz/testdata/regressions/lane_sva_multiclock.v")
	if err != nil {
		t.Fatal(err)
	}
	mc := compileSrc(string(src))
	mcStim := sim.VecStimulus{Inputs: mc.Inputs(true), Rows: [][]uint64{{0, 1}, {1, 0}, {0, 0}}} // clk2, d
	visits := 0
	if err := NewChecker(mc, sim.TwoState).CheckStimuli(context.Background(), []sim.VecStimulus{mcStim, mcStim}, func(o Outcome) bool {
		visits++
		if o.Err != nil || o.Laned || o.Check == nil {
			t.Fatalf("multi-clock stimulus: %+v, want a scalar outcome", o)
		}
		return false
	}); err != nil {
		t.Fatal(err)
	}
	if visits != 1 {
		t.Fatalf("visit returned false but was called %d times", visits)
	}
}
