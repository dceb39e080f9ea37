package formal

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bugs"
	"repro/internal/compile"
	"repro/internal/corpus"
	"repro/internal/sim"
	"repro/internal/sva"
)

// TestLaneFailuresOwnTheirTraces: failing outcomes of one lane batch are
// replayed on the Checker's reused scalar engine, yet each keeps its own
// trace and result. After the whole batch has run, every failing outcome
// still equals a fresh scalar replay of its stimulus.
func TestLaneFailuresOwnTheirTraces(t *testing.T) {
	ctx := context.Background()
	// pulse = sig fails p_no_repeat whenever sig is held high.
	edge := mustCompile(t, strings.Replace(corpus.EdgeDetect().Source(),
		"assign pulse = sig && !sig_d;", "assign pulse = sig;", 1))
	var batch []sim.VecStimulus
	for _, sig := range [][]uint64{
		{0, 1, 1, 0, 0, 0}, {0, 0, 0, 0, 0, 0}, {0, 0, 1, 1, 1, 0},
		{0, 1, 0, 1, 0, 1}, {1, 1, 1, 1, 0, 0}, {0, 0, 0, 0, 1, 1},
	} {
		st := sim.VecStimulus{Inputs: edge.Inputs(true)}
		for _, v := range sig {
			st.Rows = append(st.Rows, []uint64{v})
		}
		batch = append(batch, st)
	}
	for _, mode := range []sim.Mode{sim.TwoState, sim.FourState} {
		type kept struct {
			i int
			o Outcome
		}
		var failed []kept
		i := 0
		if err := NewChecker(edge, mode).CheckStimuli(ctx, batch, func(o Outcome) bool {
			if o.Failed {
				failed = append(failed, kept{i, o})
			}
			if mode == sim.TwoState && !o.Laned {
				t.Fatalf("stimulus %d was not answered from the lane batch", i)
			}
			i++
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if len(failed) < 3 {
			t.Fatalf("mode %d: %d failing lanes, want at least 3", mode, len(failed))
		}
		for _, k := range failed {
			want, err := sim.RunVecCtx(ctx, edge, batch[k.i], mode)
			if err != nil {
				t.Fatal(err)
			}
			wantRes, err := sva.Check(want)
			if err != nil {
				t.Fatal(err)
			}
			if got := k.o.Trace.Format(nil); got != want.Format(nil) {
				t.Fatalf("mode %d stimulus %d: kept trace\n%s\nwant\n%s", mode, k.i, got, want.Format(nil))
			}
			if !reflect.DeepEqual(k.o.Check, wantRes) {
				t.Fatalf("mode %d stimulus %d: kept result %+v, want %+v", mode, k.i, k.o.Check, wantRes)
			}
			if got, w := sva.FormatLog("m", k.o.Trace, k.o.Check.Failures), sva.FormatLog("m", want, wantRes.Failures); got != w {
				t.Fatalf("mode %d stimulus %d: log\n%s\nwant\n%s", mode, k.i, got, w)
			}
		}
	}
}

// TestDifferMatchesMaterialisedWalk: streaming Differ's stimuli through two
// reused runners gives the verdict and log of the materialised walk —
// every stimulus in its own rows, built up front, each simulated fresh —
// on sampled mutants of every catalog design.
func TestDifferMatchesMaterialisedWalk(t *testing.T) {
	ctx := context.Background()
	opts := Options{Seed: 5, Depth: 12, RandomRuns: 8}
	compared := 0
	for _, bp := range corpus.Catalog() {
		golden, diags, err := compile.Compile(bp.Source())
		if err != nil || compile.HasErrors(diags) {
			continue
		}
		for _, mu := range bugs.Enumerate(bp.Module, 4) {
			mutant, diags, err := compile.Compile(bp.SourceWith(mu.Mutant))
			if err != nil || compile.HasErrors(diags) {
				continue
			}
			diff, log, err := Differ(ctx, golden, mutant, opts)
			wdiff, wlog, werr := differMaterialised(ctx, golden, mutant, opts)
			if diff != wdiff || log != wlog || (err == nil) != (werr == nil) {
				t.Fatalf("%s/%s: Differ = %v %q %v, materialised walk = %v %q %v",
					bp.Name(), mu.Label(), diff, log, err, wdiff, wlog, werr)
			}
			compared++
		}
	}
	if compared < 100 {
		t.Fatalf("compared %d mutants, want at least 100", compared)
	}
}

// differMaterialised is Differ written as a list walk: every stimulus is
// generated into its own rows up front, and each run is a fresh
// sim.RunVecCtx.
func differMaterialised(ctx context.Context, golden, mutant *compile.Design, opts Options) (bool, string, error) {
	opts = opts.withDefaults()
	ds := newDriveSet(golden)
	var stims []sim.VecStimulus
	next := func() [][]uint64 { return ds.rows(len(stims), opts.Depth) }
	for _, pat := range ds.directed(opts.Depth) {
		stims = append(stims, ds.fill(next(), pat))
	}
	if tb := totalWidth(ds.inputs); tb > 0 && tb <= opts.MaxConstBits {
		for code := uint64(0); code < 1<<uint(tb); code++ {
			stims = append(stims, ds.constantStimulus(next(), code))
		}
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	for i := 0; i < opts.RandomRuns; i++ {
		stims = append(stims, ds.randomStimulus(next(), rng))
	}
	for _, st := range stims {
		trG, err := sim.RunVecCtx(ctx, golden, st, sim.TwoState)
		if err != nil {
			return false, "", err
		}
		trM, err := sim.RunVecCtx(ctx, mutant, st, sim.TwoState)
		if err != nil {
			return true, "mutant simulation error: " + err.Error(), nil
		}
		for c := 0; c < trG.Len() && c < trM.Len(); c++ {
			for _, out := range golden.Outputs() {
				g, _ := trG.Value(c, out.Name)
				m, _ := trM.Value(c, out.Name)
				if g != m {
					return true, fmt.Sprintf("output %s differs at cycle %d: golden=%d mutant=%d", out.Name, c, g, m), nil
				}
			}
		}
	}
	return false, "", nil
}
