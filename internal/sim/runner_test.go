package sim_test

import (
	"context"
	"os"
	"reflect"
	"testing"

	"repro/internal/compile"
	"repro/internal/corpus"
	"repro/internal/sim"
	"repro/internal/sva"
)

// dynamicSlice uses a slice with run-time bounds, which the planner cannot
// lower: its runs take the reference-interpreter fallback.
const dynamicSlice = `
module dyn_slice (
    input clk,
    input rst_n,
    input [1:0] s,
    input [7:0] a,
    output [1:0] y
);
    reg [1:0] q;
    assign y = a[s+1:s];
    always @(posedge clk or negedge rst_n) begin
        if (!rst_n) q <= 0;
        else q <= y;
    end
    p_hold: assert property (@(posedge clk) disable iff (!rst_n) q != 2'b11 |=> $past(y) == q);
endmodule
`

func compileFixture(t *testing.T, src string) *compile.Design {
	t.Helper()
	d, diags, err := compile.Compile(src)
	if err != nil || compile.HasErrors(diags) {
		t.Fatalf("fixture does not compile: %v %v", err, diags)
	}
	return d
}

// reuseDesigns is every catalog golden plus the multi-clock lane fixture
// and an unplannable design.
func reuseDesigns(t *testing.T) map[string]*compile.Design {
	out := map[string]*compile.Design{}
	for _, b := range corpus.Catalog() {
		d, diags, err := compile.Compile(b.Source())
		if err != nil || compile.HasErrors(diags) {
			continue
		}
		out[b.Name()] = d
	}
	mc, err := os.ReadFile("../fuzz/testdata/regressions/lane_sva_multiclock.v")
	if err != nil {
		t.Fatal(err)
	}
	out["lane_sva_multiclock"] = compileFixture(t, string(mc))
	dyn := compileFixture(t, dynamicSlice)
	if sim.PlanOf(dyn) != nil {
		t.Fatal("dynamic-slice fixture is plannable; it no longer covers the reference fallback")
	}
	out["dyn_slice"] = dyn
	return out
}

// TestRunnerReuseMatchesFresh is the Runner's reuse contract: one Runner
// driven over stimuli of varying depth, with a failing run in between,
// returns traces byte-identical to a fresh RunVecCtx per stimulus, and an
// sva.Checker reused over its rewritten trace gives the verdicts and logs
// of a fresh sva.Check.
func TestRunnerReuseMatchesFresh(t *testing.T) {
	ctx := context.Background()
	for name, d := range reuseDesigns(t) {
		var stims []sim.VecStimulus
		for i, depth := range []int{12, 5, 12, 1, 16, 9} {
			vecs, _ := laneDiffStims(d, int64(i+1), 2, depth)
			stims = append(stims, vecs...)
		}
		// A stimulus driving an output is an error on every engine; the
		// runs after it must not notice.
		if outs := d.Outputs(); len(outs) > 0 {
			bad := sim.VecStimulus{Inputs: outs[:1], Rows: [][]uint64{{1}}}
			stims = append(stims[:3], append([]sim.VecStimulus{bad}, stims[3:]...)...)
		}
		for _, mode := range []sim.Mode{sim.TwoState, sim.FourState} {
			r := sim.NewRunner(d, mode)
			var sc sva.Checker
			for i, st := range stims {
				want, wantErr := sim.RunVecCtx(ctx, d, st, mode)
				got, gotErr := r.Run(ctx, st)
				if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
					t.Fatalf("%s mode %d stim %d: runner err %v, fresh err %v", name, mode, i, gotErr, wantErr)
				}
				if wantErr != nil {
					continue
				}
				if got.Len() != want.Len() || got.Mode() != want.Mode() || got.Format(nil) != want.Format(nil) {
					t.Fatalf("%s mode %d stim %d: reused trace differs from fresh:\n%s\nwant:\n%s", name, mode, i, got.Format(nil), want.Format(nil))
				}
				for c := 0; c < want.Len(); c++ {
					if got.Fired(c) != want.Fired(c) {
						t.Fatalf("%s mode %d stim %d: cycle %d fired %#x, fresh %#x", name, mode, i, c, got.Fired(c), want.Fired(c))
					}
				}
				wantRes, wantErr := sva.Check(want)
				gotRes, gotErr := sc.Check(got)
				if (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("%s mode %d stim %d: reused checker err %v, fresh err %v", name, mode, i, gotErr, wantErr)
				}
				if wantErr != nil {
					continue
				}
				if len(gotRes.Failures) != len(wantRes.Failures) ||
					(len(wantRes.Failures) > 0 && !reflect.DeepEqual(gotRes.Failures, wantRes.Failures)) ||
					!reflect.DeepEqual(gotRes.Attempts, wantRes.Attempts) {
					t.Fatalf("%s mode %d stim %d: reused checker %+v, fresh %+v", name, mode, i, gotRes, wantRes)
				}
				module := d.Module.Name
				if g, w := sva.FormatLog(module, got, gotRes.Failures), sva.FormatLog(module, want, wantRes.Failures); g != w {
					t.Fatalf("%s mode %d stim %d: log\n%s\nwant\n%s", name, mode, i, g, w)
				}
			}
		}
	}
}

// TestRunnerAllocFree pins the point of the Runner: once its rows have
// grown to the stimulus depth, a compiled run allocates nothing.
func TestRunnerAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	ctx := context.Background()
	for _, name := range []string{"counter_w4_m9", "fifo_flags_d4", "handshake_l3"} {
		d := compileFixture(t, corpus.ByName(name).Source())
		vecs, _ := laneDiffStims(d, 7, 1, 16)
		for _, mode := range []sim.Mode{sim.TwoState, sim.FourState} {
			r := sim.NewRunner(d, mode)
			if allocs := testing.AllocsPerRun(20, func() {
				if _, err := r.Run(ctx, vecs[0]); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Errorf("%s mode %d: %.1f allocations per reused run, want 0", name, mode, allocs)
			}
		}
	}
}
