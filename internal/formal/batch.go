package formal

import (
	"context"
	"maps"
	"slices"

	"repro/internal/compile"
	"repro/internal/sim"
	"repro/internal/sva"
)

// Outcome is one stimulus's verdict as CheckStimuli reports it.
//
// A failing Outcome owns its Trace and Check: they are copies no later run
// touches. A passing Outcome's Trace and Check belong to the Checker's
// reused scalar engine and are valid only during the visit call that
// receives them; the next scalar run overwrites both.
type Outcome struct {
	// Failed reports that at least one assertion failed. It is always the
	// scalar engine's verdict: a failing lane is replayed before it counts.
	Failed bool
	// Laned reports that the stimulus was answered from a lane batch.
	Laned bool
	// Trace and Check are the scalar engine's trace and assertion result.
	// They are set on every stimulus that ran scalar, failing lanes
	// included; a lane that passed leaves both nil.
	Trace *sim.Trace
	Check *sva.Result
	// Err is the scalar engine's error on this stimulus, cancellation
	// included; the other fields are then zero.
	Err error

	lane      int
	attempted map[string]uint64 // lane masks, read when Check is nil
}

// Attempted reports whether the stimulus logged at least one counted
// (non-vacuous) attempt of the named assertion.
func (o Outcome) Attempted(name string) bool {
	if o.Check != nil {
		return o.Check.Attempts[name] > 0
	}
	return o.attempted[name]>>uint(o.lane)&1 == 1
}

// Checker decides stimuli for one design in one value domain. It owns the
// scalar engine's reused state — a sim.Runner and an sva.Checker compiled
// once against the runner's trace — so after the first run a scalar run
// allocates nothing, and only a failing run copies its trace. A Checker is
// not safe for concurrent use.
type Checker struct {
	d    *compile.Design
	mode sim.Mode
	run  *sim.Runner // built on the first scalar run
	sva  sva.Checker
}

// NewChecker returns a Checker for d's assertions in the given domain.
func NewChecker(d *compile.Design, mode sim.Mode) *Checker {
	return &Checker{d: d, mode: mode}
}

// CheckStimuli checks the design's assertions on each stimulus in order
// and hands each outcome to visit; visit returning false stops the walk.
// It is the one lane-batch policy behind Check and cmd/serve's /stimulus
// batches:
//
//   - a batch of one, or a design sim.LanesOK rejects, runs scalar;
//   - otherwise the batch is packed (sim.PackStimuli), simulated by
//     sim.RunLanesCtx and decided by sva.CheckLanes;
//   - any lane-engine error other than cancellation reruns the batch on
//     the scalar engine, which is the reference semantics, so correctness
//     never depends on the lane compiler covering a construct;
//   - a failing lane is replayed on the scalar engine, so its Trace and
//     failures come from there, and when the replay passes (the lane
//     over-reported) the scalar verdict stands.
//
// It returns ctx.Err() when ctx is cancelled during a lane run; a scalar
// run's error, cancellation included, is that stimulus's Outcome.Err.
func (c *Checker) CheckStimuli(ctx context.Context, stims []sim.VecStimulus, visit func(Outcome) bool) error {
	if len(stims) > 1 && sim.LanesOK(c.d, c.mode) {
		lres, err := checkLanes(ctx, c.d, c.mode, stims)
		if err == nil {
			for l, st := range stims {
				o := Outcome{lane: l, attempted: lres.Attempted}
				if lres.Failed>>uint(l)&1 == 1 {
					o = c.scalar(ctx, st)
				}
				o.Laned = true
				if !visit(o) {
					break
				}
			}
			return nil
		}
		if ctx.Err() != nil {
			// A cancelled batch is not a lane-engine shortfall; scalar
			// replays would each fail the same way.
			return ctx.Err()
		}
	}
	for _, st := range stims {
		if !visit(c.scalar(ctx, st)) {
			break
		}
	}
	return nil
}

func checkLanes(ctx context.Context, d *compile.Design, mode sim.Mode, stims []sim.VecStimulus) (*sva.LaneResult, error) {
	ls, err := sim.PackStimuli(stims)
	if err != nil {
		return nil, err
	}
	lt, err := sim.RunLanesCtx(ctx, d, ls, mode)
	if err != nil {
		return nil, err
	}
	return sva.CheckLanes(lt)
}

// scalar runs one stimulus on the reused engine. A failing outcome gets
// copies of the trace and the result; a passing one borrows both.
func (c *Checker) scalar(ctx context.Context, st sim.VecStimulus) Outcome {
	if c.run == nil {
		c.run = sim.NewRunner(c.d, c.mode)
	}
	tr, err := c.run.Run(ctx, st)
	if err != nil {
		return Outcome{Err: err}
	}
	res, err := c.sva.Check(tr)
	if err != nil {
		return Outcome{Err: err}
	}
	if !res.Failed() {
		return Outcome{Trace: tr, Check: res}
	}
	kept := &sva.Result{Failures: slices.Clone(res.Failures), Attempts: maps.Clone(res.Attempts)}
	return Outcome{Failed: true, Trace: tr.Clone(), Check: kept}
}
