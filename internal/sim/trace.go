package sim

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"repro/internal/compile"
	"repro/internal/verilog"
)

// Trace is the sampled history of a simulation run. Row i holds the
// preponed sample for clock cycle i: the value of every signal immediately
// before the i-th rising clock edge. This matches SVA sampling semantics,
// so the SVA checker evaluates properties directly over trace rows.
//
// Rows are dense slot vectors indexed by compile.Signal.Slot; names are
// materialised only at the API boundary (Value, Format). A Trace is not
// safe for concurrent use while compiled expressions are being evaluated.
type Trace struct {
	Design *compile.Design
	rows   [][]uint64
	// unks is the unknown-bit plane of a four-state trace, row-parallel to
	// rows; nil for two-state traces (everything known).
	unks [][]uint64
	plan *Plan // nil when produced by the reference interpreter
	em   *mach // lazy shared machine for compiled evaluation (evalMach)

	// fired[c] is the per-domain fired mask of the edge that followed row c
	// (bit k set = Design.Domains[k] ticked); nil for single-domain traces,
	// where every row is one tick of the only clock.
	fired []uint64
}

// Len returns the number of sampled cycles.
func (t *Trace) Len() int { return len(t.rows) }

// Mode returns the value domain the trace was sampled in.
func (t *Trace) Mode() Mode {
	if t.unks != nil {
		return FourState
	}
	return TwoState
}

// Value returns signal name's sampled value at cycle (the known-bit plane;
// unknown bits read as 0).
func (t *Trace) Value(cycle int, name string) (uint64, bool) {
	v, ok := t.Value4(cycle, name)
	return v.Val, ok
}

// Value4 returns signal name's sampled four-state value at cycle.
func (t *Trace) Value4(cycle int, name string) (V4, bool) {
	if cycle < 0 || cycle >= len(t.rows) {
		return V4{}, false
	}
	if sig := t.Design.Signals[name]; sig != nil {
		v := V4{Val: t.rows[cycle][sig.Slot]}
		if t.unks != nil {
			v.Unk = t.unks[cycle][sig.Slot]
		}
		return v, true
	}
	if pv, ok := t.Design.Params[name]; ok {
		return known(pv), true
	}
	return V4{}, false
}

// Fired returns the per-domain fired mask for the edge that followed
// cycle's sample (bit k set = Design.Domains[k] ticked there). Single-domain
// traces report every domain fired at every cycle.
func (t *Trace) Fired(cycle int) uint64 {
	if t.fired == nil {
		return firedAll
	}
	return t.fired[cycle]
}

// DomainCycles appends to dst the cycles sampled at domain's clock ticks —
// the sub-sequence a domain-clocked assertion advances over — and returns
// the extended slice. For single-domain traces that is every cycle.
func (t *Trace) DomainCycles(dst []int, domain int) []int {
	for c := range t.rows {
		if t.Fired(c)>>uint(domain)&1 != 0 {
			dst = append(dst, c)
		}
	}
	return dst
}

// CompiledExpr evaluates an expression at a sampled cycle of one trace.
type CompiledExpr func(cycle int) (uint64, error)

// CompileExpr returns an evaluator for e over this trace's sampled rows,
// with history access for the SVA sampled-value functions. Expressions
// reachable from the design's assertions resolve to the plan's precompiled
// slot-addressed closures; anything else (or any trace produced by the
// reference interpreter) falls back to the interpretive evaluator, which
// computes identical results.
func (t *Trace) CompileExpr(e verilog.Expr) CompiledExpr {
	if t.plan != nil {
		if fn, ok := t.plan.svaExpr[e]; ok {
			m := t.evalMach()
			return func(cycle int) (uint64, error) {
				m.rows, m.vals, m.idx, m.err = t.rows, t.rows[cycle], cycle, nil
				v := fn(m)
				return v, m.err
			}
		}
	}
	return func(cycle int) (uint64, error) {
		return Eval(e, traceRowEnv{t: t, idx: cycle})
	}
}

// CompiledExpr4 evaluates an expression in the four-state domain at a
// sampled cycle of one trace.
type CompiledExpr4 func(cycle int) (V4, error)

// CompileExpr4 returns a four-state evaluator for e over this trace's
// sampled rows. On a two-state trace everything is known and the result is
// the two-state evaluation lifted into the Val plane — built directly over
// the plan's compiled closure so the formal checker's hot loop pays no
// extra indirection. On a four-state trace, assertion-reachable
// expressions resolve to the plan's compiled four-state closures with the
// interpretive Eval4 as the fallback.
//
// Like CompileExpr's, the evaluator reads the trace's rows as they are
// when it is called, so it stays valid while a Runner rewrites the trace.
func (t *Trace) CompileExpr4(e verilog.Expr) CompiledExpr4 {
	if t.unks == nil {
		if t.plan != nil {
			if fn, ok := t.plan.svaExpr[e]; ok {
				m := t.evalMach()
				return func(cycle int) (V4, error) {
					m.rows, m.vals, m.idx, m.err = t.rows, t.rows[cycle], cycle, nil
					v := fn(m)
					return V4{Val: v}, m.err
				}
			}
		}
		return func(cycle int) (V4, error) {
			v, err := Eval(e, traceRowEnv{t: t, idx: cycle})
			return known(v), err
		}
	}
	if t.plan != nil {
		if p4 := t.plan.fourState(); p4 != nil {
			if fn, ok := p4.svaExpr4[e]; ok {
				m := t.evalMach()
				return func(cycle int) (V4, error) {
					m.rows, m.rows4, m.idx, m.err = t.rows, t.unks, cycle, nil
					m.vals, m.unks = t.rows[cycle], t.unks[cycle]
					v := fn(m)
					return v, m.err
				}
			}
		}
	}
	return func(cycle int) (V4, error) {
		return Eval4(e, traceRowEnv{t: t, idx: cycle})
	}
}

// evalMach returns the trace's lazily built machine for compiled
// evaluation. Each evaluator re-points it at the row under evaluation and
// at the trace's current rows (the history sampled-value functions read),
// so evaluators share it and never hold a stale copy of the row list.
func (t *Trace) evalMach() *mach {
	if t.em == nil {
		t.em = traceMach(t.plan)
	}
	return t.em
}

// traceRowEnv adapts a trace row to the evaluator environment, with history
// access for sampled-value functions. It is the interpretive twin of the
// plan's compiled trace evaluation.
type traceRowEnv struct {
	t   *Trace
	idx int
}

// Value implements Env.
func (e traceRowEnv) Value(name string) (uint64, bool) { return e.t.Value(e.idx, name) }

// Value4 implements Env4.
func (e traceRowEnv) Value4(name string) (V4, bool) { return e.t.Value4(e.idx, name) }

// Width implements Env.
func (e traceRowEnv) Width(name string) int {
	if sig := e.t.Design.Signals[name]; sig != nil {
		return sig.Width
	}
	return 0
}

// At implements HistoryEnv.
func (e traceRowEnv) At(offset int) Env {
	if e.idx-offset < 0 {
		return nil
	}
	return traceRowEnv{t: e.t, idx: e.idx - offset}
}

// Format renders the trace as a compact waveform table for counterexample
// logs, limited to the named signals (or all signals when names is nil).
// Cells are sized to the widest rendered value, so partially-unknown
// vectors (rendered per-bit, e.g. b0000001x) keep the cycle columns
// aligned.
func (t *Trace) Format(names []string) string {
	if names == nil {
		names = t.Design.Order
	}
	width := 0
	for _, n := range names {
		if len(n) > width {
			width = len(n)
		}
	}
	cells := make([][]string, len(names))
	cell := 3
	for ni, n := range names {
		w := 0
		if sig := t.Design.Signals[n]; sig != nil {
			w = sig.Width
		}
		cells[ni] = make([]string, len(t.rows))
		for i := range t.rows {
			v, _ := t.Value4(i, n)
			cells[ni][i] = FormatV4(v, w)
			if len(cells[ni][i]) > cell {
				cell = len(cells[ni][i])
			}
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%*s |", width, "cycle")
	for i := range t.rows {
		fmt.Fprintf(&sb, " %*d", cell, i)
	}
	sb.WriteString("\n")
	for ni, n := range names {
		fmt.Fprintf(&sb, "%*s |", width, n)
		for i := range t.rows {
			fmt.Fprintf(&sb, " %*s", cell, cells[ni][i])
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// Stimulus drives a simulation: one map of input values per clock cycle.
// The clock itself is implicit (one rising edge per entry). Reset values are
// supplied like any other input.
type Stimulus []map[string]uint64

// VecStimulus drives a fixed input list with dense per-cycle vectors:
// Rows[c][i] is the value of Inputs[i] at cycle c. It is the slot-addressed
// form the bounded model checker's stimulus loops generate, avoiding one
// map allocation and one name hash per input per cycle.
type VecStimulus struct {
	Inputs []*compile.Signal
	Rows   [][]uint64
}

// Run simulates the design over the stimulus and returns the sampled trace.
// Inputs not mentioned in a cycle hold their previous value. Simulation
// executes on the design's compiled plan; designs the planner cannot lower
// run on the reference interpreter instead (identical semantics). Run is
// two-state; RunMode selects the value domain.
func Run(d *compile.Design, stim Stimulus) (*Trace, error) {
	return RunMode(d, stim, TwoState)
}

// RunMode simulates the design over the stimulus in the given value domain.
// In FourState mode every signal starts x (except declared initials) and
// the compiled four-state lowering executes; designs it cannot lower fall
// back to the four-state reference interpreter.
func RunMode(d *compile.Design, stim Stimulus, mode Mode) (*Trace, error) {
	return RunModeCtx(context.Background(), d, stim, mode)
}

// stopped polls a context's done channel between simulated cycles. The
// channel is hoisted out of the run loops so an uncancellable context
// (Background's Done is nil) costs one nil check per cycle — the formal
// checker's hot loops must not pay for cancellation they never use.
func stopped(done <-chan struct{}) bool {
	if done == nil {
		return false
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// RunModeCtx is RunMode under a context: the run loop polls ctx between
// cycles and returns ctx.Err() once it is cancelled, so a caller-side
// deadline or disconnect stops a long simulation within one cycle.
func RunModeCtx(ctx context.Context, d *compile.Design, stim Stimulus, mode Mode) (*Trace, error) {
	r := NewRunner(d, mode)
	if r.p == nil {
		return RunReferenceCtx(ctx, d, stim, mode)
	}
	return r.run(ctx, len(stim), func(c int) error {
		for name, v := range stim[c] {
			if err := r.m.setInput(name, v); err != nil {
				return err
			}
		}
		return nil
	})
}

// RunVec simulates the design over a vectorised stimulus, driving input
// slots directly. Every input in stim.Inputs is set every cycle. RunVec is
// two-state — it is the bounded model checker's hot path; RunVecMode
// selects the value domain.
func RunVec(d *compile.Design, stim VecStimulus) (*Trace, error) {
	return RunVecCtx(context.Background(), d, stim, TwoState)
}

// maps materialises the equivalent map stimulus for reference fallbacks.
func (st VecStimulus) maps() Stimulus {
	ms := make(Stimulus, len(st.Rows))
	for c, row := range st.Rows {
		cyc := make(map[string]uint64, len(st.Inputs))
		for i, in := range st.Inputs {
			cyc[in.Name] = row[i]
		}
		ms[c] = cyc
	}
	return ms
}

// RunVecMode is RunVec in an explicit value domain. FourState runs execute
// on the plan's four-state lowering (falling back to the reference
// interpreter when it is unavailable), so the formal checker can drive the
// same known-value stimulus enumeration over x-initialised state.
func RunVecMode(d *compile.Design, stim VecStimulus, mode Mode) (*Trace, error) {
	return RunVecCtx(context.Background(), d, stim, mode)
}

// RunVecCtx is RunVecMode under a context: the run loop polls ctx between
// cycles and returns ctx.Err() once it is cancelled. This is the seam the
// formal checker threads its context through, so a cancelled bounded check
// stops mid-run rather than finishing the stimulus. It is a one-shot
// Runner: the returned trace is the caller's to keep.
func RunVecCtx(ctx context.Context, d *compile.Design, stim VecStimulus, mode Mode) (*Trace, error) {
	return NewRunner(d, mode).Run(ctx, stim)
}

// Runner simulates one design in one value domain over any number of
// vectorised stimuli. It builds the machine, the input-slot list, the
// clock-domain tracker and the trace row storage once and overwrites them
// in place on every Run, so once its rows have grown to the deepest
// stimulus a compiled run allocates nothing.
//
// Run returns the Runner's own Trace, rewritten by the next Run: it is
// valid until then, and a caller that keeps it past the next Run keeps
// Trace.Clone() instead. Expressions compiled against that trace
// (CompileExpr, CompileExpr4) stay valid across runs and always read the
// current rows. Designs the planner cannot lower run on the reference
// interpreter, which returns a fresh trace per run. A Runner is not safe
// for concurrent use.
type Runner struct {
	d    *compile.Design
	mode Mode
	p    *Plan  // nil: every run falls back to the reference interpreter
	p4   *plan4 // four-state lowering; nil in two-state runs
	m    *mach
	dc   *domainClocks
	tr   *Trace

	inputs []*compile.Signal // the stimulus inputs that slots resolves
	slots  []int32

	// rows and unks are row headers over one depth×nslots slab each (unks
	// four-state only); fired is the per-row fired mask on multi-clock
	// designs. They grow to the deepest stimulus run and are then reused.
	rows  [][]uint64
	unks  [][]uint64
	fired []uint64
}

// NewRunner returns a Runner for d in the given value domain.
func NewRunner(d *compile.Design, mode Mode) *Runner {
	r := &Runner{d: d, mode: mode, p: PlanOf(d)}
	if r.p != nil && mode == FourState {
		if r.p4 = r.p.fourState(); r.p4 == nil {
			r.p = nil
		}
	}
	if r.p == nil {
		return r
	}
	if r.p4 != nil {
		r.m = newMach4(r.p, r.p4)
	} else {
		r.m = newMach(r.p)
	}
	r.dc = domainClocksOf(d)
	r.tr = &Trace{Design: d, plan: r.p}
	if r.p4 != nil {
		r.unks = [][]uint64{} // a four-state trace's unks are never nil
	}
	return r
}

// Run simulates the stimulus from the design's initial state and returns
// the sampled trace (see Runner for how long it stays valid).
func (r *Runner) Run(ctx context.Context, stim VecStimulus) (*Trace, error) {
	if r.p == nil {
		return RunReferenceCtx(ctx, r.d, stim.maps(), r.mode)
	}
	if err := r.bind(stim.Inputs); err != nil {
		return nil, err
	}
	m, masks := r.m, r.p.masks
	return r.run(ctx, len(stim.Rows), func(c int) error {
		in := stim.Rows[c]
		for i, slot := range r.slots {
			m.vals[slot] = in[i] & masks[slot]
			if m.unks != nil {
				m.unks[slot] = 0
			}
		}
		return nil
	})
}

// run is the one compiled run loop: reset, then per cycle capture the
// clocks, apply cycle c's inputs through drive, settle, sample the row and
// run the edge of the domains that fired.
func (r *Runner) run(ctx context.Context, depth int, drive func(c int) error) (*Trace, error) {
	done := ctx.Done()
	m, dc, tr := r.m, r.dc, r.tr
	m.reset(r.p4)
	if err := r.settle(); err != nil {
		return nil, err
	}
	r.grow(depth)
	tr.rows = r.rows[:depth]
	if r.p4 != nil {
		tr.unks = r.unks[:depth]
	}
	if dc != nil {
		tr.fired = r.fired[:depth]
	}
	for c := 0; c < depth; c++ {
		if stopped(done) {
			return nil, ctx.Err()
		}
		if dc != nil {
			dc.capture(m.vals, m.unks)
		}
		if err := drive(c); err != nil {
			return nil, fmt.Errorf("cycle %d: %w", c, err)
		}
		if err := r.settle(); err != nil {
			return nil, fmt.Errorf("cycle %d: %w", c, err)
		}
		copy(tr.rows[c], m.vals)
		if m.unks != nil {
			copy(tr.unks[c], m.unks)
		}
		f := firedAll
		if dc != nil {
			f = dc.fired(m.vals, m.unks)
			tr.fired[c] = f
		}
		var err error
		if r.p4 != nil {
			err = m.edge4Fired(r.p4, f)
		} else {
			err = m.edgeFired(f)
		}
		if err != nil {
			return nil, fmt.Errorf("cycle %d: %w", c, err)
		}
	}
	return tr, nil
}

func (r *Runner) settle() error {
	if r.p4 != nil {
		return r.m.settle4(r.p4)
	}
	return r.m.settle()
}

// bind resolves the stimulus inputs to state slots, reusing the previous
// resolution when the input list is unchanged.
func (r *Runner) bind(inputs []*compile.Signal) error {
	if r.slots != nil && slices.Equal(inputs, r.inputs) {
		return nil
	}
	slots := make([]int32, len(inputs))
	for i, in := range inputs {
		sig := r.d.Signals[in.Name]
		if sig == nil || sig.Kind != compile.SigInput {
			return fmt.Errorf("sim: %q is not an input", in.Name)
		}
		slots[i] = int32(sig.Slot)
	}
	r.inputs, r.slots = inputs, slots
	return nil
}

// grow makes room for depth rows in every plane the trace records.
func (r *Runner) grow(depth int) {
	if depth <= len(r.rows) {
		return
	}
	r.rows = newRows(depth, r.p.nslots)
	if r.p4 != nil {
		r.unks = newRows(depth, r.p.nslots)
	}
	if r.dc != nil {
		r.fired = make([]uint64, depth)
	}
}

// newRows cuts one depth×width slab into rows whose capacity ends where
// the next row starts, so no row can be appended into its neighbour.
func newRows(depth, width int) [][]uint64 {
	flat := make([]uint64, depth*width)
	rows := make([][]uint64, depth)
	for c := range rows {
		rows[c] = flat[c*width : (c+1)*width : (c+1)*width]
	}
	return rows
}

// Clone returns a deep copy of the trace: a trace a Runner will overwrite
// becomes one the caller owns.
func (t *Trace) Clone() *Trace {
	c := &Trace{Design: t.Design, plan: t.plan, rows: cloneRows(t.rows), fired: slices.Clone(t.fired)}
	if t.unks != nil {
		c.unks = cloneRows(t.unks)
	}
	return c
}

func cloneRows(rows [][]uint64) [][]uint64 {
	width := 0
	if len(rows) > 0 {
		width = len(rows[0]) // every row of a trace is one slot vector
	}
	out := newRows(len(rows), width)
	for c, row := range rows {
		copy(out[c], row)
	}
	return out
}

// RunReference simulates the design on the two-state reference interpreter.
// It is the semantic oracle the differential tests hold Run's compiled plan
// against, and the fallback for designs the planner cannot lower.
func RunReference(d *compile.Design, stim Stimulus) (*Trace, error) {
	return RunReferenceMode(d, stim, TwoState)
}

// RunReferenceMode simulates the design on the reference interpreter in the
// given value domain.
func RunReferenceMode(d *compile.Design, stim Stimulus, mode Mode) (*Trace, error) {
	return RunReferenceCtx(context.Background(), d, stim, mode)
}

// RunReferenceCtx is RunReferenceMode under a context, polled between
// cycles like the compiled run loops — the reference interpreter is the
// fallback for designs the planner cannot lower, and those are exactly the
// runs slow enough to be worth cancelling.
func RunReferenceCtx(ctx context.Context, d *compile.Design, stim Stimulus, mode Mode) (*Trace, error) {
	done := ctx.Done()
	s, err := NewMode(d, mode)
	if err != nil {
		return nil, err
	}
	rc := refClocksOf(d)
	tr := &Trace{Design: d, rows: make([][]uint64, 0, len(stim))}
	if mode == FourState {
		tr.unks = make([][]uint64, 0, len(stim))
	}
	for i, cyc := range stim {
		if stopped(done) {
			return nil, ctx.Err()
		}
		if rc != nil {
			rc.capture(s)
		}
		for name, v := range cyc {
			if err := s.SetInput(name, v); err != nil {
				return nil, fmt.Errorf("cycle %d: %w", i, err)
			}
		}
		if err := s.Settle(); err != nil {
			return nil, fmt.Errorf("cycle %d: %w", i, err)
		}
		tr.rows = append(tr.rows, s.snapshotRow())
		if tr.unks != nil {
			tr.unks = append(tr.unks, s.snapshotUnkRow())
		}
		f := firedAll
		if rc != nil {
			f = rc.fired(s)
			tr.fired = append(tr.fired, f)
		}
		if err := s.EdgeFired(f); err != nil {
			return nil, fmt.Errorf("cycle %d: %w", i, err)
		}
	}
	return tr, nil
}
