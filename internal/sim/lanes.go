package sim

import (
	"fmt"
	"math/bits"

	"repro/internal/compile"
	"repro/internal/verilog"
)

// This file is the lane-parallel ("bit-sliced") lowering of the execution
// plan: structure-of-arrays state that packs up to 64 independent stimuli —
// lanes — into one machine word per single-bit signal, so one pass over the
// compiled closures advances all lanes at once. Multi-bit signals and any
// operator without a word-wide kernel fall back to a per-lane scalar loop
// inside the same closure graph, computed with the exact formulas plan.go
// uses, so correctness never depends on a packed kernel existing.
//
// Control flow is handled by predicated execution: both branches of an if
// (and every case arm) run under a per-lane write mask, so lanes that took
// different paths each see exactly the writes their own path performs. This
// evaluates a superset of the expressions the scalar engine would evaluate
// per lane; any runtime error therefore aborts the whole batch and callers
// re-run the lanes one by one on the scalar plan, which reproduces scalar
// behaviour exactly.
//
// Unused high lanes replicate the last real lane's stimulus, so every one
// of the 64 word bits always simulates a valid run and word-wide kernels
// never see garbage; callers mask results to LaneStimulus.N at the API
// boundary (LaneTrace.ActiveMask).

// laneBitFn evaluates a packed expression: bit l of the result is lane l's
// single-bit value. Only expressions whose scalar value is provably in
// {0, 1} compile to this form.
type laneBitFn func(m *lmach) uint64

// laneVecFn evaluates an expression per lane with the scalar engine's exact
// formulas, returning a 64-entry register (one raw 64-bit value per lane).
type laneVecFn func(m *lmach) []uint64

// laneStmtFn executes a compiled statement under the machine's write mask.
type laneStmtFn func(m *lmach)

// laneStoreFn stores per-lane values (register form) into a target.
type laneStoreFn func(m *lmach, vv []uint64)

// lexpr is one compiled lane expression: exactly one of bit/vec is set.
type lexpr struct {
	bit laneBitFn
	vec laneVecFn
}

// LanePlan is the compile-once lane-parallel execution plan, built lazily
// from the scalar plan and cached on it (PlanLanes), so concurrent lane
// batches share a single artifact per design. Immutable after construction;
// all mutable state lives in the per-run lmach.
type LanePlan struct {
	p     *Plan
	isBit []bool // per-slot: packed word (width 1) vs per-lane vector

	nregs  int
	consts []laneConst

	assigns []laneStmtFn
	combs   []laneStmtFn
	seqs    []laneStmtFn

	// svaLane maps assertion-reachable expressions to lane evaluators,
	// keyed by AST node identity like Plan.svaExpr. allSVA reports that
	// every assertion expression compiled, the gate for lane-mode formal.
	svaLane map[verilog.Expr]lexpr
	allSVA  bool
}

// laneConst prefills one vector register with a broadcast constant.
type laneConst struct {
	reg int
	v   uint64
}

// PlanLanes returns the design's lane-parallel execution plan, building and
// caching it on first use. Nil when the design has no scalar plan or uses a
// construct the lane compiler cannot lower; callers fall back to per-lane
// scalar runs.
func PlanLanes(d *compile.Design) *LanePlan {
	p := PlanOf(d)
	if p == nil {
		return nil
	}
	return p.lanes()
}

func (p *Plan) lanes() *LanePlan {
	p.onceL.Do(func() { p.pl = buildLanePlan(p) })
	return p.pl
}

// LanesOK reports whether the design can run lane-parallel in the given
// value domain with every assertion expression batched per lane-word — the
// precondition formal.Checker.CheckStimuli checks before packing a batch.
// Multi-clock designs are excluded: the lane engine itself handles them
// (per-lane fired masks), but the lane-batched assertion evaluation has no
// per-domain tick schedule, so batches of them run on the scalar engine.
func LanesOK(d *compile.Design, mode Mode) bool {
	if d.MultiClock() {
		return false
	}
	p := PlanOf(d)
	if p == nil {
		return false
	}
	if mode == FourState {
		lp4 := p.lanes4()
		return lp4 != nil && lp4.allSVA
	}
	lp := p.lanes()
	return lp != nil && lp.allSVA
}

func buildLanePlan(p *Plan) *LanePlan {
	d := p.design
	lp := &LanePlan{p: p, svaLane: map[verilog.Expr]lexpr{}}
	lp.isBit = make([]bool, p.nslots)
	for _, name := range d.Order {
		sig := d.Signals[name]
		lp.isBit[sig.Slot] = sig.Width == 1
	}
	c := &laneCompiler{c: planCompiler{d: d, p: p}, lp: lp}
	ok := func() bool {
		for _, as := range d.Assigns {
			fn, err := c.compileAssign(as.LHS, as.RHS, wAssign)
			if err != nil {
				return false
			}
			lp.assigns = append(lp.assigns, fn)
		}
		for _, al := range d.CombAlways {
			body, err := c.compileStmt(al.Body, false)
			if err != nil {
				return false
			}
			lp.combs = append(lp.combs, body)
		}
		for _, al := range d.SeqAlways {
			body, err := c.compileStmt(al.Body, true)
			if err != nil {
				return false
			}
			lp.seqs = append(lp.seqs, body)
		}
		return true
	}()
	if !ok {
		return nil
	}
	lp.allSVA = true
	compileSVA := func(e verilog.Expr) {
		if e == nil {
			return
		}
		if le, err := c.expr(e); err == nil {
			lp.svaLane[e] = le
		} else {
			lp.allSVA = false
		}
	}
	for i := range d.Asserts {
		a := &d.Asserts[i]
		compileSVA(a.DisableIff)
		if a.Seq != nil {
			for _, t := range a.Seq.Antecedent {
				compileSVA(t.Expr)
			}
			for _, t := range a.Seq.Consequent {
				compileSVA(t.Expr)
			}
		}
	}
	return lp
}

// ---------------------------------------------------------------------------
// Lane machine state
// ---------------------------------------------------------------------------

// lmach is the mutable lane-batch execution state: one packed word per
// single-bit slot, one 64-entry vector per multi-bit slot, plus the same
// generation-counted blocking overlay and post-edge commit sets as mach —
// extended with per-lane write masks so predicated branches only touch
// their own lanes. The four-state planes (u*) are allocated by lanes4.go.
type lmach struct {
	lp  *LanePlan
	lp4 *lanePlan4

	bits []uint64   // packed committed state (single-bit slots)
	wide [][]uint64 // per-lane committed state (multi-bit slots)

	ovlBits []uint64
	ovlWide [][]uint64
	ovlGen  []uint32
	gen     uint32
	touched []int32

	nbaBits []uint64
	nbaWide [][]uint64
	nbaGen  []uint32
	nbaWm   []uint64 // lanes written in the current commit set, per slot
	ngen    uint32
	nbaList []int32

	wm      uint64 // current predication write mask
	changed bool

	regs [][]uint64 // per-node vector registers

	// Four-state planes (lanes4.go); nil for two-state runs.
	ubits    []uint64
	uwide    [][]uint64
	ovlUBits []uint64
	ovlUWide [][]uint64
	nbaUBits []uint64
	nbaUWide [][]uint64
	uregs    [][]uint64

	// Trace-evaluation state for the SVA sampled-value functions.
	rows  []laneRow
	urows []laneRow
	idx   int

	err error
}

// laneRow is one sampled cycle of a lane batch: packed words for single-bit
// slots, per-lane vectors for the rest (nil entries for single-bit slots).
type laneRow struct {
	bits []uint64
	wide [][]uint64
}

func newLmach(lp *LanePlan) *lmach {
	p := lp.p
	n := p.nslots
	m := &lmach{
		lp:      lp,
		bits:    make([]uint64, n),
		wide:    make([][]uint64, n),
		ovlBits: make([]uint64, n),
		ovlWide: make([][]uint64, n),
		ovlGen:  make([]uint32, n),
		gen:     1,
		nbaBits: make([]uint64, n),
		nbaWide: make([][]uint64, n),
		nbaGen:  make([]uint32, n),
		nbaWm:   make([]uint64, n),
		ngen:    1,
		wm:      ^uint64(0),
		regs:    make([][]uint64, lp.nregs),
	}
	for s := 0; s < n; s++ {
		if lp.isBit[s] {
			if p.initRow[s]&1 != 0 {
				m.bits[s] = ^uint64(0)
			}
			continue
		}
		m.wide[s] = make([]uint64, 64)
		m.ovlWide[s] = make([]uint64, 64)
		m.nbaWide[s] = make([]uint64, 64)
		broadcast(m.wide[s], p.initRow[s])
	}
	for i := range m.regs {
		m.regs[i] = make([]uint64, 64)
	}
	for _, kc := range lp.consts {
		broadcast(m.regs[kc.reg], kc.v)
	}
	return m
}

// traceLmach returns a machine for evaluating compiled lane expressions
// over sampled lane-trace rows: no overlay, state aliased per cycle.
func traceLmach(lp *LanePlan, rows []laneRow) *lmach {
	m := &lmach{
		lp:     lp,
		ovlGen: make([]uint32, lp.p.nslots),
		gen:    1,
		wm:     ^uint64(0),
		regs:   make([][]uint64, lp.nregs),
		rows:   rows,
	}
	for i := range m.regs {
		m.regs[i] = make([]uint64, 64)
	}
	for _, kc := range lp.consts {
		broadcast(m.regs[kc.reg], kc.v)
	}
	return m
}

func broadcast(dst []uint64, v uint64) {
	for l := range dst {
		dst[l] = v
	}
}

func (m *lmach) fail(err error) {
	if m.err == nil {
		m.err = err
	}
}

// readBit reads a packed slot through the blocking overlay. Overlay entries
// are initialised from the pre-write value at first touch, so an overlay
// word is complete for every lane, written or not.
func (m *lmach) readBit(slot int32) uint64 {
	if m.ovlGen[slot] == m.gen {
		return m.ovlBits[slot]
	}
	return m.bits[slot]
}

// readVec reads a multi-bit slot through the blocking overlay.
func (m *lmach) readVec(slot int32) []uint64 {
	if m.ovlGen[slot] == m.gen {
		return m.ovlWide[slot]
	}
	return m.wide[slot]
}

// writeOvlBit merges a packed blocking write under the predication mask.
func (m *lmach) writeOvlBit(slot int32, w uint64) {
	if m.ovlGen[slot] != m.gen {
		m.ovlGen[slot] = m.gen
		m.ovlBits[slot] = m.bits[slot]
		m.touched = append(m.touched, slot)
	}
	m.ovlBits[slot] = (m.ovlBits[slot] &^ m.wm) | (w & m.wm)
}

// writeOvlVec merges a per-lane blocking write under the predication mask.
// The value is already masked to the slot width per lane.
func (m *lmach) writeOvlVec(slot int32, vv []uint64) {
	if m.ovlGen[slot] != m.gen {
		m.ovlGen[slot] = m.gen
		copy(m.ovlWide[slot], m.wide[slot])
		m.touched = append(m.touched, slot)
	}
	dst := m.ovlWide[slot]
	for l := 0; l < 64; l++ {
		if m.wm>>uint(l)&1 == 1 {
			dst[l] = vv[l]
		}
	}
}

// writeNBABit merges a packed post-edge commit; last write per lane wins.
func (m *lmach) writeNBABit(slot int32, w uint64) {
	if m.nbaGen[slot] != m.ngen {
		m.nbaGen[slot] = m.ngen
		m.nbaBits[slot] = m.bits[slot]
		m.nbaWm[slot] = 0
		m.nbaList = append(m.nbaList, slot)
	}
	m.nbaBits[slot] = (m.nbaBits[slot] &^ m.wm) | (w & m.wm)
	m.nbaWm[slot] |= m.wm
}

// writeNBAVec merges a per-lane post-edge commit.
func (m *lmach) writeNBAVec(slot int32, vv []uint64) {
	if m.nbaGen[slot] != m.ngen {
		m.nbaGen[slot] = m.ngen
		copy(m.nbaWide[slot], m.wide[slot])
		m.nbaWm[slot] = 0
		m.nbaList = append(m.nbaList, slot)
	}
	dst := m.nbaWide[slot]
	for l := 0; l < 64; l++ {
		if m.wm>>uint(l)&1 == 1 {
			dst[l] = vv[l]
		}
	}
	m.nbaWm[slot] |= m.wm
}

// settleLanes mirrors mach.settle over lane state: assigns and comb blocks
// to a fixpoint across all lanes. Per-lane convergence is unaffected by the
// shared iteration count — a converged lane re-computes identical values.
func (m *lmach) settleLanes() error {
	lp := m.lp
	for iter := 0; iter < maxCombIterations; iter++ {
		m.changed = false
		m.gen++ // assigns read committed state, never a stale overlay
		for _, fn := range lp.assigns {
			fn(m)
			if m.err != nil {
				return m.err
			}
		}
		for _, body := range lp.combs {
			m.gen++
			m.touched = m.touched[:0]
			body(m)
			if m.err != nil {
				return m.err
			}
			for _, slot := range m.touched {
				if lp.isBit[slot] {
					if v := m.ovlBits[slot]; m.bits[slot] != v {
						m.bits[slot] = v
						m.changed = true
					}
					continue
				}
				src, dst := m.ovlWide[slot], m.wide[slot]
				for l := 0; l < 64; l++ {
					if dst[l] != src[l] {
						dst[l] = src[l]
						m.changed = true
					}
				}
			}
		}
		if m.err != nil {
			return m.err
		}
		if !m.changed {
			return nil
		}
	}
	return fmt.Errorf("sim: combinational logic did not settle (cycle?)")
}

// edgeLanes mirrors mach.edge over lane state. fired holds one lane mask
// per clock domain (lane l of fired[k] set when domain k ticked in lane l);
// nil for single-domain batches, where every block runs in every lane. A
// block whose domain fired in only some lanes runs under the write-mask
// predication already used for branches, so non-fired lanes keep their
// committed state bit-for-bit.
func (m *lmach) edgeLanes(fired []uint64) error {
	m.ngen++
	m.nbaList = m.nbaList[:0]
	dom := m.lp.p.seqDomain
	for i, body := range m.lp.seqs {
		if fired != nil {
			w := fired[dom[i]]
			if w == 0 {
				continue
			}
			m.wm = w
		}
		m.gen++ // fresh blocking overlay per block
		m.touched = m.touched[:0]
		body(m)
		if m.err != nil {
			return m.err
		}
	}
	m.wm = ^uint64(0)
	for _, slot := range m.nbaList {
		if m.lp.isBit[slot] {
			m.bits[slot] = m.nbaBits[slot]
			continue
		}
		copy(m.wide[slot], m.nbaWide[slot])
	}
	return m.settleLanes()
}

// evalAtBit evaluates a packed expression against an earlier sampled row.
func (m *lmach) evalAtBit(fn laneBitFn, idx int) uint64 {
	savedB, savedW, savedIdx := m.bits, m.wide, m.idx
	m.bits, m.wide, m.idx = m.rows[idx].bits, m.rows[idx].wide, idx
	v := fn(m)
	m.bits, m.wide, m.idx = savedB, savedW, savedIdx
	return v
}

// evalAtVec evaluates a per-lane expression against an earlier sampled row.
func (m *lmach) evalAtVec(fn laneVecFn, idx int) []uint64 {
	savedB, savedW, savedIdx := m.bits, m.wide, m.idx
	m.bits, m.wide, m.idx = m.rows[idx].bits, m.rows[idx].wide, idx
	v := fn(m)
	m.bits, m.wide, m.idx = savedB, savedW, savedIdx
	return v
}

// ---------------------------------------------------------------------------
// Statement compilation
// ---------------------------------------------------------------------------

// laneCompiler lowers AST nodes into lane closures, sharing the scalar
// compiler's constant folding and static width analysis so both lowerings
// agree on masks and plannability.
type laneCompiler struct {
	c  planCompiler
	lp *LanePlan
}

func (c *laneCompiler) newReg() int {
	r := c.lp.nregs
	c.lp.nregs++
	return r
}

func (c *laneCompiler) constReg(v uint64) int {
	r := c.newReg()
	c.lp.consts = append(c.lp.consts, laneConst{reg: r, v: v})
	return r
}

// asVec adapts any lane expression to per-lane register form: a packed word
// expands to {0,1} per lane, exactly the scalar values it encodes.
func (c *laneCompiler) asVec(e lexpr) laneVecFn {
	if e.vec != nil {
		return e.vec
	}
	bf := e.bit
	reg := c.newReg()
	return func(m *lmach) []uint64 {
		w := bf(m)
		out := m.regs[reg]
		for l := 0; l < 64; l++ {
			out[l] = (w >> uint(l)) & 1
		}
		return out
	}
}

// truth compiles a per-lane nonzero test into a packed word.
func (c *laneCompiler) truth(e lexpr) laneBitFn {
	if e.bit != nil {
		return e.bit // values are {0,1}: the word is its own truth mask
	}
	vf := e.vec
	return func(m *lmach) uint64 {
		v := vf(m)
		var w uint64
		for l := 0; l < 64; l++ {
			if v[l] != 0 {
				w |= 1 << uint(l)
			}
		}
		return w
	}
}

// lsb compiles the per-lane least-significant bit into a packed word (the
// $rose/$fell sampling rule).
func (c *laneCompiler) lsb(e lexpr) laneBitFn {
	if e.bit != nil {
		return e.bit
	}
	vf := e.vec
	return func(m *lmach) uint64 {
		v := vf(m)
		var w uint64
		for l := 0; l < 64; l++ {
			w |= (v[l] & 1) << uint(l)
		}
		return w
	}
}

func (c *laneCompiler) compileStmt(s verilog.Stmt, seq bool) (laneStmtFn, error) {
	switch x := s.(type) {
	case nil:
		return func(*lmach) {}, nil
	case *verilog.Block:
		fns := make([]laneStmtFn, 0, len(x.Stmts))
		for _, sub := range x.Stmts {
			fn, err := c.compileStmt(sub, seq)
			if err != nil {
				return nil, err
			}
			fns = append(fns, fn)
		}
		return func(m *lmach) {
			for _, fn := range fns {
				fn(m)
				if m.err != nil {
					return
				}
			}
		}, nil
	case *verilog.Blocking:
		mode := wComb
		if seq {
			mode = wSeqBlocking
		}
		return c.compileAssign(x.LHS, x.RHS, mode)
	case *verilog.NonBlocking:
		// In combinational blocks the interpreter executes nonblocking
		// assignments with blocking semantics; mirror that.
		mode := wComb
		if seq {
			mode = wSeqNBA
		}
		return c.compileAssign(x.LHS, x.RHS, mode)
	case *verilog.If:
		ce, err := c.expr(x.Cond)
		if err != nil {
			return nil, err
		}
		cf := c.truth(ce)
		then, err := c.compileStmt(x.Then, seq)
		if err != nil {
			return nil, err
		}
		var els laneStmtFn
		if x.Else != nil {
			els, err = c.compileStmt(x.Else, seq)
			if err != nil {
				return nil, err
			}
		}
		return func(m *lmach) {
			cw := cf(m)
			if m.err != nil {
				return
			}
			save := m.wm
			if tw := save & cw; tw != 0 {
				m.wm = tw
				then(m)
				if m.err != nil {
					m.wm = save
					return
				}
			}
			if els != nil {
				if ew := save &^ cw; ew != 0 {
					m.wm = ew
					els(m)
				}
			}
			m.wm = save
		}, nil
	case *verilog.Case:
		se, err := c.expr(x.Subject)
		if err != nil {
			return nil, err
		}
		// Snapshot the subject into a dedicated register: arm bodies may
		// write the subject signal, and later labels must still compare
		// against the value sampled at case entry (scalar semantics).
		sf := c.asVec(se)
		subjReg := c.newReg()
		type laneArm struct {
			labels []laneVecFn
			body   laneStmtFn
		}
		arms := make([]laneArm, 0, len(x.Items))
		var deflt laneStmtFn
		for _, item := range x.Items {
			body, err := c.compileStmt(item.Body, seq)
			if err != nil {
				return nil, err
			}
			if item.Exprs == nil {
				deflt = body
				continue
			}
			labels := make([]laneVecFn, 0, len(item.Exprs))
			for _, le := range item.Exprs {
				lf, err := c.expr(le)
				if err != nil {
					return nil, err
				}
				labels = append(labels, c.asVec(lf))
			}
			arms = append(arms, laneArm{labels: labels, body: body})
		}
		return func(m *lmach) {
			sv := sf(m)
			if m.err != nil {
				return
			}
			subj := m.regs[subjReg]
			copy(subj, sv)
			save := m.wm
			remaining := save
			for i := range arms {
				if remaining == 0 {
					break
				}
				for _, lf := range arms[i].labels {
					if remaining == 0 {
						break
					}
					lv := lf(m)
					if m.err != nil {
						m.wm = save
						return
					}
					var mw uint64
					for l := 0; l < 64; l++ {
						if subj[l] == lv[l] {
							mw |= 1 << uint(l)
						}
					}
					if aw := remaining & mw; aw != 0 {
						remaining &^= aw
						m.wm = aw
						arms[i].body(m)
						if m.err != nil {
							m.wm = save
							return
						}
					}
				}
			}
			if deflt != nil && remaining != 0 {
				m.wm = remaining
				deflt(m)
			}
			m.wm = save
		}, nil
	}
	return nil, errUnplannable{fmt.Sprintf("statement %T (lanes)", s)}
}

func (c *laneCompiler) compileAssign(lhs, rhs verilog.Expr, mode writeMode) (laneStmtFn, error) {
	re, err := c.expr(rhs)
	if err != nil {
		return nil, err
	}
	// Fast path: a packed RHS stored whole into a single-bit signal stays
	// word-wide end to end (the value is already in {0,1} per lane, so the
	// width mask is a no-op).
	if id, ok := lhs.(*verilog.Ident); ok && re.bit != nil {
		if sig := c.c.d.Signals[id.Name]; sig != nil && sig.Width == 1 {
			slot := int32(sig.Slot)
			bf := re.bit
			switch mode {
			case wAssign:
				return func(m *lmach) {
					w := bf(m)
					nv := (m.bits[slot] &^ m.wm) | (w & m.wm)
					if nv != m.bits[slot] {
						m.bits[slot] = nv
						m.changed = true
					}
				}, nil
			case wComb:
				return func(m *lmach) { m.writeOvlBit(slot, bf(m)) }, nil
			case wSeqBlocking:
				return func(m *lmach) {
					w := bf(m)
					m.writeOvlBit(slot, w)
					m.writeNBABit(slot, w)
				}, nil
			default: // wSeqNBA
				return func(m *lmach) { m.writeNBABit(slot, bf(m)) }, nil
			}
		}
	}
	vf := c.asVec(re)
	store, err := c.store(lhs, mode)
	if err != nil {
		return nil, err
	}
	return func(m *lmach) { store(m, vf(m)) }, nil
}

// store lowers an assignment target to a per-lane store. The incoming
// register holds the unmasked RHS per lane; the store applies the slot's
// width mask and the mode's write discipline, like compileStore.
func (c *laneCompiler) store(lhs verilog.Expr, mode writeMode) (laneStoreFn, error) {
	switch x := lhs.(type) {
	case *verilog.Ident:
		sig := c.c.d.Signals[x.Name]
		if sig == nil {
			return nil, errUnplannable{"assignment to unknown signal " + x.Name}
		}
		slot := int32(sig.Slot)
		mask := sig.Mask()
		if sig.Width == 1 {
			// Pack the per-lane LSBs and reuse the packed write path.
			pack := func(vv []uint64) uint64 {
				var w uint64
				for l := 0; l < 64; l++ {
					w |= (vv[l] & 1) << uint(l)
				}
				return w
			}
			switch mode {
			case wAssign:
				return func(m *lmach, vv []uint64) {
					w := pack(vv)
					nv := (m.bits[slot] &^ m.wm) | (w & m.wm)
					if nv != m.bits[slot] {
						m.bits[slot] = nv
						m.changed = true
					}
				}, nil
			case wComb:
				return func(m *lmach, vv []uint64) { m.writeOvlBit(slot, pack(vv)) }, nil
			case wSeqBlocking:
				return func(m *lmach, vv []uint64) {
					w := pack(vv)
					m.writeOvlBit(slot, w)
					m.writeNBABit(slot, w)
				}, nil
			default: // wSeqNBA
				return func(m *lmach, vv []uint64) { m.writeNBABit(slot, pack(vv)) }, nil
			}
		}
		switch mode {
		case wAssign:
			return func(m *lmach, vv []uint64) {
				dst := m.wide[slot]
				for l := 0; l < 64; l++ {
					if m.wm>>uint(l)&1 == 1 {
						if nv := vv[l] & mask; dst[l] != nv {
							dst[l] = nv
							m.changed = true
						}
					}
				}
			}, nil
		case wComb:
			reg := c.newReg()
			return func(m *lmach, vv []uint64) {
				mv := m.regs[reg]
				for l := 0; l < 64; l++ {
					mv[l] = vv[l] & mask
				}
				m.writeOvlVec(slot, mv)
			}, nil
		case wSeqBlocking:
			reg := c.newReg()
			return func(m *lmach, vv []uint64) {
				mv := m.regs[reg]
				for l := 0; l < 64; l++ {
					mv[l] = vv[l] & mask
				}
				m.writeOvlVec(slot, mv)
				m.writeNBAVec(slot, mv)
			}, nil
		default: // wSeqNBA
			reg := c.newReg()
			return func(m *lmach, vv []uint64) {
				mv := m.regs[reg]
				for l := 0; l < 64; l++ {
					mv[l] = vv[l] & mask
				}
				m.writeNBAVec(slot, mv)
			}, nil
		}
	case *verilog.Index:
		id, ok := x.X.(*verilog.Ident)
		if !ok {
			return nil, errUnplannable{"unsupported assignment target"}
		}
		sig := c.c.d.Signals[id.Name]
		if sig == nil {
			return nil, errUnplannable{"assignment to unknown signal " + id.Name}
		}
		ie, err := c.expr(x.Idx)
		if err != nil {
			return nil, err
		}
		idxFn := c.asVec(ie)
		base := c.rmwBase(int32(sig.Slot), mode)
		inner, err := c.store(id, mode)
		if err != nil {
			return nil, err
		}
		reg := c.newReg()
		return func(m *lmach, vv []uint64) {
			iv := idxFn(m)
			if m.err != nil {
				return
			}
			bv := base(m)
			out := m.regs[reg]
			for l := 0; l < 64; l++ {
				idx := iv[l] & 63
				bit := uint64(1) << idx
				out[l] = (bv[l] &^ bit) | ((vv[l] & 1) << idx)
			}
			inner(m, out)
		}, nil
	case *verilog.Slice:
		id, ok := x.X.(*verilog.Ident)
		if !ok {
			return nil, errUnplannable{"unsupported assignment target"}
		}
		sig := c.c.d.Signals[id.Name]
		if sig == nil {
			return nil, errUnplannable{"assignment to unknown signal " + id.Name}
		}
		hi, ok1 := c.c.constEval(x.Hi)
		lo, ok2 := c.c.constEval(x.Lo)
		if !ok1 || !ok2 {
			return nil, errUnplannable{"dynamic slice bounds in assignment target"}
		}
		if lo > hi {
			return nil, errUnplannable{"invalid slice target"}
		}
		base := c.rmwBase(int32(sig.Slot), mode)
		inner, err := c.store(id, mode)
		if err != nil {
			return nil, err
		}
		sm := maskFor(int(hi-lo)+1) << lo
		shift := uint(lo)
		reg := c.newReg()
		return func(m *lmach, vv []uint64) {
			bv := base(m)
			out := m.regs[reg]
			for l := 0; l < 64; l++ {
				out[l] = (bv[l] &^ sm) | ((vv[l] << shift) & sm)
			}
			inner(m, out)
		}, nil
	case *verilog.Concat:
		total := 0
		widths := make([]int, len(x.Elems))
		for i, el := range x.Elems {
			w, ok := c.c.staticWidth(el)
			if !ok {
				return nil, errUnplannable{"dynamic width in concat assignment target"}
			}
			widths[i] = w
			total += w
		}
		stores := make([]laneStoreFn, len(x.Elems))
		shifts := make([]uint, len(x.Elems))
		elMasks := make([]uint64, len(x.Elems))
		regs := make([]int, len(x.Elems))
		shift := total
		for i, el := range x.Elems {
			shift -= widths[i]
			st, err := c.store(el, mode)
			if err != nil {
				return nil, err
			}
			stores[i] = st
			shifts[i] = uint(shift)
			elMasks[i] = maskFor(widths[i])
			regs[i] = c.newReg()
		}
		return func(m *lmach, vv []uint64) {
			for i, st := range stores {
				out := m.regs[regs[i]]
				for l := 0; l < 64; l++ {
					out[l] = (vv[l] >> shifts[i]) & elMasks[i]
				}
				st(m, out)
				if m.err != nil {
					return
				}
			}
		}, nil
	}
	return nil, errUnplannable{fmt.Sprintf("assignment target %T (lanes)", lhs)}
}

// rmwBase returns the per-lane base values for bit/slice read-modify-write
// under the given mode, mirroring planCompiler.rmwBase's overlay threading.
func (c *laneCompiler) rmwBase(slot int32, mode writeMode) laneVecFn {
	isBit := c.lp.isBit[slot]
	expand := func(reg int) laneVecFn {
		return func(m *lmach) []uint64 {
			var w uint64
			if mode == wAssign {
				w = m.bits[slot]
			} else {
				w = m.readBit(slot)
			}
			out := m.regs[reg]
			for l := 0; l < 64; l++ {
				out[l] = (w >> uint(l)) & 1
			}
			return out
		}
	}
	switch mode {
	case wAssign:
		if isBit {
			return expand(c.newReg())
		}
		return func(m *lmach) []uint64 { return m.wide[slot] }
	case wSeqNBA:
		reg := c.newReg()
		if isBit {
			return func(m *lmach) []uint64 {
				w := m.readBit(slot)
				if m.nbaGen[slot] == m.ngen {
					w = (m.nbaBits[slot] & m.nbaWm[slot]) | (w &^ m.nbaWm[slot])
				}
				out := m.regs[reg]
				for l := 0; l < 64; l++ {
					out[l] = (w >> uint(l)) & 1
				}
				return out
			}
		}
		return func(m *lmach) []uint64 {
			rv := m.readVec(slot)
			if m.nbaGen[slot] != m.ngen {
				return rv
			}
			nv, wmBits := m.nbaWide[slot], m.nbaWm[slot]
			out := m.regs[reg]
			for l := 0; l < 64; l++ {
				if wmBits>>uint(l)&1 == 1 {
					out[l] = nv[l]
				} else {
					out[l] = rv[l]
				}
			}
			return out
		}
	default: // wComb, wSeqBlocking: blocking overlay then committed state
		if isBit {
			return expand(c.newReg())
		}
		return func(m *lmach) []uint64 { return m.readVec(slot) }
	}
}

// ---------------------------------------------------------------------------
// Expression compilation
// ---------------------------------------------------------------------------

// expr lowers an expression. Nodes whose scalar value is provably in {0,1}
// and that have a word-wide kernel compile to packed form; everything else
// compiles to a per-lane loop with the exact scalar formulas — in
// particular all arithmetic, whose carries a packed word cannot represent.
func (c *laneCompiler) expr(e verilog.Expr) (lexpr, error) {
	switch x := e.(type) {
	case *verilog.Number:
		return c.constExpr(x.Value), nil
	case *verilog.Ident:
		if sig := c.c.d.Signals[x.Name]; sig != nil {
			slot := int32(sig.Slot)
			if sig.Width == 1 {
				return lexpr{bit: func(m *lmach) uint64 { return m.readBit(slot) }}, nil
			}
			return lexpr{vec: func(m *lmach) []uint64 { return m.readVec(slot) }}, nil
		}
		if v, ok := c.c.d.Params[x.Name]; ok {
			return c.constExpr(v), nil
		}
		return lexpr{}, errUnplannable{"unknown signal " + x.Name}
	case *verilog.Unary:
		return c.unary(x)
	case *verilog.Binary:
		return c.binary(x)
	case *verilog.Ternary:
		ce, err := c.expr(x.Cond)
		if err != nil {
			return lexpr{}, err
		}
		cf := c.truth(ce)
		xe, err := c.expr(x.X)
		if err != nil {
			return lexpr{}, err
		}
		ye, err := c.expr(x.Y)
		if err != nil {
			return lexpr{}, err
		}
		if xe.bit != nil && ye.bit != nil {
			xf, yf := xe.bit, ye.bit
			return lexpr{bit: func(m *lmach) uint64 {
				cw := cf(m)
				// Arms evaluate lazily like the scalar plan when the
				// selection is uniform across lanes.
				if cw == ^uint64(0) {
					return xf(m)
				}
				if cw == 0 {
					return yf(m)
				}
				return (cw & xf(m)) | (^cw & yf(m))
			}}, nil
		}
		xf, yf := c.asVec(xe), c.asVec(ye)
		reg := c.newReg()
		return lexpr{vec: func(m *lmach) []uint64 {
			cw := cf(m)
			if cw == ^uint64(0) {
				return xf(m)
			}
			if cw == 0 {
				return yf(m)
			}
			xv := xf(m)
			yv := yf(m)
			out := m.regs[reg]
			for l := 0; l < 64; l++ {
				if cw>>uint(l)&1 == 1 {
					out[l] = xv[l]
				} else {
					out[l] = yv[l]
				}
			}
			return out
		}}, nil
	case *verilog.Index:
		xe, err := c.expr(x.X)
		if err != nil {
			return lexpr{}, err
		}
		ie, err := c.expr(x.Idx)
		if err != nil {
			return lexpr{}, err
		}
		xf, idxFn := c.asVec(xe), c.asVec(ie)
		return lexpr{bit: func(m *lmach) uint64 {
			// Base before index, matching the interpreter's order.
			v := xf(m)
			iv := idxFn(m)
			var w uint64
			for l := 0; l < 64; l++ {
				if idx := iv[l]; idx < 64 {
					w |= ((v[l] >> idx) & 1) << uint(l)
				}
			}
			return w
		}}, nil
	case *verilog.Slice:
		xe, err := c.expr(x.X)
		if err != nil {
			return lexpr{}, err
		}
		hi, ok1 := c.c.constEval(x.Hi)
		lo, ok2 := c.c.constEval(x.Lo)
		if !ok1 || !ok2 {
			return lexpr{}, errUnplannable{"dynamic slice bounds"}
		}
		if lo > hi || lo >= 64 {
			pos := x.Pos
			hiC, loC := hi, lo
			reg := c.constReg(0)
			return lexpr{vec: func(m *lmach) []uint64 {
				m.fail(evalErrf(pos, "invalid slice [%d:%d]", hiC, loC))
				return m.regs[reg]
			}}, nil
		}
		xf := c.asVec(xe)
		shift := uint(lo)
		mask := maskFor(int(hi-lo) + 1)
		if mask == 1 {
			return lexpr{bit: func(m *lmach) uint64 {
				v := xf(m)
				var w uint64
				for l := 0; l < 64; l++ {
					w |= ((v[l] >> shift) & 1) << uint(l)
				}
				return w
			}}, nil
		}
		reg := c.newReg()
		return lexpr{vec: func(m *lmach) []uint64 {
			v := xf(m)
			out := m.regs[reg]
			for l := 0; l < 64; l++ {
				out[l] = (v[l] >> shift) & mask
			}
			return out
		}}, nil
	case *verilog.Concat:
		fns := make([]laneVecFn, len(x.Elems))
		widths := make([]uint, len(x.Elems))
		elMasks := make([]uint64, len(x.Elems))
		for i, el := range x.Elems {
			w, ok := c.c.staticWidth(el)
			if !ok {
				return lexpr{}, errUnplannable{"dynamic width in concat"}
			}
			fe, err := c.expr(el)
			if err != nil {
				return lexpr{}, err
			}
			fns[i] = c.asVec(fe)
			widths[i] = uint(w)
			elMasks[i] = maskFor(w)
		}
		reg := c.newReg()
		return lexpr{vec: func(m *lmach) []uint64 {
			out := m.regs[reg]
			for l := 0; l < 64; l++ {
				out[l] = 0
			}
			for i, fn := range fns {
				v := fn(m)
				for l := 0; l < 64; l++ {
					out[l] = (out[l] << widths[i]) | (v[l] & elMasks[i])
				}
			}
			return out
		}}, nil
	case *verilog.Repl:
		n, ok := c.c.constEval(x.Count)
		if !ok {
			return lexpr{}, errUnplannable{"dynamic replication count"}
		}
		w, ok := c.c.staticWidth(x.Elem)
		if !ok {
			return lexpr{}, errUnplannable{"dynamic width in replication"}
		}
		fe, err := c.expr(x.Elem)
		if err != nil {
			return lexpr{}, err
		}
		fn := c.asVec(fe)
		mask := maskFor(w)
		uw := uint(w)
		if n > 64 {
			n = 64 // matches the interpreter's i < 64 bound
		}
		reps := int(n)
		reg := c.newReg()
		return lexpr{vec: func(m *lmach) []uint64 {
			v := fn(m)
			out := m.regs[reg]
			for l := 0; l < 64; l++ {
				ev := v[l] & mask
				var o uint64
				for i := 0; i < reps; i++ {
					o = (o << uw) | ev
				}
				out[l] = o
			}
			return out
		}}, nil
	case *verilog.Call:
		return c.call(x)
	}
	return lexpr{}, errUnplannable{fmt.Sprintf("expression %T (lanes)", e)}
}

// constExpr classifies a broadcast constant: {0,1} values pack, anything
// else becomes a prefilled vector register holding the raw scalar value.
func (c *laneCompiler) constExpr(v uint64) lexpr {
	if v <= 1 {
		var w uint64
		if v == 1 {
			w = ^uint64(0)
		}
		return lexpr{bit: func(*lmach) uint64 { return w }}
	}
	reg := c.constReg(v)
	return lexpr{vec: func(m *lmach) []uint64 { return m.regs[reg] }}
}

func (c *laneCompiler) unary(x *verilog.Unary) (lexpr, error) {
	xe, err := c.expr(x.X)
	if err != nil {
		return lexpr{}, err
	}
	w, ok := c.c.staticWidth(x.X)
	if !ok {
		return lexpr{}, errUnplannable{"dynamic operand width"}
	}
	mask := maskFor(w)
	// Packed kernels are valid only when the operand is packed AND the
	// static mask is 1: a {0,1}-valued operand with a wider static width
	// (e.g. a 1-valued parameter) must reduce over the full mask.
	if xe.bit != nil && mask == 1 {
		bf := xe.bit
		switch x.Op {
		case verilog.UnaryLogicalNot, verilog.UnaryBitNot, verilog.UnaryRedXnor:
			return lexpr{bit: func(m *lmach) uint64 { return ^bf(m) }}, nil
		case verilog.UnaryMinus, verilog.UnaryPlus, verilog.UnaryRedAnd,
			verilog.UnaryRedOr, verilog.UnaryRedXor:
			// All identities on a single bit: -(v&1)&1 == v for v in {0,1}.
			return lexpr{bit: bf}, nil
		}
	}
	xf := c.asVec(xe)
	packed := func(per func(v uint64) uint64) lexpr {
		return lexpr{bit: func(m *lmach) uint64 {
			v := xf(m)
			var w uint64
			for l := 0; l < 64; l++ {
				w |= per(v[l]) << uint(l)
			}
			return w
		}}
	}
	vec := func(per func(v uint64) uint64) lexpr {
		reg := c.newReg()
		return lexpr{vec: func(m *lmach) []uint64 {
			v := xf(m)
			out := m.regs[reg]
			for l := 0; l < 64; l++ {
				out[l] = per(v[l])
			}
			return out
		}}
	}
	switch x.Op {
	case verilog.UnaryLogicalNot:
		return packed(func(v uint64) uint64 { return boolVal(v&mask == 0) }), nil
	case verilog.UnaryBitNot:
		return vec(func(v uint64) uint64 { return ^v & mask }), nil
	case verilog.UnaryMinus:
		return vec(func(v uint64) uint64 { return -(v & mask) & mask }), nil
	case verilog.UnaryPlus:
		return vec(func(v uint64) uint64 { return v & mask }), nil
	case verilog.UnaryRedAnd:
		return packed(func(v uint64) uint64 { return boolVal(v&mask == mask) }), nil
	case verilog.UnaryRedOr:
		return packed(func(v uint64) uint64 { return boolVal(v&mask != 0) }), nil
	case verilog.UnaryRedXor:
		return packed(func(v uint64) uint64 { return uint64(bits.OnesCount64(v&mask) & 1) }), nil
	case verilog.UnaryRedXnor:
		return packed(func(v uint64) uint64 { return uint64(1 - bits.OnesCount64(v&mask)&1) }), nil
	}
	return lexpr{}, errUnplannable{"unary operator " + x.Op.String()}
}

func (c *laneCompiler) binary(x *verilog.Binary) (lexpr, error) {
	ae, err := c.expr(x.X)
	if err != nil {
		return lexpr{}, err
	}
	be, err := c.expr(x.Y)
	if err != nil {
		return lexpr{}, err
	}
	bothBit := ae.bit != nil && be.bit != nil
	switch x.Op {
	case verilog.BinLogAnd:
		af, bf := c.truth(ae), c.truth(be)
		return lexpr{bit: func(m *lmach) uint64 {
			a := af(m)
			// Short-circuit like the scalar plan when no lane needs the RHS.
			if a == 0 {
				return 0
			}
			return a & bf(m)
		}}, nil
	case verilog.BinLogOr:
		af, bf := c.truth(ae), c.truth(be)
		return lexpr{bit: func(m *lmach) uint64 {
			a := af(m)
			if a == ^uint64(0) {
				return a
			}
			return a | bf(m)
		}}, nil
	case verilog.BinAnd:
		if bothBit {
			af, bf := ae.bit, be.bit
			return lexpr{bit: func(m *lmach) uint64 { return af(m) & bf(m) }}, nil
		}
		return c.vecBin(ae, be, func(a, b uint64) uint64 { return a & b }), nil
	case verilog.BinOr:
		if bothBit {
			af, bf := ae.bit, be.bit
			return lexpr{bit: func(m *lmach) uint64 { return af(m) | bf(m) }}, nil
		}
		return c.vecBin(ae, be, func(a, b uint64) uint64 { return a | b }), nil
	case verilog.BinXor:
		if bothBit {
			af, bf := ae.bit, be.bit
			return lexpr{bit: func(m *lmach) uint64 { return af(m) ^ bf(m) }}, nil
		}
		return c.vecBin(ae, be, func(a, b uint64) uint64 { return a ^ b }), nil
	case verilog.BinXnor:
		wx, ok1 := c.c.staticWidth(x.X)
		wy, ok2 := c.c.staticWidth(x.Y)
		if !ok1 || !ok2 {
			return lexpr{}, errUnplannable{"dynamic operand width"}
		}
		mask := maskFor(max(wx, wy))
		if bothBit && mask == 1 {
			af, bf := ae.bit, be.bit
			return lexpr{bit: func(m *lmach) uint64 { return ^(af(m) ^ bf(m)) }}, nil
		}
		return c.vecBin(ae, be, func(a, b uint64) uint64 { return ^(a ^ b) & mask }), nil
	case verilog.BinEq, verilog.BinCaseEq:
		if bothBit {
			af, bf := ae.bit, be.bit
			return lexpr{bit: func(m *lmach) uint64 { return ^(af(m) ^ bf(m)) }}, nil
		}
		return c.packedCmp(ae, be, func(a, b uint64) bool { return a == b }), nil
	case verilog.BinNe, verilog.BinCaseNe:
		if bothBit {
			af, bf := ae.bit, be.bit
			return lexpr{bit: func(m *lmach) uint64 { return af(m) ^ bf(m) }}, nil
		}
		return c.packedCmp(ae, be, func(a, b uint64) bool { return a != b }), nil
	case verilog.BinLt:
		if bothBit {
			af, bf := ae.bit, be.bit
			return lexpr{bit: func(m *lmach) uint64 { return ^af(m) & bf(m) }}, nil
		}
		return c.packedCmp(ae, be, func(a, b uint64) bool { return a < b }), nil
	case verilog.BinLe:
		if bothBit {
			af, bf := ae.bit, be.bit
			return lexpr{bit: func(m *lmach) uint64 { return ^af(m) | bf(m) }}, nil
		}
		return c.packedCmp(ae, be, func(a, b uint64) bool { return a <= b }), nil
	case verilog.BinGt:
		if bothBit {
			af, bf := ae.bit, be.bit
			return lexpr{bit: func(m *lmach) uint64 { return af(m) & ^bf(m) }}, nil
		}
		return c.packedCmp(ae, be, func(a, b uint64) bool { return a > b }), nil
	case verilog.BinGe:
		if bothBit {
			af, bf := ae.bit, be.bit
			return lexpr{bit: func(m *lmach) uint64 { return af(m) | ^bf(m) }}, nil
		}
		return c.packedCmp(ae, be, func(a, b uint64) bool { return a >= b }), nil
	case verilog.BinAdd:
		// Never a packed kernel even for 1-bit operands: the scalar engine
		// computes 1+1 = 2 in 64 bits and the carry is observable through
		// enclosing comparisons, shifts and indexing.
		return c.vecBin(ae, be, func(a, b uint64) uint64 { return a + b }), nil
	case verilog.BinSub:
		return c.vecBin(ae, be, func(a, b uint64) uint64 { return a - b }), nil
	case verilog.BinMul:
		return c.vecBin(ae, be, func(a, b uint64) uint64 { return a * b }), nil
	case verilog.BinDiv:
		return c.vecBin(ae, be, func(a, b uint64) uint64 {
			if b == 0 {
				return 0 // x in 4-state Verilog; 0 under two-state
			}
			return a / b
		}), nil
	case verilog.BinMod:
		return c.vecBin(ae, be, func(a, b uint64) uint64 {
			if b == 0 {
				return 0
			}
			return a % b
		}), nil
	case verilog.BinShl:
		return c.vecBin(ae, be, func(a, b uint64) uint64 {
			if b >= 64 {
				return 0
			}
			return a << b
		}), nil
	case verilog.BinShr:
		return c.vecBin(ae, be, func(a, b uint64) uint64 {
			if b >= 64 {
				return 0
			}
			return a >> b
		}), nil
	case verilog.BinAShr:
		w, ok := c.c.staticWidth(x.X)
		if !ok {
			return lexpr{}, errUnplannable{"dynamic operand width"}
		}
		return c.vecBin(ae, be, func(a, b uint64) uint64 { return ashr(a, b, w) }), nil
	}
	return lexpr{}, errUnplannable{"binary operator " + x.Op.String()}
}

// vecBin lowers a binary operator to a per-lane loop over the exact scalar
// formula.
func (c *laneCompiler) vecBin(ae, be lexpr, op func(a, b uint64) uint64) lexpr {
	af, bf := c.asVec(ae), c.asVec(be)
	reg := c.newReg()
	return lexpr{vec: func(m *lmach) []uint64 {
		av := af(m)
		bv := bf(m)
		out := m.regs[reg]
		for l := 0; l < 64; l++ {
			out[l] = op(av[l], bv[l])
		}
		return out
	}}
}

// packedCmp lowers a comparison to per-lane evaluation packed into a word.
func (c *laneCompiler) packedCmp(ae, be lexpr, op func(a, b uint64) bool) lexpr {
	af, bf := c.asVec(ae), c.asVec(be)
	return lexpr{bit: func(m *lmach) uint64 {
		av := af(m)
		bv := bf(m)
		var w uint64
		for l := 0; l < 64; l++ {
			if op(av[l], bv[l]) {
				w |= 1 << uint(l)
			}
		}
		return w
	}}
}

func (c *laneCompiler) call(x *verilog.Call) (lexpr, error) {
	if len(x.Args) == 0 {
		return lexpr{}, errUnplannable{x.Name + " without arguments"}
	}
	arg := x.Args[0]
	switch x.Name {
	case "$countones", "$onehot", "$onehot0":
		fe, err := c.expr(arg)
		if err != nil {
			return lexpr{}, err
		}
		w, ok := c.c.staticWidth(arg)
		if !ok {
			return lexpr{}, errUnplannable{"dynamic operand width"}
		}
		mask := maskFor(w)
		fn := c.asVec(fe)
		switch x.Name {
		case "$countones":
			reg := c.newReg()
			return lexpr{vec: func(m *lmach) []uint64 {
				v := fn(m)
				out := m.regs[reg]
				for l := 0; l < 64; l++ {
					out[l] = uint64(bits.OnesCount64(v[l] & mask))
				}
				return out
			}}, nil
		case "$onehot":
			return lexpr{bit: func(m *lmach) uint64 {
				v := fn(m)
				var w uint64
				for l := 0; l < 64; l++ {
					if bits.OnesCount64(v[l]&mask) == 1 {
						w |= 1 << uint(l)
					}
				}
				return w
			}}, nil
		default:
			return lexpr{bit: func(m *lmach) uint64 {
				v := fn(m)
				var w uint64
				for l := 0; l < 64; l++ {
					if bits.OnesCount64(v[l]&mask) <= 1 {
						w |= 1 << uint(l)
					}
				}
				return w
			}}, nil
		}
	case "$isunknown":
		fe, err := c.expr(arg)
		if err != nil {
			return lexpr{}, err
		}
		// Two-state: never unknown; evaluate the argument for error effects.
		if fe.bit != nil {
			bf := fe.bit
			return lexpr{bit: func(m *lmach) uint64 { bf(m); return 0 }}, nil
		}
		vf := fe.vec
		return lexpr{bit: func(m *lmach) uint64 { vf(m); return 0 }}, nil
	case "$signed", "$unsigned":
		return c.expr(arg)
	case "$past":
		fe, err := c.expr(arg)
		if err != nil {
			return lexpr{}, err
		}
		pos := x.Pos
		depth := uint64(1)
		if len(x.Args) > 1 {
			// Per-lane history offsets cannot be batched: the sampled frame
			// swap is whole-machine. Only compile-time constant depths lane.
			d, ok := c.c.constEval(x.Args[1])
			if !ok {
				return lexpr{}, errUnplannable{"non-constant $past depth (lanes)"}
			}
			depth = d
		}
		if depth == 0 || depth > maxPastDepth {
			dc := depth
			reg := c.constReg(0)
			return lexpr{vec: func(m *lmach) []uint64 {
				m.fail(evalErrf(pos, "$past depth %d out of range [1, %d]", dc, uint64(maxPastDepth)))
				return m.regs[reg]
			}}, nil
		}
		d := int(depth)
		if fe.bit != nil {
			bf := fe.bit
			return lexpr{bit: func(m *lmach) uint64 {
				if m.rows == nil {
					m.fail(evalErrf(pos, "$past outside sampled context"))
					return 0
				}
				j := m.idx - d
				if j < 0 {
					return 0 // before start of time: sampled default (0)
				}
				return m.evalAtBit(bf, j)
			}}, nil
		}
		vf := fe.vec
		zreg := c.constReg(0)
		return lexpr{vec: func(m *lmach) []uint64 {
			if m.rows == nil {
				m.fail(evalErrf(pos, "$past outside sampled context"))
				return m.regs[zreg]
			}
			j := m.idx - d
			if j < 0 {
				return m.regs[zreg]
			}
			return m.evalAtVec(vf, j)
		}}, nil
	case "$rose", "$fell", "$stable", "$changed":
		fe, err := c.expr(arg)
		if err != nil {
			return lexpr{}, err
		}
		pos := x.Pos
		name := x.Name
		if name == "$rose" || name == "$fell" {
			bf := c.lsb(fe)
			rose := name == "$rose"
			return lexpr{bit: func(m *lmach) uint64 {
				if m.rows == nil {
					m.fail(evalErrf(pos, "%s outside sampled context", name))
					return 0
				}
				now := bf(m)
				var before uint64
				if m.idx > 0 {
					before = m.evalAtBit(bf, m.idx-1)
				}
				if rose {
					return ^before & now
				}
				return before & ^now
			}}, nil
		}
		stable := name == "$stable"
		if fe.bit != nil {
			bf := fe.bit
			return lexpr{bit: func(m *lmach) uint64 {
				if m.rows == nil {
					m.fail(evalErrf(pos, "%s outside sampled context", name))
					return 0
				}
				now := bf(m)
				var before uint64
				if m.idx > 0 {
					before = m.evalAtBit(bf, m.idx-1)
				}
				if stable {
					return ^(before ^ now)
				}
				return before ^ now
			}}, nil
		}
		vf := fe.vec
		return lexpr{bit: func(m *lmach) uint64 {
			if m.rows == nil {
				m.fail(evalErrf(pos, "%s outside sampled context", name))
				return 0
			}
			nv := vf(m)
			var w uint64
			if m.idx > 0 {
				// Evaluate the past frame first: nv aliases a register the
				// recursive evaluation would overwrite.
				bvSaved := make([]uint64, 64)
				copy(bvSaved, nv)
				bv := m.evalAtVec(vf, m.idx-1)
				for l := 0; l < 64; l++ {
					if (bvSaved[l] == bv[l]) == stable {
						w |= 1 << uint(l)
					}
				}
				return w
			}
			for l := 0; l < 64; l++ {
				if (nv[l] == 0) == stable {
					w |= 1 << uint(l)
				}
			}
			return w
		}}, nil
	}
	return lexpr{}, errUnplannable{"system function " + x.Name + " (lanes)"}
}
