package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/augment"
	"repro/internal/bugs"
	"repro/internal/compile"
	"repro/internal/corpus"
	"repro/internal/dataset"
	"repro/internal/formal"
	"repro/internal/sim"
	"repro/internal/sva"
	"repro/internal/verify"
	"repro/internal/verilog"
)

// augment_cold: augment.Run in fresh processes, each from an empty
// verify.Default(). The config is BenchmarkAugmentPipeline's (catalog plus
// 16 generated designs, 4 mutations per design, 6 random runs, scalar), so
// figures stay comparable with that history. Nearly all the work is cache
// misses in formal/sim/sva/compile — what every cmd/augment user pays.

// augmentPin is the pinned output of one input seed.
type augmentPin struct {
	Designs int    `json:"designs"`
	Samples int    `json:"samples"`
	SHA256  string `json:"sha256"`
}

const (
	// coldRuns is how many cold augment.Run processes one benchmark run
	// makes. A cold run takes 12-20 s on a 2-vCPU machine whose speed
	// swings in 5-10 s blocks, so the figures are medians over several.
	coldRuns = 3
	// setupProbes is how many extra processes only repeat the set-up
	// before each cold run and after the last, so setup_s, a few
	// milliseconds of process start, is a median of many samples spread
	// over the whole run rather than bunched into one slow block.
	setupProbes = 8
)

func augmentConfig(o options, seed int64) augment.Config {
	if o.tiny {
		cat := corpus.Catalog()[:3]
		return augment.Config{
			Seed:               seed,
			Source:             corpus.FuncSource("tiny", func() []*corpus.Blueprint { return cat }),
			MutationsPerDesign: 2,
			RandomRuns:         2,
		}
	}
	return augment.Config{Seed: seed, Generate: 16, MutationsPerDesign: 4, RandomRuns: 6}
}

// coldGuard refuses to go on when the process-wide verification service
// has already served anything: a warm figure must never pass as cold.
func coldGuard() error {
	m := verify.Default().Metrics()
	if m.Hits+m.Misses+m.Coalesced > 0 || m.Entries > 0 {
		return fmt.Errorf("%w (hits=%d misses=%d coalesced=%d entries=%d)",
			errColdGuard, m.Hits, m.Misses, m.Coalesced, m.Entries)
	}
	return nil
}

// augmentSetup is everything augment_cold does before its timed region.
func augmentSetup(o options) (augment.Config, pinFile, int64, error) {
	pins, err := loadPins(o.pinsPath)
	if err != nil {
		return augment.Config{}, nil, 0, err
	}
	input, err := pins.inputSeed("augment_cold", o.seed, o.heldOut)
	if err != nil {
		return augment.Config{}, nil, 0, err
	}
	if err := coldGuard(); err != nil {
		return augment.Config{}, nil, 0, err
	}
	return augmentConfig(o, input), pins, input, nil
}

// coldRun is what one cold augment.Run reports.
type coldRun struct {
	Setup     time.Duration `json:"setup_ns"`
	Run       time.Duration `json:"run_ns"`
	CPU       time.Duration `json:"cpu_ns"`
	Pin       augmentPin    `json:"pin"`
	Hits      uint64        `json:"hits"`
	Misses    uint64        `json:"misses"`
	Coalesced uint64        `json:"coalesced"`
	RSSMB     float64       `json:"rss_mb"`
}

// coldAugment sets up and runs augment.Run once in this process, which
// must not have verified anything yet.
func coldAugment(o options, tr *tracer) (coldRun, *augment.Output, error) {
	cfg, _, _, err := augmentSetup(o)
	if err != nil {
		return coldRun{}, nil, err
	}
	runtime.GC()
	t0, cpu0 := time.Now(), cpuTime()
	r := coldRun{Setup: t0.Sub(o.start)}
	var id int
	if tr != nil {
		id = tr.start("augment.Run", 0)
	}
	out, err := augment.Run(cfg)
	r.Run, r.CPU = time.Since(t0), cpuTime()-cpu0
	if tr != nil {
		tr.end(id)
	}
	if err != nil {
		return r, nil, fmt.Errorf("augment.Run: %w", err)
	}
	vm := verify.Default().Metrics()
	r.Hits, r.Misses, r.Coalesced = vm.Hits, vm.Misses, vm.Coalesced
	r.Pin = augmentPin{Designs: out.Stats.Compiled, Samples: len(out.SVABug) + len(out.SVAEvalMachine), SHA256: samplesDigest(out)}
	r.RSSMB = maxRSSMB()
	return r, out, nil
}

// augmentChild is the --augment-child process: one cold run (mode "run")
// or only its set-up (mode "setup"), reported as a JSON line.
func augmentChild(o options, mode string) error {
	if mode == "setup" {
		if _, _, _, err := augmentSetup(o); err != nil {
			return err
		}
		line(coldRun{Setup: time.Since(o.start)})
		return nil
	}
	r, _, err := coldAugment(o, nil)
	if err != nil {
		return err
	}
	line(r)
	return nil
}

// spawnCold runs one cold augment.Run (or, with mode "setup", only its
// set-up) in a fresh child process.
func spawnCold(o options, mode string) (coldRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return coldRun{}, err
	}
	args := []string{"--augment-child", mode, "--workload", o.workload,
		"--seed", strconv.FormatInt(o.seed, 10), "--pins", o.pinsPath}
	if o.heldOut {
		args = append(args, "--heldout")
	}
	if o.tiny {
		args = append(args, "--tiny")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	cmd.Env = append(os.Environ(), fmt.Sprintf("PERFBENCH_T0=%d", time.Now().UnixNano()))
	b, err := cmd.Output()
	if err != nil {
		return coldRun{}, fmt.Errorf("cold augment child: %w", err)
	}
	var r coldRun
	if err := json.Unmarshal(b, &r); err != nil {
		return coldRun{}, fmt.Errorf("cold augment child output %q: %w", b, err)
	}
	return r, nil
}

// samplesDigest hashes the emitted SVA samples in order (train, then the
// held-out machine benchmark).
func samplesDigest(out *augment.Output) string {
	h := sha256.New()
	for _, set := range [][]dataset.SVASample{out.SVABug, out.SVAEvalMachine} {
		for i := range set {
			b, _ := json.Marshal(&set[i]) // plain struct of strings, ints and bools
			h.Write(b)
			h.Write([]byte{'\n'})
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runAugmentCold makes coldRuns cold runs, each in a fresh process, with
// set-up probes between them, and reports their medians. The traced run is
// one in-process cold run followed by the layer drive.
func runAugmentCold(o options) (*report, error) {
	pins, err := loadPins(o.pinsPath)
	if err != nil {
		return nil, err
	}
	input, err := pins.inputSeed("augment_cold", o.seed, o.heldOut)
	if err != nil {
		return nil, err
	}
	rep := newReport()
	rep.counters["input_seed"] = input
	if o.trace {
		return augmentTraced(o, pins, input, rep)
	}

	var runs []coldRun
	var setups []time.Duration
	probe := func() error {
		for i := 0; i < setupProbes; i++ {
			r, err := spawnCold(o, "setup")
			if err != nil {
				return err
			}
			setups = append(setups, r.Setup)
		}
		return nil
	}
	for i := 0; i < coldRuns; i++ {
		if err := probe(); err != nil {
			return nil, err
		}
		r, err := spawnCold(o, "run")
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	if err := probe(); err != nil {
		return nil, err
	}
	if o.recordPins {
		if err := recordPin(o.pinsPath, "augment_cold", input, runs[0].Pin); err != nil {
			return nil, err
		}
		if pins, err = loadPins(o.pinsPath); err != nil {
			return nil, err
		}
	}
	var walls []time.Duration
	var tputs, rss []float64
	var verifyCounts []map[string]uint64
	for _, r := range runs {
		rep.attempted++
		if err := checkAugmentPin(pins, input, r.Pin, rep); err != nil {
			return nil, err
		}
		setups = append(setups, r.Setup)
		walls = append(walls, r.Run)
		tputs = append(tputs, float64(r.Pin.Designs)/r.Run.Seconds())
		rss = append(rss, r.RSSMB)
		verifyCounts = append(verifyCounts, map[string]uint64{"hits": r.Hits, "misses": r.Misses, "coalesced": r.Coalesced})
	}
	rep.counters["cold_runs"] = len(runs)
	rep.counters["setup_samples"] = len(setups)
	rep.counters["verify"] = verifyCounts
	rep.setup = quantileDur(setups, 0.5)
	throughput := median(tputs)
	rep.figures["designs_per_s"] = metric{Value: throughput, Unit: "designs/s", N: len(runs)}
	rep.figures["samples"] = metric{Value: float64(runs[0].Pin.Samples), Unit: "count"}
	rep.figures["run_s"] = metric{Value: quantileDur(walls, 0.5).Seconds(), Unit: "s", N: len(runs)}
	rep.figures["timed_cpu_s"] = metric{Value: runs[0].CPU.Seconds(), Unit: "s"}
	rep.endToEnd["throughput"] = metric{Value: throughput, Unit: "1/s"}
	// The operation is one whole cold run: p50 is the median run, the
	// tail the slowest.
	rep.endToEnd["p50_ms"] = metric{Value: ms(quantileDur(walls, 0.5)), Unit: "ms"}
	rep.endToEnd["tail_ms"] = metric{Value: ms(quantileDur(walls, 1)), Unit: "ms"}
	// Each cold process's peak RSS moves by a few MB with GC timing; the
	// median over them is the steady figure.
	rep.endToEnd["max_rss_mb"] = metric{Value: median(rss), Unit: "MB"}
	return rep, nil
}

// augmentTraced is augment_cold's traced run: one cold augment.Run in
// this process inside a span, then the layer drive.
func augmentTraced(o options, pins pinFile, input int64, rep *report) (*report, error) {
	tr := newTracer()
	before := readGoStats()
	r, out, err := coldAugment(o, tr)
	if err != nil {
		return nil, err
	}
	rep.attempted = 1
	if o.recordPins {
		return nil, fmt.Errorf("record pins with --trace 0")
	}
	if err := checkAugmentPin(pins, input, r.Pin, rep); err != nil {
		return nil, err
	}
	throughput := float64(r.Pin.Designs) / r.Run.Seconds()
	rep.figures["designs_per_s"] = metric{Value: throughput, Unit: "designs/s", N: 1}
	pl := rep.perLayer
	pl["trace.e2e_throughput"] = metric{Value: throughput, Unit: "1/s"}
	goLayer(pl, before)
	yield := 0.0
	if out.Stats.MutantsTried > 0 {
		yield = float64(r.Pin.Samples) / float64(out.Stats.MutantsTried)
	}
	pl["augment.sample_yield"] = metric{Value: yield, Unit: "ratio"}
	verifyCounters(pl, verify.Metrics{Hits: r.Hits, Misses: r.Misses, Coalesced: r.Coalesced})
	if err := driveLayers(o, tr, out, input, rep); err != nil {
		return nil, err
	}
	finishTrace(o, tr, rep)
	return rep, nil
}

// checkAugmentPin compares a run's output with the pin for its input
// seed.
func checkAugmentPin(pins pinFile, input int64, got augmentPin, rep *report) error {
	var want augmentPin
	ok, err := pins.expected("augment_cold", input, &want)
	if err != nil {
		return err
	}
	match := ok && want == got
	if !match {
		rep.failed++
	}
	rep.check("pinned_output", match, "seed %d: got %d designs, %d samples, sha256 %.16s; pinned %+v (found=%v)",
		input, got.Designs, got.Samples, got.SHA256, want, ok)
	return nil
}

// verifyCounters reports a verification service's traffic.
func verifyCounters(into map[string]metric, m verify.Metrics) {
	into["verify.hits"] = metric{Value: float64(m.Hits), Unit: "count"}
	into["verify.misses"] = metric{Value: float64(m.Misses), Unit: "count"}
	into["verify.coalesced"] = metric{Value: float64(m.Coalesced), Unit: "count"}
	ratio := 0.0
	if total := m.Hits + m.Misses + m.Coalesced; total > 0 {
		ratio = float64(m.Hits+m.Coalesced) / float64(total)
	}
	into["verify.hit_ratio"] = metric{Value: ratio, Unit: "ratio"}
}

// goldenUnit is one golden design (or mutant) of the layer drive.
type goldenUnit struct {
	name, src string
	depth     int
}

// driveLayers is augment_cold's traced path. augment.Run is opaque from
// outside, so the same seed's goldens and their mutants are driven through
// each layer's public entry points one call at a time: verilog.ParseSet,
// compile.Flatten/CompileSet, sim.PlanOf, formal.Check, the scalar and lane
// engines in both value domains, sva.Check/CheckLanes, bugs.Enumerate and a
// private verify service for miss-then-hit timing.
func driveLayers(o options, tr *tracer, out *augment.Output, seed int64, rep *report) error {
	ctx := context.Background()
	var goldens []goldenUnit
	for _, e := range goldenEntries(out) {
		depth := 16
		if b := corpus.ByName(e.Name); b != nil {
			depth = b.CheckDepth(16)
		}
		goldens = append(goldens, goldenUnit{e.Name, e.Code, depth})
	}
	rng := rand.New(rand.NewSource(seed))
	var formalRuns, formalAllocs, run2Allocs, run2Count uint64
	mutants, laneFallbacks := 0, 0

	check := func(u goldenUnit, parent int) (*compile.Design, *verilog.SourceSet) {
		var set *verilog.SourceSet
		var err error
		tr.do("verilog.parse", parent, func(int) { set, err = verilog.ParseSet(u.src) })
		if err != nil {
			return nil, nil
		}
		if len(set.Modules) > 1 {
			tr.do("compile.flatten", parent, func(int) { compile.Flatten(set) })
		}
		var d *compile.Design
		tr.do("compile.compile", parent, func(int) { d, _, err = compile.CompileSet(set) })
		if err != nil || d == nil {
			return nil, set
		}
		tr.do("sim.plan", parent, func(int) { sim.PlanOf(d) })
		a0 := allocObjects()
		id := tr.start("formal.check", parent)
		res, err := formal.Check(ctx, d, formal.Options{Seed: seed, Depth: u.depth, RandomRuns: 6})
		tr.end(id)
		formalAllocs += allocObjects() - a0
		if err == nil {
			formalRuns += uint64(res.Runs)
			tr.rename(id, "formal."+strategyName(res.Strategy))
		}
		return d, set
	}

	engines := []struct {
		mode   sim.Mode
		suffix string
	}{{sim.TwoState, "2"}, {sim.FourState, "4"}}
	for _, g := range goldens {
		gs := tr.start("golden", 0)
		d, set := check(g, gs)
		if d == nil {
			tr.end(gs)
			continue
		}
		stims := randomStimuli(d, g.depth, 64, rng)
		for _, e := range engines {
			mode := e.mode
			a0 := allocObjects()
			id := tr.start("sim.run"+e.suffix, gs)
			trc, err := sim.RunVecCtx(ctx, d, stims[0], mode)
			tr.end(id)
			if mode == sim.TwoState {
				run2Allocs += allocObjects() - a0
				run2Count++
			}
			if err == nil {
				tr.do("sva.check", gs, func(int) { _, _ = sva.Check(trc) })
			}
			ls, err := sim.PackStimuli(stims)
			if err != nil {
				laneFallbacks++
				continue
			}
			var lt *sim.LaneTrace
			tr.do("sim.lanes"+e.suffix, gs, func(int) { lt, err = sim.RunLanesCtx(ctx, d, ls, mode) })
			if err != nil {
				laneFallbacks++
				continue
			}
			tr.do("sva.check_lanes", gs, func(int) {
				if _, err := sva.CheckLanes(lt); err != nil {
					laneFallbacks++
				}
			})
		}

		top, err := set.Top()
		if err != nil {
			tr.end(gs)
			continue
		}
		var muts []bugs.Mutation
		tr.do("bugs.enumerate", gs, func(int) { muts = bugs.Enumerate(top, augmentConfig(o, seed).MutationsPerDesign) })
		for _, m := range muts {
			mutants++
			ms := tr.start("mutant", gs)
			check(goldenUnit{g.name, withTop(set, top, m.Mutant), g.depth}, ms)
			tr.end(ms)
		}
		tr.end(gs)
	}

	srcs := make([]string, len(goldens))
	for i, g := range goldens {
		srcs[i] = g.src
	}
	verifyMissHit(tr, rep.perLayer, srcs, func(i int) verify.Options {
		return verify.Options{Seed: seed, Depth: goldens[i].depth, RandomRuns: 6}
	})

	st := tr.stats()
	pl := rep.perLayer
	meanUS := func(name string) float64 { return us(statOf(st, name).mean()) }
	meanMS := func(name string) float64 { return ms(statOf(st, name).mean()) }
	pl["verilog.parse_us"] = metric{Value: meanUS("verilog.parse"), Unit: "us"}
	pl["verilog.parse_calls"] = metric{Value: float64(statOf(st, "verilog.parse").Count), Unit: "count"}
	pl["compile.compile_us"] = metric{Value: meanUS("compile.compile"), Unit: "us"}
	pl["compile.flatten_us"] = metric{Value: meanUS("compile.flatten"), Unit: "us"}
	pl["compile.calls"] = metric{Value: float64(statOf(st, "compile.compile").Count), Unit: "count"}
	pl["sim.plan_us"] = metric{Value: meanUS("sim.plan"), Unit: "us"}
	pl["sim.run2_us"] = metric{Value: meanUS("sim.run2"), Unit: "us"}
	pl["sim.run4_us"] = metric{Value: meanUS("sim.run4"), Unit: "us"}
	pl["sim.lanes2_us"] = metric{Value: meanUS("sim.lanes2"), Unit: "us"}
	pl["sim.lanes4_us"] = metric{Value: meanUS("sim.lanes4"), Unit: "us"}
	pl["sim.run2_allocs"] = metric{Value: perRun(run2Allocs, run2Count), Unit: "count"}
	pl["sva.check_us"] = metric{Value: meanUS("sva.check"), Unit: "us"}
	pl["sva.check_lanes_us"] = metric{Value: meanUS("sva.check_lanes"), Unit: "us"}
	pl["formal.exhaustive_ms"] = metric{Value: meanMS("formal.exhaustive"), Unit: "ms"}
	pl["formal.directed_random_ms"] = metric{Value: meanMS("formal.directed_random"), Unit: "ms"}
	pl["formal.directed_const_random_ms"] = metric{Value: meanMS("formal.directed_const_random"), Unit: "ms"}
	pl["formal.runs"] = metric{Value: float64(formalRuns), Unit: "count"}
	pl["formal.allocs_per_run"] = metric{Value: perRun(formalAllocs, formalRuns), Unit: "count"}
	pl["bugs.enumerate_us"] = metric{Value: meanUS("bugs.enumerate"), Unit: "us"}
	pl["bugs.mutants"] = metric{Value: float64(mutants), Unit: "count"}
	rep.counters["lane_fallbacks"] = laneFallbacks
	rep.notes = append(rep.notes,
		"verify.hits/misses/coalesced are verify.Default()'s traffic during augment.Run; verify.hit_us/miss_ms time a private verify.New over the goldens",
		"verify.disk_*, model.*, eval.* and serve.* are 0: augment_cold has no disk store, model, judge or server")
	return nil
}

// goldenEntries returns the Verilog-PT entries of the golden designs:
// compiling entries that are not defective-corpus text.
func goldenEntries(out *augment.Output) []dataset.PTEntry {
	defective := map[string]bool{}
	for _, e := range corpus.DefectiveCorpus() {
		defective[e.Name] = true
	}
	var gs []dataset.PTEntry
	for _, e := range out.VerilogPT {
		if e.Compiles && !defective[e.Name] {
			gs = append(gs, e)
		}
	}
	return gs
}

// withTop prints set with top replaced by m.
func withTop(set *verilog.SourceSet, top, m *verilog.Module) string {
	if len(set.Modules) == 1 {
		return verilog.Print(m)
	}
	mods := make([]*verilog.Module, len(set.Modules))
	for i, x := range set.Modules {
		if x == top {
			x = m
		}
		mods[i] = x
	}
	return verilog.PrintSet(&verilog.SourceSet{Modules: mods})
}

// strategyName turns a formal.Result strategy into a metric-name segment.
func strategyName(s string) string {
	switch s {
	case "exhaustive-sequences":
		return "exhaustive"
	case "directed+random":
		return "directed_random"
	case "directed+const+random":
		return "directed_const_random"
	}
	return strings.NewReplacer("+", "_", "-", "_").Replace(s)
}

// randomStimuli draws n random input sequences of the given depth over the
// design's inputs other than its clock (reset included).
func randomStimuli(d *compile.Design, depth, n int, rng *rand.Rand) []sim.VecStimulus {
	clk := d.ClockName()
	var ins []*compile.Signal
	for _, s := range d.Inputs(false) {
		if s.Name != clk {
			ins = append(ins, s)
		}
	}
	out := make([]sim.VecStimulus, n)
	for i := range out {
		rows := make([][]uint64, depth)
		for c := range rows {
			row := make([]uint64, len(ins))
			for j, s := range ins {
				row[j] = rng.Uint64() & s.Mask()
			}
			rows[c] = row
		}
		out[i] = sim.VecStimulus{Inputs: ins, Rows: rows}
	}
	return out
}

func statOf(st map[string]*layerStat, name string) layerStat {
	if s := st[name]; s != nil {
		return *s
	}
	return layerStat{}
}

func perRun(total, runs uint64) float64 {
	if runs == 0 {
		return 0
	}
	return float64(total) / float64(runs)
}

// finishTrace fills every per-layer metric the workload did not measure
// with 0, records the span count and writes the spans out.
func finishTrace(o options, tr *tracer, rep *report) {
	for _, name := range perLayerNames {
		if _, ok := rep.perLayer[name.name]; !ok {
			rep.perLayer[name.name] = metric{Value: 0, Unit: name.unit}
		}
	}
	file := fmt.Sprintf("%s-seed%d.json", o.workload, o.seed)
	dir := traceDir()
	if err := tr.write(dir, file); err != nil {
		rep.notes = append(rep.notes, "trace not written: "+err.Error())
	} else {
		rep.counters["trace_file"] = dir + "/" + file
	}
	rep.counters["spans"] = len(tr.spans)
}

func traceDir() string {
	if d := os.Getenv("PERFBENCH_OUT"); d != "" {
		return d
	}
	return ".bench_build/traces"
}
