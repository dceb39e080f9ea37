package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/augment"
	"repro/internal/corpus"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/llm"
	"repro/internal/model"
	"repro/internal/verify"
)

// judge_eval: the paper's evaluation. Set-up builds a reduced Table IV
// fixture (augment.Run at seed 1 with 4 mutations per design and 6 random
// runs, the human benchmark, then Pretrain/SFT/DPO). The timed part is one
// pass of eval.Evaluate for AssertSolver and the six llm.Counterparts over
// SVA-Eval-Machine ∪ SVA-Eval-Human at n=20, temperature 0.2, judged by a
// fresh verify.New service. model and eval do work only here, and verify's
// read path (hits and coalescing) carries most judge requests. model.Solve
// re-ranks its candidates through verify.Default(); a pass sends it more
// distinct candidates than its two generations hold, so it misses the same
// way on every pass (11,614 misses and 287 hits in each of two back-to-back
// passes), and one pass is the unit of work. The benchmark goes case by
// case, every solver on a case before the next; cmd/bench goes solver by
// solver. The work and the outputs are the same.

const (
	judgeN    = 20
	judgeTemp = 0.2
	judgeRuns = 10 // the judge's verification effort, as cmd/bench
)

type judgeFixture struct {
	bench   []dataset.SVASample
	solvers []eval.Solver
	n       int
}

func buildJudgeFixture(o options) (*judgeFixture, error) {
	cfg := augment.Config{Seed: 1, MutationsPerDesign: 4, RandomRuns: 6}
	n := judgeN
	if o.tiny {
		cat := corpus.Catalog()[:4]
		cfg.Source = corpus.FuncSource("tiny", func() []*corpus.Blueprint { return cat })
		cfg.RandomRuns = 2
		n = 4
	}
	out, err := augment.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("fixture augment.Run: %w", err)
	}
	bench := append([]dataset.SVASample(nil), out.SVAEvalMachine...)
	if !o.tiny {
		human, err := augment.BuildHumanEval(cfg)
		if err != nil {
			return nil, fmt.Errorf("fixture human benchmark: %w", err)
		}
		bench = append(bench, human...)
	} else {
		bench = append(bench, out.SVABug[:min(3, len(out.SVABug))]...)
	}
	solver := model.New()
	solver.Pretrain(out.VerilogPT)
	solver.SFT(out.SVABug, out.VerilogBug)
	solver.DPO(out.SVABug, judgeN, judgeTemp, 0.1, 1*7+3)
	solvers := []eval.Solver{solver}
	for _, c := range llm.Counterparts() {
		solvers = append(solvers, c)
	}
	if o.tiny {
		solvers = solvers[:2]
	}
	return &judgeFixture{bench: bench, solvers: solvers, n: n}, nil
}

func runJudgeEval(o options) (*report, error) {
	pins, err := loadPins(o.pinsPath)
	if err != nil {
		return nil, err
	}
	input, err := pins.inputSeed("judge_eval", o.seed, o.heldOut)
	if err != nil {
		return nil, err
	}
	fx, err := buildJudgeFixture(o)
	if err != nil {
		return nil, err
	}
	rep := newReport()
	rep.counters["input_seed"] = input
	rep.counters["cases"] = len(fx.bench)
	rep.counters["solvers"] = len(fx.solvers)
	var tr *tracer
	var before goStats
	if o.trace {
		tr = newTracer()
		before = readGoStats()
	}

	var want map[string][]int
	havePins, err := pins.expected("judge_eval", input, &want)
	if err != nil {
		return nil, err
	}
	// The pass is eval.Evaluate of every solver over the benchmark, one
	// case at a time so each case's latency is seen, with eval.Evaluate's
	// per-case rng seeds. It goes case by case, every solver on a case
	// before the next case, so each solver's cases are spread over the
	// whole pass rather than one stretch of it: the machine's speed drifts
	// within seconds. The pass takes longer than --seconds, which does not
	// change it.
	got := make([][]int, len(fx.solvers))
	var lat []time.Duration
	responses, mismatched := 0, 0
	svc := verify.New(0)
	judge := eval.NewJudgeWith(svc, judgeRuns)
	runtime.GC()
	d0 := verify.Default().Metrics()
	t0, cpu0 := time.Now(), cpuTime()
	rep.setup = t0.Sub(o.start)
	var asLat []time.Duration // AssertSolver's (fx.solvers[0]) cases
	for si := range fx.solvers {
		got[si] = make([]int, len(fx.bench))
	}
	for i := range fx.bench {
		for si, s := range fx.solvers {
			seed := input + int64(i)*7919 // eval.Evaluate's rng seed for case i
			ts := time.Now()
			var n int
			if tr != nil {
				n = evaluateCaseTraced(tr, s, &fx.bench[i], judge, fx.n, seed)
			} else {
				n = eval.Evaluate(s, fx.bench[i:i+1], judge, fx.n, judgeTemp, seed)[0].C
			}
			lat = append(lat, time.Since(ts))
			if si == 0 {
				asLat = append(asLat, lat[len(lat)-1])
			}
			responses += fx.n
			rep.attempted++
			got[si][i] = n
			if !o.recordPins && (!havePins || i >= len(want[s.Name()]) || want[s.Name()][i] != n) {
				mismatched++
			}
		}
	}
	elapsed := time.Since(t0)
	jm := svc.Metrics()
	rep.failed += mismatched
	rep.figures["timed_cpu_s"] = metric{Value: (cpuTime() - cpu0).Seconds(), Unit: "s"}
	rep.counters["judge_verify"] = map[string]uint64{"hits": jm.Hits, "misses": jm.Misses, "coalesced": jm.Coalesced}
	d1 := verify.Default().Metrics()
	rep.counters["default_verify"] = map[string]uint64{"hits": d1.Hits - d0.Hits, "misses": d1.Misses - d0.Misses, "coalesced": d1.Coalesced - d0.Coalesced}

	counts := map[string][]int{}
	for si, s := range fx.solvers {
		counts[s.Name()] = got[si]
	}
	if o.recordPins {
		rep.check("pinned_counts", true, "recorded")
		if err := recordPin(o.pinsPath, "judge_eval", input, counts); err != nil {
			return nil, err
		}
		want, havePins = counts, true
	} else {
		rep.check("pinned_counts", havePins && mismatched == 0,
			"seed %d: %d of %d judged cases differ from their pinned effective-response count (found=%v)",
			input, mismatched, rep.attempted, havePins)
	}
	// Every judged case reproduced its pinned count, so each solver's
	// pass@1 and pass@5 are the pinned ones.
	for _, s := range fx.solvers {
		res := make([]eval.CaseResult, len(want[s.Name()]))
		for i, c := range want[s.Name()] {
			res[i] = eval.CaseResult{N: fx.n, C: c}
		}
		rep.figures["pass_at_1."+s.Name()] = metric{Value: eval.MeanPassAtK(res, 1), Unit: "ratio", N: len(res)}
		rep.figures["pass_at_5."+s.Name()] = metric{Value: eval.MeanPassAtK(res, 5), Unit: "ratio", N: len(res)}
	}

	throughput := float64(responses) / elapsed.Seconds()
	p50, p90 := quantileDur(lat, 0.5), quantileDur(lat, 0.9)

	rep.figures["responses_per_s"] = metric{Value: throughput, Unit: "responses/s", N: responses}
	rep.figures["case_p50_ms"] = metric{Value: ms(p50), Unit: "ms", N: len(lat)}
	rep.figures["case_p90_ms"] = metric{Value: ms(p90), Unit: "ms", N: len(lat)}
	asP50, asP80 := quantileDur(asLat, 0.5), quantileDur(asLat, 0.8)
	rep.figures["assertsolver_case_p50_ms"] = metric{Value: ms(asP50), Unit: "ms", N: len(asLat)}
	rep.figures["assertsolver_case_p80_ms"] = metric{Value: ms(asP80), Unit: "ms", N: len(asLat)}

	if tr != nil {
		pl := rep.perLayer
		pl["trace.e2e_throughput"] = metric{Value: throughput, Unit: "1/s"}
		goLayer(pl, before)
		verifyCounters(pl, jm)
		st := tr.stats()
		pl["model.solve_ms"] = metric{Value: ms(statOf(st, "model.solve").mean()), Unit: "ms"}
		pl["eval.judge_us"] = metric{Value: us(statOf(st, "eval.judge").mean()), Unit: "us"}
		pl["eval.judge_hit_ratio"] = pl["verify.hit_ratio"]
		srcs := make([]string, 0, 20)
		depths := make([]int, 0, 20)
		for i := 0; i < len(fx.bench) && i < 20; i++ {
			srcs = append(srcs, fx.bench[i].GoldenCode)
			depths = append(depths, fx.bench[i].CheckDepth)
		}
		verifyMissHit(tr, pl, srcs, func(i int) verify.Options {
			return verify.Options{Seed: 7, Depth: depths[i], RandomRuns: judgeRuns}
		})
		rep.notes = append(rep.notes,
			"verify.hits/misses/coalesced/hit_ratio are the judge service's traffic; verify.hit_us/miss_ms time a private verify.New over 20 golden designs",
			"verilog.*, compile.*, sim.*, sva.*, formal.* and bugs.* run inside verify here and are measured on augment_cold; verify.disk_* and serve.* are 0: no disk store or server")
		finishTrace(o, tr, rep)
		return rep, nil
	}
	rep.endToEnd["throughput"] = metric{Value: throughput, Unit: "1/s"}
	// The end-to-end latencies are AssertSolver's, the tool a user asks to
	// fix a failure; the counterparts are baselines. Over all solvers the
	// median case is a light counterpart's, whose latency swung about
	// twice as far as throughput with the machine's speed, enough to push
	// its ten-run spread past the bound; those percentiles stay in the
	// detail record. The tail is p80, the highest with ten of the 61 cases
	// beyond it.
	rep.endToEnd["p50_ms"] = metric{Value: ms(asP50), Unit: "ms"}
	rep.endToEnd["tail_ms"] = metric{Value: ms(asP80), Unit: "ms"}
	rep.endToEnd["max_rss_mb"] = metric{Value: maxRSSMB(), Unit: "MB"}
	return rep, nil
}

// evaluateCaseTraced is eval.Evaluate for one case, spelled out so the
// solver call and each judge call get their own span: the same rng, the
// same Solve and the same concurrent Solves calls.
func evaluateCaseTraced(tr *tracer, s eval.Solver, c *dataset.SVASample, judge *eval.Judge, n int, seed int64) int {
	cs := tr.start("eval.case", 0)
	defer tr.end(cs)
	rng := rand.New(rand.NewSource(seed))
	var resp []model.Response
	tr.do("model.solve", cs, func(int) { resp = s.Solve(model.ProblemOf(c), n, judgeTemp, rng) })
	var count atomic.Int64
	var wg sync.WaitGroup
	for _, r := range resp {
		wg.Add(1)
		go func(r model.Response) {
			defer wg.Done()
			id := tr.start("eval.judge", cs)
			ok := judge.Solves(c, r)
			tr.end(id)
			if ok {
				count.Add(1)
			}
		}(r)
	}
	wg.Wait()
	return int(count.Load())
}

// verifyMissHit times each source's first check (a miss) and its repeat
// (a hit) on a private verification service.
func verifyMissHit(tr *tracer, into map[string]metric, srcs []string, opts func(int) verify.Options) {
	ctx := context.Background()
	svc := verify.New(0)
	for i, src := range srcs {
		tr.do("verify.miss", 0, func(int) { _, _ = svc.CheckRecord(ctx, src, nil, opts(i)) })
		tr.do("verify.hit", 0, func(int) { _, _ = svc.CheckRecord(ctx, src, nil, opts(i)) })
	}
	st := tr.stats()
	into["verify.hit_us"] = metric{Value: us(statOf(st, "verify.hit").mean()), Unit: "us"}
	into["verify.miss_ms"] = metric{Value: ms(statOf(st, "verify.miss").mean()), Unit: "ms"}
}
