// Command perfbench is the repository benchmark. It runs one workload
// against the code in the enclosing checkout and prints, as its last line,
// one JSON object with the keys correct, attempted, failed and metrics.
//
//	perfbench --workload augment_cold|judge_eval|serve_warm --seed N \
//	          --seconds S --trace 0|1 [--serve-bin PATH]
//
// With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
// with --trace 1 they are its per-layer metrics, taken from spans the
// benchmark records around its own calls into each layer. The line before
// the result is a detail record: the machine stamp, the workload's named
// figures with their sample counts, verify counters and the correctness
// checks. perfbench/run.py builds this program and cmd/serve from source
// and is the command BENCHMARK.json names.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"
)

// errColdGuard is returned when the process-wide verification service has
// seen traffic before a cold workload's timed region.
var errColdGuard = errors.New("cold guard: verify.Default() has traffic before the timed region")

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	serveBin string
	pinsPath string
	heldOut  bool // draw the input seed from the held-out pool
	// recordPins writes this run's outputs as the pins of its input seed
	// instead of checking them.
	recordPins bool
	tiny       bool // reduced scale, for the self-test only
	start      time.Time
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"` // sample count behind a timing
}

// report is what a workload hands back to main.
type report struct {
	// attempted counts the operations the run issued; failed counts those
	// that errored, were refused or returned a wrong result.
	attempted, failed int
	// setup is the wall time from process start to the first timed
	// operation (the median of repeated set-ups where a workload repeats
	// them).
	setup time.Duration
	// endToEnd holds the BENCHMARK.json end-to-end metrics, perLayer the
	// per-layer ones (traced runs only).
	endToEnd, perLayer map[string]metric
	// figures are the workload's own named figures (designs_per_s,
	// check_p99_ms, ...) with their sample counts.
	figures map[string]metric
	// checks lists the correctness checks and whether each held.
	checks []check
	// counters are informational counts (verify traffic, pins used).
	counters map[string]any
	// notes explain per-layer metrics a workload cannot measure.
	notes []string
}

type check struct {
	Name string `json:"name"`
	OK   bool   `json:"ok"`
	Info string `json:"info,omitempty"`
}

func (r *report) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{Name: name, OK: ok, Info: fmt.Sprintf(format, args...)})
}

func (r *report) correct() bool {
	for _, c := range r.checks {
		if !c.OK {
			return false
		}
	}
	return len(r.checks) > 0 && r.failed == 0
}

func newReport() *report {
	return &report{
		endToEnd: map[string]metric{},
		perLayer: map[string]metric{},
		figures:  map[string]metric{},
		counters: map[string]any{},
	}
}

func main() {
	var o options
	var traceN int
	flag.StringVar(&o.workload, "workload", "", "augment_cold, judge_eval or serve_warm")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the timed phase")
	flag.IntVar(&traceN, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.serveBin, "serve-bin", "", "path of the built cmd/serve binary (serve_warm)")
	flag.StringVar(&o.pinsPath, "pins", "perfbench/pins.json", "pinned expected outputs")
	flag.BoolVar(&o.heldOut, "heldout", false, "draw the input seed from the held-out pool")
	flag.BoolVar(&o.recordPins, "record-pins", false, "record this run's outputs as the pins of its input seed")
	flag.BoolVar(&o.tiny, "tiny", false, "reduced scale for the self-test")
	child := flag.String("augment-child", "", `internal: "run" one cold augment.Run or "setup" only its set-up, reported as a JSON line`)
	flag.Parse()
	o.trace = traceN == 1
	o.start = processStart()

	if *child != "" {
		if err := augmentChild(o, *child); err != nil {
			fatal(err)
		}
		return
	}
	rep, err := run(o)
	if err != nil {
		fatal(err)
	}
	emit(o, rep)
}

func run(o options) (*report, error) {
	switch o.workload {
	case "augment_cold":
		return runAugmentCold(o)
	case "judge_eval":
		return runJudgeEval(o)
	case "serve_warm":
		return runServeWarm(o)
	}
	return nil, fmt.Errorf("unknown workload %q", o.workload)
}

// processStart is the wall time the launcher recorded just before it
// started this process (PERFBENCH_T0, Unix nanoseconds), so set-up time
// includes exec and runtime start; without it, now.
func processStart() time.Time {
	if v := os.Getenv("PERFBENCH_T0"); v != "" {
		if ns, err := strconv.ParseInt(v, 10, 64); err == nil {
			return time.Unix(0, ns)
		}
	}
	return time.Now()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// emit prints the detail record and then the result line.
func emit(o options, r *report) {
	metrics := r.endToEnd
	if o.trace {
		metrics = r.perLayer
	} else {
		metrics["setup_s"] = metric{Value: r.setup.Seconds(), Unit: "s"}
	}
	detail := map[string]any{
		"workload": o.workload,
		"seed":     o.seed,
		"trace":    o.trace,
		"stamp":    machineStamp(),
		"figures":  r.figures,
		"counters": r.counters,
		"checks":   r.checks,
		"setup_s":  r.setup.Seconds(),
	}
	if len(r.notes) > 0 {
		detail["notes"] = r.notes
	}
	if r.attempted > 0 {
		detail["failed_ratio"] = float64(r.failed) / float64(r.attempted)
	}
	out := make(map[string]metric, len(metrics))
	for k, m := range metrics {
		out[k] = metric{Value: m.Value, Unit: m.Unit}
	}
	line(map[string]any{"perfbench": detail})
	attempted := r.attempted
	if attempted < 1 {
		attempted = 1
	}
	line(map[string]any{
		"correct":   r.correct(),
		"attempted": attempted,
		"failed":    r.failed,
		"metrics":   out,
	})
}

func line(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}
