package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/bugs"
	"repro/internal/compile"
	"repro/internal/corpus"
	"repro/internal/sim"
	"repro/internal/sva"
	"repro/internal/verify"
)

// serve_warm: the built cmd/serve binary with -rate 0 and a -store on a
// fresh directory. Set-up sends every unique /check once (record_only)
// over the catalog goldens and their bugs.Enumerate mutants, restarts the
// server on the same store and reads every record back once, so the timed
// phase is warm. The timed part has two phases, each with two closed-loop
// clients. The /check replay, the end-to-end figures, replays that
// golden-corpus request set (ROADMAP's "cmd/serve QPS and p50/p99 at
// saturation"). The /stimulus phase drives random rows on a few catalog
// designs through the lane batcher; its figures are reported on their own
// and carry no weight in the end-to-end ones. Formal does almost no work
// here; HTTP/JSON, admission, the tiered/disk store and the batcher do.

const (
	serveClients = 2 // closed-loop clients, no more than nproc
	serveMutants = 3 // bugs.Enumerate limit per catalog design
	// checkShare is the part of --seconds given to the /check replay; the
	// /stimulus phase has the rest.
	checkShare       = 0.8
	stimulusDesigns  = 4  // catalog designs the /stimulus requests drive
	stimuliPerDesign = 32 // distinct random stimuli per design
	// stimulusBlock is how many consecutive /stimulus requests each client
	// sends on one design before both move to the next, so the clients'
	// stimuli meet in one batch group.
	stimulusBlock = 64
	// The formal effort of each /check. Only set-up computes checks, so a
	// small exhaustive budget keeps set-up short without changing what the
	// timed phase does.
	checkRandomRuns     = 6
	checkExhaustiveBits = 10
	checkConstBits      = 6
	tinyChecks          = 12 // /check keys at self-test scale
	readyTimeout        = 30 * time.Second
	stopTimeout         = 20 * time.Second
)

// checkBody is the POST /check payload (cmd/serve's checkRequest).
type checkBody struct {
	Source     string       `json:"source"`
	RecordOnly bool         `json:"record_only"`
	Options    checkOptBody `json:"options"`
}

type checkOptBody struct {
	Seed              int64 `json:"seed,omitempty"`
	Depth             int   `json:"depth,omitempty"`
	RandomRuns        int   `json:"random_runs,omitempty"`
	MaxExhaustiveBits int   `json:"max_exhaustive_bits,omitempty"`
	MaxConstBits      int   `json:"max_const_bits,omitempty"`
}

func (c checkOptBody) verify() verify.Options {
	return verify.Options{Seed: c.Seed, Depth: c.Depth, RandomRuns: c.RandomRuns,
		MaxExhaustiveBits: c.MaxExhaustiveBits, MaxConstBits: c.MaxConstBits}
}

// stimulusBody is the POST /stimulus payload.
type stimulusBody struct {
	Source string     `json:"source"`
	Rows   [][]uint64 `json:"rows"`
}

// outcome is the part of a reply the benchmark checks.
type outcome struct {
	Status        string   `json:"status,omitempty"`
	Pass          bool     `json:"pass,omitempty"`
	FailedAsserts []string `json:"failed_asserts,omitempty"`
}

// request is one pre-encoded request with its expected outcome.
type request struct {
	path string
	body []byte
	want outcome
}

// servePin is the pinned digest of the reference outcomes of one seed.
type servePin struct {
	Checks  int    `json:"checks"`
	Stimuli int    `json:"stimuli"`
	SHA256  string `json:"sha256"`
}

// buildServeRequests computes every request of the run and its reference
// outcome in-process (verify.New for /check, sim and sva for /stimulus).
// The stimuli are grouped by design.
func buildServeRequests(o options, seed int64) (checks []request, stims [][]request, recs []verify.Record, err error) {
	ctx := context.Background()
	ref := verify.New(0)
	type job struct {
		src  string
		opts checkOptBody
	}
	var jobs []job
	seen := map[string]bool{}
	add := func(src string, depth int) {
		if !seen[src] {
			seen[src] = true
			jobs = append(jobs, job{src, checkOptBody{Seed: 1, Depth: depth, RandomRuns: checkRandomRuns,
				MaxExhaustiveBits: checkExhaustiveBits, MaxConstBits: checkConstBits}})
		}
	}
	cat := corpus.Catalog()
	for _, b := range cat {
		add(b.Source(), b.CheckDepth(16))
		for _, m := range bugs.Enumerate(b.Module, serveMutants) {
			add(b.SourceWith(m.Mutant), b.CheckDepth(16))
		}
	}
	if o.tiny {
		jobs = jobs[:tinyChecks]
	}
	recs = make([]verify.Record, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < serveClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				recs[i], errs[i] = ref.CheckRecord(ctx, jobs[i].src, nil, jobs[i].opts.verify())
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, j := range jobs {
		if errs[i] != nil {
			return nil, nil, nil, fmt.Errorf("reference check: %w", errs[i])
		}
		body, err := json.Marshal(checkBody{Source: j.src, RecordOnly: true, Options: j.opts})
		if err != nil {
			return nil, nil, nil, err
		}
		checks = append(checks, request{"/check", body, outcome{Status: recs[i].Status.String(), FailedAsserts: recs[i].FailedAsserts}})
	}

	rng := rand.New(rand.NewSource(seed))
	picked := 0
	for _, b := range cat {
		if picked == stimulusDesigns {
			break
		}
		src := b.Source()
		d, diags, err := compile.Compile(src)
		if err != nil || compile.HasErrors(diags) || d.MultiClock() || len(d.Inputs(true)) == 0 {
			continue
		}
		picked++
		ins := d.Inputs(true) // cmd/serve's default columns: data inputs
		depth := b.CheckDepth(16)
		var group []request
		for k := 0; k < stimuliPerDesign; k++ {
			rows := make([][]uint64, depth)
			for c := range rows {
				rows[c] = make([]uint64, len(ins))
				for j, s := range ins {
					rows[c][j] = rng.Uint64() & s.Mask()
				}
			}
			want, err := stimulusReference(ctx, d, sim.VecStimulus{Inputs: ins, Rows: rows})
			if err != nil {
				return nil, nil, nil, err
			}
			body, err := json.Marshal(stimulusBody{Source: src, Rows: rows})
			if err != nil {
				return nil, nil, nil, err
			}
			group = append(group, request{"/stimulus", body, want})
		}
		stims = append(stims, group)
	}
	if len(stims) == 0 {
		return nil, nil, nil, fmt.Errorf("no catalog design takes /stimulus requests")
	}
	return checks, stims, recs, nil
}

// stimulusReference runs one stimulus on the scalar engine, the semantic
// reference the server's lane batches must agree with.
func stimulusReference(ctx context.Context, d *compile.Design, st sim.VecStimulus) (outcome, error) {
	tr, err := sim.RunVecCtx(ctx, d, st, sim.TwoState)
	if err != nil {
		return outcome{}, fmt.Errorf("stimulus reference: %w", err)
	}
	res, err := sva.Check(tr)
	if err != nil {
		return outcome{}, fmt.Errorf("stimulus reference: %w", err)
	}
	out := outcome{Pass: !res.Failed()}
	for _, f := range res.Failures {
		dup := false
		for _, n := range out.FailedAsserts {
			dup = dup || n == f.Assert.Name
		}
		if !dup {
			out.FailedAsserts = append(out.FailedAsserts, f.Assert.Name)
		}
	}
	return out, nil
}

// referenceDigest hashes the expected outcomes in order.
func referenceDigest(checks []request, stims [][]request) string {
	h := sha256.New()
	for _, set := range append([][]request{checks}, stims...) {
		for _, r := range set {
			b, _ := json.Marshal(r.want) // strings and bools only
			h.Write(b)
			h.Write([]byte{'\n'})
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// server is one running cmd/serve process.
type server struct {
	cmd  *exec.Cmd
	base string
	done chan struct{}
}

func startServer(bin, store string) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	// The lane cap equals the client count: a batch group fills when every
	// client has a stimulus queued for its design and runs at once, instead
	// of waiting out the batching window.
	cmd := exec.Command(bin, "-addr", addr, "-rate", "0", "-store", store,
		"-lanes", strconv.Itoa(serveClients))
	cmd.Stdout = io.Discard
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	go func() { _ = cmd.Wait(); close(s.done) }()
	deadline := time.Now().Add(readyTimeout)
	for time.Now().Before(deadline) {
		select {
		case <-s.done:
			return nil, fmt.Errorf("server exited during start-up")
		default:
		}
		if resp, err := http.Get(s.base + "/metrics"); err == nil {
			resp.Body.Close()
			return s, nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	s.stop()
	return nil, fmt.Errorf("server not ready after %v", readyTimeout)
}

// stop shuts the server down gracefully (it flushes its store) and waits
// for it to exit, killing it if it does not.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(stopTimeout):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// peakRSSMB reads the server's peak resident set size.
func (s *server) peakRSSMB() float64 {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// serverMetrics is the part of GET /metrics the benchmark reads.
type serverMetrics struct {
	Verify verify.Metrics `json:"verify"`
	Server struct {
		RejectedQueue  uint64 `json:"rejected_queue"`
		RejectedRate   uint64 `json:"rejected_rate"`
		BatchedRuns    uint64 `json:"batched_runs"`
		BatchedStimuli uint64 `json:"batched_stimuli"`
		ScalarRuns     uint64 `json:"scalar_runs"`
	} `json:"server"`
}

func (s *server) metrics(c *http.Client) (serverMetrics, error) {
	var m serverMetrics
	resp, err := c.Get(s.base + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// do sends one request and checks the reply against its reference.
func do(c *http.Client, base string, r request) error {
	resp, err := c.Post(base+r.path, "application/json", bytes.NewReader(r.body))
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d: %.200s", r.path, resp.StatusCode, body)
	}
	var got outcome
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("%s: %w", r.path, err)
	}
	if !reflect.DeepEqual(got, r.want) {
		return fmt.Errorf("%s: got %+v, want %+v", r.path, got, r.want)
	}
	return nil
}

// sendAll sends every request once from serveClients clients and returns
// how many failed.
func sendAll(c *http.Client, base string, reqs []request) (int, error) {
	var mu sync.Mutex
	failed := 0
	var firstErr error
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < serveClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := do(c, base, reqs[i]); err != nil {
					mu.Lock()
					failed++
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for i := range reqs {
		next <- i
	}
	close(next)
	wg.Wait()
	return failed, firstErr
}

func newClient() *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: serveClients, DisableCompression: true},
	}
}

func runServeWarm(o options) (*report, error) {
	if o.serveBin == "" {
		return nil, fmt.Errorf("serve_warm needs --serve-bin")
	}
	pins, err := loadPins(o.pinsPath)
	if err != nil {
		return nil, err
	}
	input, err := pins.inputSeed("serve_warm", o.seed, o.heldOut)
	if err != nil {
		return nil, err
	}
	rep := newReport()
	rep.counters["input_seed"] = input
	checks, stims, recs, err := buildServeRequests(o, input)
	if err != nil {
		return nil, err
	}
	nStims := 0
	for _, g := range stims {
		nStims += len(g)
	}
	rep.counters["checks"] = len(checks)
	rep.counters["stimuli"] = nStims
	got := servePin{Checks: len(checks), Stimuli: nStims, SHA256: referenceDigest(checks, stims)}
	if err := checkServePin(o, pins, input, got, rep); err != nil {
		return nil, err
	}

	tmp := os.Getenv("TMPDIR")
	if tmp == "" {
		tmp = ".bench_build/tmp"
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	store, err := os.MkdirTemp(tmp, "serve-store-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(store)
	client := newClient()
	defer client.CloseIdleConnections()

	// Cold pass: every unique /check once, then a restart on the same store.
	srv, err := startServer(o.serveBin, store)
	if err != nil {
		return nil, err
	}
	coldFailed, coldErr := sendAll(client, srv.base, checks)
	srv.stop()
	client.CloseIdleConnections()
	rep.check("cold_pass", coldFailed == 0, "%d of %d /check replies wrong: %v", coldFailed, len(checks), coldErr)
	rep.failed += coldFailed

	tRestart := time.Now()
	srv, err = startServer(o.serveBin, store)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	restart := time.Since(tRestart)
	warmFailed, warmErr := sendAll(client, srv.base, checks)
	rep.check("restart_pass", warmFailed == 0, "%d of %d /check replies wrong after restart: %v", warmFailed, len(checks), warmErr)
	rep.failed += warmFailed
	rep.figures["restart_ms"] = metric{Value: ms(restart), Unit: "ms", N: 1}

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	timed := time.Duration(o.seconds * float64(time.Second))
	chk := replay(tr, "serve.check", client, srv.base, time.Duration(checkShare*float64(timed)), input,
		func(_ int, rng *rand.Rand) request { return checks[rng.Intn(len(checks))] })
	rep.setup = chk.start.Sub(o.start)
	before, err := srv.metrics(client)
	if err != nil {
		return nil, fmt.Errorf("GET /metrics: %w", err)
	}
	// Both clients walk the designs in the same order, stimulusBlock
	// requests on each, so their stimuli meet in the same batch group.
	stim := replay(tr, "serve.stimulus", client, srv.base, timed-chk.elapsed, input+(1<<20),
		func(step int, rng *rand.Rand) request {
			g := stims[(step/stimulusBlock)%len(stims)]
			return g[rng.Intn(len(g))]
		})
	sm, err := srv.metrics(client)
	if err != nil {
		return nil, fmt.Errorf("GET /metrics: %w", err)
	}
	for _, ph := range []phaseResult{chk, stim} {
		rep.attempted += ph.attempted
		rep.failed += ph.failed
	}
	rep.check("check_replay", chk.failed == 0, "%d of %d /check replies wrong: %v", chk.failed, chk.attempted, chk.firstErr)
	rep.check("stimulus_phase", stim.failed == 0, "%d of %d /stimulus replies wrong: %v", stim.failed, stim.attempted, stim.firstErr)
	rep.counters["verify"] = map[string]uint64{"hits": sm.Verify.Hits, "misses": sm.Verify.Misses,
		"coalesced": sm.Verify.Coalesced, "disk_hits": sm.Verify.DiskHits}
	rss := srv.peakRSSMB()

	// The end-to-end figures are the /check replay's alone.
	throughput := float64(chk.attempted) / chk.elapsed.Seconds()
	p50, p99 := quantileDur(chk.lat, 0.5), quantileDur(chk.lat, 0.99)
	batchedRuns := sm.Server.BatchedRuns - before.Server.BatchedRuns
	lanesPerBatch := 0.0
	if batchedRuns > 0 {
		lanesPerBatch = float64(sm.Server.BatchedStimuli-before.Server.BatchedStimuli) / float64(batchedRuns)
	}
	scalarRuns := sm.Server.ScalarRuns - before.Server.ScalarRuns
	rep.figures["qps"] = metric{Value: throughput, Unit: "req/s", N: chk.attempted}
	rep.figures["check_p50_ms"] = metric{Value: ms(p50), Unit: "ms", N: len(chk.lat)}
	rep.figures["check_p99_ms"] = metric{Value: ms(p99), Unit: "ms", N: len(chk.lat)}
	rep.figures["stimuli_per_s"] = metric{Value: float64(stim.attempted) / stim.elapsed.Seconds(), Unit: "req/s", N: stim.attempted}
	rep.figures["stimulus_p50_ms"] = metric{Value: ms(quantileDur(stim.lat, 0.5)), Unit: "ms", N: len(stim.lat)}
	rep.figures["stimulus_p99_ms"] = metric{Value: ms(quantileDur(stim.lat, 0.99)), Unit: "ms", N: len(stim.lat)}
	rep.figures["lanes_per_batch"] = metric{Value: lanesPerBatch, Unit: "ratio", N: int(batchedRuns)}
	rep.figures["stimulus_scalar_runs"] = metric{Value: float64(scalarRuns), Unit: "count"}
	rep.figures["max_rss_mb"] = metric{Value: rss, Unit: "MB"}

	if tr != nil {
		pl := rep.perLayer
		pl["trace.e2e_throughput"] = metric{Value: throughput, Unit: "1/s"}
		for i := 0; i < 200; i++ {
			tr.do("serve.metrics", 0, func(int) { _, _ = srv.metrics(client) })
		}
		st := tr.stats()
		pl["serve.metrics_rtt_us"] = metric{Value: us(statOf(st, "serve.metrics").median()), Unit: "us"}
		pl["serve.check_hit_us"] = metric{Value: us(statOf(st, "serve.check").median()), Unit: "us"}
		pl["serve.stimulus_us"] = metric{Value: us(statOf(st, "serve.stimulus").median()), Unit: "us"}
		pl["serve.lanes_per_batch"] = metric{Value: lanesPerBatch, Unit: "ratio"}
		pl["serve.scalar_runs"] = metric{Value: float64(scalarRuns), Unit: "count"}
		pl["serve.rejected"] = metric{Value: float64(sm.Server.RejectedQueue + sm.Server.RejectedRate), Unit: "count"}
		verifyCounters(pl, sm.Verify)
		if err := diskLayer(tr, pl, tmp, recs); err != nil {
			return nil, err
		}
		srcs := make([]string, 0, 40)
		var bodies []checkBody
		for i := 0; i < len(checks) && i < 40; i++ {
			var b checkBody
			if err := json.Unmarshal(checks[i].body, &b); err != nil {
				return nil, err
			}
			bodies = append(bodies, b)
			srcs = append(srcs, b.Source)
		}
		verifyMissHit(tr, pl, srcs, func(i int) verify.Options { return bodies[i].Options.verify() })
		rep.notes = append(rep.notes,
			"verify.hits/misses/coalesced are the server's /metrics after the restart; verify.disk_* time an in-process DiskStore over the run's records; verify.hit_us/miss_ms time a private verify.New over 40 /check designs",
			"go.* are 0: the work runs in the server process, whose peak RSS is max_rss_mb; verilog.* through bugs.*, model.* and eval.* are 0: not exercised here")
		finishTrace(o, tr, rep)
		return rep, nil
	}
	rep.endToEnd["throughput"] = metric{Value: throughput, Unit: "1/s"}
	rep.endToEnd["p50_ms"] = metric{Value: ms(p50), Unit: "ms"}
	rep.endToEnd["tail_ms"] = metric{Value: ms(p99), Unit: "ms"}
	rep.endToEnd["max_rss_mb"] = metric{Value: rss, Unit: "MB"}
	return rep, nil
}

// phaseResult is what one timed phase observed.
type phaseResult struct {
	start             time.Time
	elapsed           time.Duration
	lat               []time.Duration
	attempted, failed int
	firstErr          error
}

// replay runs serveClients closed-loop clients for d. Client w draws its
// step-th request from next with its own seeded stream; spans (traced run
// only) are named span.
func replay(tr *tracer, span string, c *http.Client, base string, d time.Duration, seed int64,
	next func(step int, rng *rand.Rand) request) phaseResult {
	results := make([]phaseResult, serveClients)
	res := phaseResult{start: time.Now()}
	deadline := res.start.Add(d)
	var wg sync.WaitGroup
	for w := 0; w < serveClients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cr := &results[w]
			rng := rand.New(rand.NewSource(seed*1000 + int64(w)))
			for step := 0; time.Now().Before(deadline); step++ {
				r := next(step, rng)
				id := 0
				if tr != nil {
					id = tr.start(span, 0)
				}
				t := time.Now()
				err := do(c, base, r)
				cr.lat = append(cr.lat, time.Since(t))
				if tr != nil {
					tr.end(id)
				}
				cr.attempted++
				if err != nil {
					cr.failed++
					if cr.firstErr == nil {
						cr.firstErr = err
					}
				}
			}
		}(w)
	}
	wg.Wait()
	res.elapsed = time.Since(res.start)
	for _, cr := range results {
		res.lat = append(res.lat, cr.lat...)
		res.attempted += cr.attempted
		res.failed += cr.failed
		if res.firstErr == nil {
			res.firstErr = cr.firstErr
		}
	}
	return res
}

// diskLayer times the persistent store directly: every record of the run
// put into a fresh DiskStore, the store reopened (the reopen scan), and
// every record read back.
func diskLayer(tr *tracer, into map[string]metric, tmp string, recs []verify.Record) error {
	dir, err := os.MkdirTemp(tmp, "disk-layer-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ds, err := verify.OpenDiskStore(dir)
	if err != nil {
		return err
	}
	keys := make([]verify.Key, len(recs))
	for i := range recs {
		keys[i] = sha256.Sum256([]byte(strconv.Itoa(i)))
		tr.do("verify.disk_put", 0, func(int) { err = ds.Put(keys[i], &recs[i]) })
		if err != nil {
			ds.Close()
			return fmt.Errorf("disk put: %w", err)
		}
	}
	if err := ds.Close(); err != nil {
		return err
	}
	tr.do("verify.disk_open", 0, func(int) { ds, err = verify.OpenDiskStore(dir) })
	if err != nil {
		return err
	}
	defer ds.Close()
	for i := range keys {
		tr.do("verify.disk_get", 0, func(int) { _, err = ds.Get(keys[i]) })
		if err != nil {
			return fmt.Errorf("disk get: %w", err)
		}
	}
	var bytes int64
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			bytes += info.Size()
		}
	}
	st := tr.stats()
	into["verify.disk_put_us"] = metric{Value: us(statOf(st, "verify.disk_put").mean()), Unit: "us"}
	into["verify.disk_get_us"] = metric{Value: us(statOf(st, "verify.disk_get").mean()), Unit: "us"}
	into["verify.disk_open_ms"] = metric{Value: ms(statOf(st, "verify.disk_open").mean()), Unit: "ms"}
	into["verify.disk_bytes"] = metric{Value: float64(bytes), Unit: "bytes"}
	return nil
}

// checkServePin compares the reference digest with the pin for the input
// seed, or records it with --record-pins.
func checkServePin(o options, pins pinFile, input int64, got servePin, rep *report) error {
	if o.recordPins {
		rep.check("pinned_reference", true, "recorded %+v", got)
		return recordPin(o.pinsPath, "serve_warm", input, got)
	}
	var want servePin
	ok, err := pins.expected("serve_warm", input, &want)
	if err != nil {
		return err
	}
	rep.check("pinned_reference", ok && want == got, "seed %d: got %+v, pinned %+v (found=%v)", input, got, want, ok)
	return nil
}
