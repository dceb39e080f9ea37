package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/verify"
)

// testServer boots the HTTP front end over a fresh service (plus optional
// store) the way main() wires it, behind an httptest listener.
func testServer(t *testing.T, store verify.Store, cfg serverConfig) (*httptest.Server, *verify.Service) {
	t.Helper()
	svc := verify.New(4)
	if store != nil {
		svc.SetStore(store)
	}
	srv := newServer(svc, cfg)
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)
	return ts, svc
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func getMetrics(t *testing.T, base string) metricsResponse {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m metricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestServeCheckEndToEnd(t *testing.T) {
	ts, _ := testServer(t, nil, serverConfig{})
	resp, body := postJSON(t, ts.URL+"/check", checkRequest{
		Source:  corpus.Counter(4, 9).Source(),
		Options: checkOptions{Seed: 1, Depth: 12},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got checkResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Status != verify.StatusPass || got.Cached {
		t.Fatalf("fresh check = status %v cached %v, want pass/false", got.Status, got.Cached)
	}
	if got.Runs == 0 || got.Strategy == "" {
		t.Fatalf("record missing run bookkeeping: %s", body)
	}

	// Candidate assertion text is parsed and substituted; a property the
	// golden design violates must come back as an assertion failure with
	// the failing assertion named.
	resp, body = postJSON(t, ts.URL+"/check", checkRequest{
		Source: corpus.EdgeDetect().Source(),
		Assertions: "property p_never; @(posedge clk) pulse == 1; endproperty\n" +
			"p_never_assertion: assert property (p_never);\n",
		Options: checkOptions{Seed: 1, Depth: 12},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Status != verify.StatusAssertFail {
		t.Fatalf("bad candidate = status %v, want assert-fail: %s", got.Status, body)
	}
	if len(got.FailedAsserts) != 1 || got.FailedAsserts[0] != "p_never_assertion" {
		t.Fatalf("FailedAsserts = %v, want [p_never_assertion]", got.FailedAsserts)
	}
	if got.Counterexample == nil || len(got.Counterexample.Rows) == 0 {
		t.Fatalf("assert-fail record carries no counterexample: %s", body)
	}

	if resp, body := postJSON(t, ts.URL+"/check", checkRequest{}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty source: status %d (%s), want 400", resp.StatusCode, body)
	}
}

// TestServeCoalescing sends the same expensive check from many concurrent
// clients and requires exactly one computation: everyone else either
// coalesces onto the in-flight entry or hits the completed one.
func TestServeCoalescing(t *testing.T) {
	ts, _ := testServer(t, nil, serverConfig{})
	req := checkRequest{
		Source:  corpus.ALU(8, 4).Source(),
		Options: checkOptions{Seed: 3, Depth: 12},
	}
	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := postJSON(t, ts.URL+"/check", req)
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d: %s", resp.StatusCode, body)
				return
			}
			var got checkResponse
			if err := json.Unmarshal(body, &got); err != nil {
				errs <- err
				return
			}
			if got.Status != verify.StatusPass {
				errs <- fmt.Errorf("status %v, want pass", got.Status)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	m := getMetrics(t, ts.URL).Verify
	if m.Misses != 1 {
		t.Fatalf("misses = %d for %d duplicate clients, want 1 computation", m.Misses, clients)
	}
	if m.Hits+m.Coalesced != clients-1 {
		t.Fatalf("hits(%d) + coalesced(%d) = %d, want %d", m.Hits, m.Coalesced, m.Hits+m.Coalesced, clients-1)
	}
	if sm := getMetrics(t, ts.URL).Server; sm.Accepted != clients {
		t.Fatalf("accepted = %d, want %d", sm.Accepted, clients)
	}
}

// TestServePersistenceAcrossRestart is the two-run acceptance check: a
// second server over the same store directory must answer every repeated
// check from disk — zero computations, byte-identical records — in both
// value domains, matching an in-process service bit for bit.
func TestServePersistenceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	requests := []checkRequest{
		{Source: corpus.Counter(4, 9).Source(), RecordOnly: true,
			Options: checkOptions{Seed: 1, Depth: 12}},
		{Source: corpus.Counter(4, 9).Source(), RecordOnly: true,
			Options: checkOptions{Seed: 1, Depth: 12, FourState: true}},
		{Source: corpus.EdgeDetect().Source(), RecordOnly: true,
			Assertions: "property p_never; @(posedge clk) pulse == 1; endproperty\n" +
				"p_never_assertion: assert property (p_never);\n",
			Options: checkOptions{Seed: 1, Depth: 12}},
		{Source: corpus.EdgeDetect().Source(), RecordOnly: true,
			Assertions: "property p_never; @(posedge clk) pulse == 1; endproperty\n" +
				"p_never_assertion: assert property (p_never);\n",
			Options: checkOptions{Seed: 1, Depth: 12, FourState: true}},
		{Source: "module broken(input clk, output reg q);\n" +
			"  always @(posedge clk) q <= undeclared;\nendmodule\n",
			RecordOnly: true, Options: checkOptions{Seed: 1, Depth: 12}},
	}

	// Run 1: compute everything, persisting through the tiered store.
	openStore := func() verify.Store {
		ds, err := verify.OpenDiskStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		return verify.NewTiered(verify.NewMemStore(0), ds)
	}
	store1 := openStore()
	ts1, _ := testServer(t, store1, serverConfig{})
	firstRun := make([][]byte, len(requests))
	for i, req := range requests {
		resp, body := postJSON(t, ts1.URL+"/check", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run 1 request %d: status %d: %s", i, resp.StatusCode, body)
		}
		firstRun[i] = body
	}
	ts1.Close()
	if err := store1.Close(); err != nil { // drain write-behind, like main() on shutdown
		t.Fatal(err)
	}

	// The reference: an in-process service with no store at all. The
	// served records must match it byte for byte in both value domains.
	ref := verify.New(4)
	for i, req := range requests {
		items, err := parseAssertions(req.Assertions)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := ref.CheckRecord(context.Background(), req.Source, items, req.Options.verify())
		if err != nil {
			t.Fatalf("reference request %d: %v", i, err)
		}
		want, err := json.Marshal(checkResponse{Record: rec})
		if err != nil {
			t.Fatal(err)
		}
		if got := bytes.TrimSpace(firstRun[i]); !bytes.Equal(got, want) {
			t.Fatalf("run 1 request %d differs from in-process service:\n got %s\nwant %s", i, got, want)
		}
	}

	// Run 2: a fresh process image (new service, new memory tier) over the
	// same directory. Every answer must come from disk.
	ts2, _ := testServer(t, openStore(), serverConfig{})
	for i, req := range requests {
		resp, body := postJSON(t, ts2.URL+"/check", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run 2 request %d: status %d: %s", i, resp.StatusCode, body)
		}
		if !bytes.Equal(body, firstRun[i]) {
			t.Fatalf("run 2 request %d not byte-identical:\n run1 %s\n run2 %s", i, firstRun[i], body)
		}
	}
	m := getMetrics(t, ts2.URL).Verify
	if m.Misses != 0 {
		t.Fatalf("run 2 misses = %d, want 0 (every answer from the store)", m.Misses)
	}
	if m.DiskHits == 0 {
		t.Fatalf("run 2 disk_hits = 0, want > 0: %+v", m)
	}
}

// TestServeStimulusBatching fires compatible stimulus checks concurrently
// and requires the lane path to carry them: the packed run must agree with
// scalar semantics on both passing and failing stimuli.
func TestServeStimulusBatching(t *testing.T) {
	ts, _ := testServer(t, nil, serverConfig{BatchWindow: 100 * time.Millisecond, BatchLanes: 8})

	// A broken edge detector: pulse stays high as long as sig is high, so
	// any stimulus holding sig for two sampled cycles fails p_pulse.
	src := strings.Replace(corpus.EdgeDetect().Source(),
		"assign pulse = sig && !sig_d;", "assign pulse = sig;", 1)
	if src == corpus.EdgeDetect().Source() {
		t.Fatal("bug injection did not apply")
	}

	stim := func(sig ...uint64) [][]uint64 {
		rows := make([][]uint64, len(sig))
		for c, v := range sig {
			rows[c] = []uint64{v}
		}
		return rows
	}
	cases := []struct {
		rows [][]uint64
		pass bool
	}{
		{stim(0, 0, 0, 0, 0, 0), true},  // never rises: no pulse expected, none fired
		{stim(0, 1, 0, 1, 0, 1), true},  // every high is a fresh rise: buggy pulse matches $rose
		{stim(0, 1, 1, 0, 0, 1), false}, // held high: pulse persists past the rise
		{stim(1, 1, 1, 1, 1, 1), false},
		{stim(0, 0, 1, 1, 0, 0), false},
		{stim(0, 1, 0, 0, 1, 1), false},
		{stim(0, 0, 0, 1, 1, 1), false},
		{stim(0, 1, 0, 1, 1, 0), false},
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(cases))
	for i, tc := range cases {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := postJSON(t, ts.URL+"/stimulus", stimulusRequest{
				Source: src, Rows: tc.rows,
			})
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("case %d: status %d: %s", i, resp.StatusCode, body)
				return
			}
			var got stimulusResponse
			if err := json.Unmarshal(body, &got); err != nil {
				errs <- err
				return
			}
			if got.Pass != tc.pass {
				errs <- fmt.Errorf("case %d: pass = %v, want %v (%s)", i, got.Pass, tc.pass, got.Log)
				return
			}
			if !tc.pass && len(got.FailedAsserts) == 0 {
				errs <- fmt.Errorf("case %d: failing stimulus named no assertions", i)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	sm := getMetrics(t, ts.URL).Server
	if total := sm.BatchedStimuli + sm.ScalarRuns; total != uint64(len(cases)) {
		t.Fatalf("batched(%d) + scalar(%d) = %d stimuli accounted, want %d",
			sm.BatchedStimuli, sm.ScalarRuns, total, len(cases))
	}
	if sm.BatchedRuns == 0 {
		t.Fatalf("no lane-packed runs despite %d concurrent compatible stimuli: %+v", len(cases), sm)
	}

	// Named-column path: drive the counter's reset explicitly.
	resp, body := postJSON(t, ts.URL+"/stimulus", stimulusRequest{
		Source: corpus.Counter(4, 9).Source(),
		Inputs: []string{"rst_n", "en"},
		Rows:   [][]uint64{{0, 0}, {0, 0}, {1, 1}, {1, 1}, {1, 1}, {1, 1}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("named inputs: status %d: %s", resp.StatusCode, body)
	}
	var got stimulusResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if !got.Pass {
		t.Fatalf("golden counter failed its own stimulus: %s", got.Log)
	}

	// Unknown columns are a client error, not a crash.
	if resp, body := postJSON(t, ts.URL+"/stimulus", stimulusRequest{
		Source: corpus.Counter(4, 9).Source(),
		Inputs: []string{"nonsense"},
		Rows:   [][]uint64{{0}},
	}); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("bad input name: status %d (%s), want 422", resp.StatusCode, body)
	}
}

func TestServeRateLimit(t *testing.T) {
	ts, _ := testServer(t, nil, serverConfig{Rate: 0.01, Burst: 1})
	req, _ := json.Marshal(checkRequest{
		Source:  corpus.Counter(4, 9).Source(),
		Options: checkOptions{Seed: 1, Depth: 8},
	})
	do := func() int {
		r, err := http.NewRequest("POST", ts.URL+"/check", bytes.NewReader(req))
		if err != nil {
			t.Fatal(err)
		}
		r.Header.Set("X-Client", "greedy")
		resp, err := http.DefaultClient.Do(r)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := do(); code != http.StatusOK {
		t.Fatalf("first request: status %d, want 200", code)
	}
	if code := do(); code != http.StatusTooManyRequests {
		t.Fatalf("second request inside the bucket window: status %d, want 429", code)
	}
	if sm := getMetrics(t, ts.URL).Server; sm.RejectedRate == 0 {
		t.Fatalf("rejected_rate = 0 after a 429: %+v", sm)
	}
}

// TestServeAdmissionQueue fills the bounded queue with a long-running
// check and requires overflow to be rejected immediately with 429 — and
// the slot to come back once the occupying client disconnects.
func TestServeAdmissionQueue(t *testing.T) {
	ts, svc := testServer(t, nil, serverConfig{Queue: 1})

	slow, _ := json.Marshal(checkRequest{
		Source: corpus.EdgeDetect().Source(),
		// 2^24 exhaustive sequences: effectively unbounded for this test.
		Options: checkOptions{Seed: 1, Depth: 24, MaxExhaustiveBits: 24, RandomRuns: -1},
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := make(chan error, 1)
	go func() {
		r, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/check", bytes.NewReader(slow))
		if err != nil {
			started <- err
			return
		}
		resp, err := http.DefaultClient.Do(r)
		if err == nil {
			resp.Body.Close()
		}
		started <- nil
	}()

	// Wait until the slow check occupies the one queue slot.
	deadline := time.Now().Add(5 * time.Second)
	for svc.Metrics().InFlight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow check never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp, body := postJSON(t, ts.URL+"/check", checkRequest{
		Source:  corpus.Counter(4, 9).Source(),
		Options: checkOptions{Seed: 1, Depth: 8},
	})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow request: status %d (%s), want 429", resp.StatusCode, body)
	}
	if sm := getMetrics(t, ts.URL).Server; sm.RejectedQueue == 0 {
		t.Fatalf("rejected_queue = 0 after a 429: %+v", sm)
	}

	// The client disconnecting must cancel the check and free the slot.
	cancel()
	<-started
	deadline = time.Now().Add(5 * time.Second)
	for {
		resp, _ := postJSON(t, ts.URL+"/check", checkRequest{
			Source:  corpus.Counter(4, 9).Source(),
			Options: checkOptions{Seed: 1, Depth: 8},
		})
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue slot never freed after client disconnect (last status %d)", resp.StatusCode)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServeStimulusLanesMatchScalar is the lanes-vs-scalar contract at the
// HTTP boundary: concurrent /stimulus requests answered from lane batches
// must carry byte-for-byte the verdict, failed assertions and log that a
// scalar-only server returns, for passing and failing stimuli alike. The
// multi-clock fixture is a design the lane checker declines, so its whole
// batch falls back to the scalar engine.
func TestServeStimulusLanesMatchScalar(t *testing.T) {
	multiclock, err := os.ReadFile("../../internal/fuzz/testdata/regressions/lane_sva_multiclock.v")
	if err != nil {
		t.Fatal(err)
	}
	edge := strings.Replace(corpus.EdgeDetect().Source(),
		"assign pulse = sig && !sig_d;", "assign pulse = sig;", 1)
	var reqs []stimulusRequest
	for _, sig := range [][]uint64{
		{0, 0, 0, 0, 0, 0}, {0, 1, 0, 1, 0, 1}, {0, 1, 1, 0, 0, 1},
		{1, 1, 1, 1, 1, 1}, {0, 0, 1, 1, 0, 0}, {0, 1, 0, 0, 1, 1},
	} {
		rows := make([][]uint64, len(sig))
		for c, v := range sig {
			rows[c] = []uint64{v}
		}
		reqs = append(reqs, stimulusRequest{Source: edge, Rows: rows})
	}
	// The fixture's own assertion holds on every stimulus; its "&& d"
	// variant fails wherever d is low at a clk2 edge.
	strict := strings.Replace(string(multiclock), "$stable(r0) || d", "$stable(r0) && d", 1)
	const mcCases = 4
	for k := uint64(0); k < mcCases; k++ {
		// Columns clk, clk2, d: clk2 rises on rows 2, 6 and 10; d is high
		// at the first rise and falls by the third (k < 2) or second.
		src := [2]string{string(multiclock), strict}[k%2]
		rows := make([][]uint64, 12)
		for c := range rows {
			rows[c] = []uint64{uint64(c) & 1, uint64(c) >> 1 & 1, 3 >> uint(c/4+int(k/2)) & 1}
		}
		reqs = append(reqs, stimulusRequest{Source: src, Inputs: []string{"clk", "clk2", "d"}, Rows: rows})
	}

	answer := func(cfg serverConfig) ([]stimulusResponse, serverMetrics) {
		ts, _ := testServer(t, nil, cfg)
		got := make([]stimulusResponse, len(reqs))
		var wg sync.WaitGroup
		for i, req := range reqs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, body := postJSON(t, ts.URL+"/stimulus", req)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("request %d: status %d: %s", i, resp.StatusCode, body)
					return
				}
				if err := json.Unmarshal(body, &got[i]); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		return got, getMetrics(t, ts.URL).Server
	}
	lane, lm := answer(serverConfig{BatchWindow: 100 * time.Millisecond, BatchLanes: 8})
	scalar, sm := answer(serverConfig{BatchLanes: 1})

	passing, failing := 0, 0
	for i := range reqs {
		l, s := lane[i], scalar[i]
		if l.Pass != s.Pass || !reflect.DeepEqual(l.FailedAsserts, s.FailedAsserts) || l.Log != s.Log {
			t.Fatalf("request %d: lane server answered\n%+v\nscalar server answered\n%+v", i, l, s)
		}
		if s.Pass {
			passing++
		} else {
			failing++
		}
	}
	if passing == 0 || failing == 0 {
		t.Fatalf("%d passing and %d failing stimuli, want both kinds", passing, failing)
	}
	if total := lm.BatchedStimuli + lm.ScalarRuns; total != uint64(len(reqs)) {
		t.Fatalf("lane server: batched(%d) + scalar(%d) = %d, want %d", lm.BatchedStimuli, lm.ScalarRuns, total, len(reqs))
	}
	if lm.BatchedRuns == 0 || lm.ScalarRuns < mcCases {
		t.Fatalf("lane server: %+v, want lane runs and >= %d scalar multi-clock stimuli", lm, mcCases)
	}
	if sm.BatchedRuns != 0 || sm.ScalarRuns != uint64(len(reqs)) {
		t.Fatalf("scalar server: %+v, want every stimulus scalar", sm)
	}
}

// TestServeAssertionErrorPositions: a candidate-assertion syntax error is
// reported at its line in the client's text, not in the wrapper module the
// server parses it inside.
func TestServeAssertionErrorPositions(t *testing.T) {
	ts, _ := testServer(t, nil, serverConfig{})
	for _, tc := range []struct{ text, want string }{
		{"p_ok: assert property (@(posedge clk) sig);\n" +
			"p_bad: assert property (@(posedge clk) ;\n", "assertions: 2:40: syntax error"},
		{"p: assert property (@(posedge clk) 4'q1);\n", "assertions: 1:36: invalid base specifier"},
	} {
		resp, body := postJSON(t, ts.URL+"/check", checkRequest{
			Source: corpus.EdgeDetect().Source(), Assertions: tc.text,
		})
		if resp.StatusCode != http.StatusBadRequest || !strings.HasPrefix(string(body), tc.want) {
			t.Fatalf("assertions %q: status %d %q, want 400 %q...", tc.text, resp.StatusCode, body, tc.want)
		}
	}
}

// TestServeBodyLimit: a request body past maxBodyBytes is refused with 413
// on both POST endpoints, before it is decoded.
func TestServeBodyLimit(t *testing.T) {
	ts, _ := testServer(t, nil, serverConfig{})
	huge := strings.Repeat(" ", maxBodyBytes)
	for path, body := range map[string]any{
		"/check":    checkRequest{Source: huge},
		"/stimulus": stimulusRequest{Source: huge, Rows: [][]uint64{{0}}},
	} {
		if resp, out := postJSON(t, ts.URL+path, body); resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s with a %d-byte source: status %d (%.80s), want 413", path, len(huge), resp.StatusCode, out)
		}
	}
}

// TestServeTrailingBytes: a body is one JSON value. Trailing whitespace is
// fine; a second value or stray bytes after the object are a 400, and an
// oversize body stays a 413 however it ends.
func TestServeTrailingBytes(t *testing.T) {
	ts, _ := testServer(t, nil, serverConfig{})
	obj, err := json.Marshal(checkRequest{Source: corpus.EdgeDetect().Source(), Options: checkOptions{Depth: 6}})
	if err != nil {
		t.Fatal(err)
	}
	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/check", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	for body, want := range map[string]int{
		string(obj) + " \n\t":       http.StatusOK,
		string(obj) + ` {"garbage"`: http.StatusBadRequest,
		string(obj) + ` {}`:         http.StatusBadRequest,
		string(obj) + `x`:           http.StatusBadRequest,
		string(obj) + `}`:           http.StatusBadRequest,
		string(obj) + strings.Repeat(" ", maxBodyBytes) + "x": http.StatusRequestEntityTooLarge,
	} {
		if got := post(body); got != want {
			t.Errorf("body ending %q: status %d, want %d", body[max(0, len(body)-12):], got, want)
		}
	}
	for _, path := range []string{"/stimulus"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(`{"rows":[[0]]} 1`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s with a trailing value: status %d, want 400", path, resp.StatusCode)
		}
	}
}
