package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/verify"
)

// The self-test runs every workload at tiny scale (--tiny) in fresh
// processes, as the benchmark runs them, and checks the contract: the
// metric names and units of BENCHMARK.json, that pinned outputs are
// checked (a perturbed pin fails the run), and that the cold guard trips.

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type spec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// binaries builds the benchmark program and cmd/serve once per test run.
func binaries(t *testing.T) (bench, serve string) {
	t.Helper()
	dir := t.TempDir()
	bench, serve = filepath.Join(dir, "perfbench"), filepath.Join(dir, "serve")
	for out, pkg := range map[string]string{bench: ".", serve: "repro/cmd/serve"} {
		if b, err := exec.Command("go", "build", "-o", out, pkg).CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", pkg, err, b)
		}
	}
	return bench, serve
}

// tinyPins writes a pins file with the repository's seed pools and no
// pinned outputs.
func tinyPins(t *testing.T) string {
	t.Helper()
	p, err := loadPins("pins.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range p {
		w.Outputs = nil
	}
	path := filepath.Join(t.TempDir(), "pins.json")
	b, _ := json.Marshal(p)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// runTiny runs one tiny-scale workload from the checkout root and returns
// its result line.
func runTiny(t *testing.T, bench, serve, pins, workload, trace string, extra ...string) result {
	t.Helper()
	args := append([]string{"--tiny", "--workload", workload, "--seed", "3", "--seconds", "0.5",
		"--trace", trace, "--serve-bin", serve, "--pins", pins}, extra...)
	cmd := exec.Command(bench, args...)
	cmd.Dir = ".."
	cmd.Env = append(os.Environ(), "PERFBENCH_OUT="+t.TempDir())
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%s trace=%s: %v\n%s", workload, trace, err, out)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("%s: result line: %v\n%s", workload, err, out)
	}
	return r
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func sameNames(t *testing.T, what string, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json lists %d", what, len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		if !ok {
			t.Errorf("%s: missing %s", what, w.Name)
		} else if m.Unit != w.Unit {
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", what, w.Name, m.Unit, w.Unit)
		}
	}
}

func TestWorkloadsAtTinyScale(t *testing.T) {
	bench, serve := binaries(t)
	s := loadSpec(t)
	for _, w := range []string{"augment_cold", "judge_eval", "serve_warm"} {
		t.Run(w, func(t *testing.T) {
			pins := tinyPins(t)
			runTiny(t, bench, serve, pins, w, "0", "--record-pins")

			r := runTiny(t, bench, serve, pins, w, "0")
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("untraced run: correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
			}
			sameNames(t, w+" untraced", r.Metrics, s.EndToEnd)
			for name, m := range r.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s: end-to-end %s = %v, want > 0", w, name, m.Value)
				}
			}

			r = runTiny(t, bench, serve, pins, w, "1")
			if !r.Correct {
				t.Errorf("traced run not correct")
			}
			sameNames(t, w+" traced", r.Metrics, s.PerLayer)

			// A perturbed pin must fail the run.
			p, err := loadPins(pins)
			if err != nil {
				t.Fatal(err)
			}
			for k, raw := range p[w].Outputs {
				p[w].Outputs[k] = perturb(t, raw)
			}
			b, _ := json.Marshal(p)
			if err := os.WriteFile(pins, b, 0o644); err != nil {
				t.Fatal(err)
			}
			if r := runTiny(t, bench, serve, pins, w, "0"); r.Correct {
				t.Errorf("run with a perturbed pin reported correct")
			}
		})
	}
}

// perturb changes one pinned value: the digest where there is one, else
// every solver's first case count.
func perturb(t *testing.T, raw json.RawMessage) json.RawMessage {
	t.Helper()
	var v map[string]any
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatal(err)
	}
	if sum, ok := v["sha256"].(string); ok {
		v["sha256"] = "f" + sum[1:]
		if sum[0] == 'f' {
			v["sha256"] = "0" + sum[1:]
		}
	} else {
		for _, counts := range v {
			counts.([]any)[0] = counts.([]any)[0].(float64) + 1
		}
	}
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestColdGuardTripsOnWarmDefault(t *testing.T) {
	if err := coldGuard(); err != nil {
		t.Fatalf("fresh process: %v", err)
	}
	b := corpus.Catalog()[0]
	if _, err := verify.Default().CheckRecord(context.Background(), b.Source(), nil, verify.Options{CompileOnly: true}); err != nil {
		t.Fatal(err)
	}
	if err := coldGuard(); !errors.Is(err, errColdGuard) {
		t.Fatalf("after warming verify.Default(): got %v, want the cold guard", err)
	}
	if _, _, _, err := augmentSetup(options{workload: "augment_cold", pinsPath: "pins.json", tiny: true}); !errors.Is(err, errColdGuard) {
		t.Fatalf("augment_cold set-up on a warm service: got %v, want the cold guard", err)
	}
}
