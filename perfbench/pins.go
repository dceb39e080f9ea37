package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
)

// pinFile holds, per workload, the pool of input seeds the benchmark draws
// from and the expected outputs pinned for each of them.
//
// The --seed argument selects pool[seed mod len(pool)], so every run is
// checked against pinned outputs whatever seed it is given. The held-out
// pool holds seeds that were never used while a change was tuned; a run
// with --heldout draws from it instead, so a claimed gain can be confirmed
// on inputs nobody looked at.
type pinFile map[string]*workloadPins

type workloadPins struct {
	Pool    []int64                    `json:"pool"`
	HeldOut []int64                    `json:"heldout"`
	Outputs map[string]json.RawMessage `json:"outputs"`
}

func loadPins(path string) (pinFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read pins: %w", err)
	}
	var p pinFile
	if err := json.Unmarshal(b, &p); err != nil {
		return nil, fmt.Errorf("parse pins %s: %w", path, err)
	}
	return p, nil
}

// inputSeed maps the workload seed onto the workload's pool.
func (p pinFile) inputSeed(workload string, seed int64, heldOut bool) (int64, error) {
	w := p[workload]
	if w == nil {
		return 0, fmt.Errorf("pins: no entry for %s", workload)
	}
	pool := w.Pool
	if heldOut {
		pool = w.HeldOut
	}
	if len(pool) == 0 {
		return 0, fmt.Errorf("pins: empty seed pool for %s", workload)
	}
	n := int64(len(pool))
	return pool[((seed%n)+n)%n], nil
}

// expected decodes the pinned output for an input seed into v; ok is false
// when nothing is pinned for it.
func (p pinFile) expected(workload string, input int64, v any) (bool, error) {
	w := p[workload]
	if w == nil {
		return false, nil
	}
	raw, ok := w.Outputs[strconv.FormatInt(input, 10)]
	if !ok {
		return false, nil
	}
	return true, json.Unmarshal(raw, v)
}

// record stores got as the pinned output for an input seed and rewrites
// the file (the --record-pins maintenance path, used after a deliberate
// change of outputs).
func recordPin(path, workload string, input int64, got any) error {
	p, err := loadPins(path)
	if err != nil {
		return err
	}
	w := p[workload]
	if w == nil {
		w = &workloadPins{}
		p[workload] = w
	}
	if w.Outputs == nil {
		w.Outputs = map[string]json.RawMessage{}
	}
	raw, err := json.Marshal(got)
	if err != nil {
		return err
	}
	w.Outputs[strconv.FormatInt(input, 10)] = raw
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
