package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// spec is BENCHMARK.json, the benchmark's contract at the repository
// root: what is run, and for each end-to-end metric its unit, direction
// and the share of the parent's median by which it may get worse.
type spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// checkNames reports how the names BENCHMARK.json declares differ from
// the names the benchmark emits; nil means the workloads and the
// metrics are the same sets, with the same units.
func (s *spec) checkNames() error {
	var problems []string
	diff := func(what string, declared, emitted map[string]string) {
		for name, unit := range emitted {
			switch du, ok := declared[name]; {
			case !ok:
				problems = append(problems, fmt.Sprintf("%s %s is emitted but not declared", what, name))
			case du != unit:
				problems = append(problems, fmt.Sprintf("%s %s is emitted in %q but declared in %q", what, name, unit, du))
			}
		}
		for name := range declared {
			if _, ok := emitted[name]; !ok {
				problems = append(problems, fmt.Sprintf("%s %s is declared but not emitted", what, name))
			}
		}
	}
	units := func(ms []specMetric) map[string]string {
		out := make(map[string]string, len(ms))
		for _, m := range ms {
			out[m.Name] = m.Unit
		}
		return out
	}
	e2e, layers := map[string]string{}, map[string]string{}
	for _, m := range endToEnd {
		e2e[m.name] = m.unit
	}
	for _, m := range perLayer {
		layers[m.name] = m.unit
	}
	diff("end-to-end metric", units(s.EndToEnd), e2e)
	diff("per-layer metric", units(s.PerLayer), layers)
	declared, emitted := map[string]string{}, map[string]string{}
	for _, w := range s.Workloads {
		declared[w.Name] = ""
	}
	for _, w := range workloadNames {
		emitted[w] = ""
	}
	diff("workload", declared, emitted)
	if len(problems) == 0 {
		return nil
	}
	sort.Strings(problems)
	return fmt.Errorf("BENCHMARK.json and the benchmark disagree: %v", problems)
}
