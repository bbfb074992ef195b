package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite BENCHMARK.json from the harness's workload and metric tables")

// benchmarkFile mirrors BENCHMARK.json, which has exactly these keys.
type benchmarkFile struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []benchWorkload `json:"workloads"`
	EndToEnd   []benchMetric   `json:"end_to_end"`
	PerLayer   []benchMetric   `json:"per_layer"`
}

type benchWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// fromTables is BENCHMARK.json as the harness's own tables define it.
func fromTables() benchmarkFile {
	f := benchmarkFile{
		Command:    []string{"go", "run", "./bench"},
		Paths:      []string{"bench"},
		RunSeconds: 50,
	}
	for _, w := range workloads() {
		f.Workloads = append(f.Workloads, benchWorkload{Name: w.name, Why: w.why})
	}
	for _, d := range endToEnd {
		bound := d.Bound
		f.EndToEnd = append(f.EndToEnd, benchMetric{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: &bound})
	}
	for _, d := range perLayer {
		if d.Listed {
			f.PerLayer = append(f.PerLayer, benchMetric{Name: d.Name, Unit: d.Unit, Better: d.Better})
		}
	}
	return f
}

func benchmarkPath(t *testing.T) string {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Join(root, "BENCHMARK.json")
}

// TestBenchmarkJSON holds BENCHMARK.json to the harness's tables and to
// the limits the benchmark contract sets on names, units and counts.
func TestBenchmarkJSON(t *testing.T) {
	want := fromTables()
	if *update {
		b, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(benchmarkPath(t), append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(benchmarkPath(t))
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the harness's tables; run `go test ./bench -run TestBenchmarkJSON -update`")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %s", n, name)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range got.Workloads {
		checkName(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	largest := 0.0
	for _, m := range append(append([]benchMetric(nil), got.EndToEnd...), got.PerLayer...) {
		checkName(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q does not match %s", m.Name, m.Unit, unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better is %q", m.Name, m.Better)
		}
		if m.Bound != nil {
			if *m.Bound <= 0 || *m.Bound > 0.25 {
				t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, *m.Bound)
			}
			if *m.Bound > largest {
				largest = *m.Bound
			}
		}
	}
	if s := got.EndToEnd[0]; s.Name != "setup_s" || s.Unit != "s" || s.Better != "lower" || *s.Bound != largest {
		t.Errorf("setup_s must be an end-to-end metric in s, lower is better, with the largest bound")
	}
	if n := len(got.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(got.EndToEnd); n != 8 {
		t.Errorf("%d end-to-end metrics, want 8", n)
	}
	if n := len(got.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	if len(b) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(b))
	}
}

// TestQuickSmoke runs every workload at smoke-test size, untraced and
// traced, with every output check on. The untraced run must print every
// end-to-end metric of BENCHMARK.json by name and carry them, none of
// them 0, in its result; the traced run must carry every listed
// per-layer metric.
func TestQuickSmoke(t *testing.T) {
	bm := fromTables()
	for _, w := range bm.Workloads {
		for _, traced := range []bool{false, true} {
			var out bytes.Buffer
			if err := child(w.Name, runOpts{seed: 1, seconds: 0.3, trace: traced, quick: true}, &out); err != nil {
				t.Fatalf("%s: %v\n%s", w.Name, err, out.String())
			}
			text := out.String()
			lines := strings.Split(strings.TrimSpace(text), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not the JSON result: %v", w.Name, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s: correct=%v attempted=%d failed=%d", w.Name, res.Correct, res.Attempted, res.Failed)
			}
			if !strings.Contains(text, "workload "+w.Name+":") {
				t.Errorf("%s: workload name not printed", w.Name)
			}
			for _, m := range bm.EndToEnd {
				if !strings.Contains(text, "  "+m.Name+" ") {
					t.Errorf("%s: end-to-end metric %s not printed", w.Name, m.Name)
				}
			}
			want := bm.EndToEnd
			if traced {
				want = bm.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s: result has %d metrics, BENCHMARK.json lists %d", w.Name, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s: metric %s (%s) missing from the result", w.Name, m.Name, m.Unit)
				}
				if !traced && got.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w.Name, m.Name)
				}
			}
		}
	}
}
