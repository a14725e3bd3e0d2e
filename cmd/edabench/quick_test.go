package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// benchSpec is BENCHMARK.json at the repository root.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s benchSpec
	if err := dec.Decode(&s); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return s
}

// BENCHMARK.json and the benchmark's own tables must agree: the file is
// what regressions are judged by, the tables are what gets printed.
func TestBenchmarkSpec(t *testing.T) {
	s := readSpec(t)
	if want := []string{"sh", "cmd/edabench/run.sh"}; !reflect.DeepEqual(s.Command, want) {
		t.Errorf("command %q, want %q", s.Command, want)
	}
	if want := []string{"cmd/edabench"}; !reflect.DeepEqual(s.Paths, want) {
		t.Errorf("paths %q, want %q", s.Paths, want)
	}
	if s.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, want the -seconds default %d", s.RunSeconds, runSeconds)
	}
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(s.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if s.Workloads[i].Name != w.name || s.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the benchmark %q: %q", i, s.Workloads[i], w.name, w.why)
		}
	}
	compare := func(kind string, got []specMetric, want []metric, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the benchmark", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better || (g.Bound != nil) != bounded ||
				(bounded && *g.Bound != m.bound) {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the benchmark %+v", kind, i, g, m)
			}
		}
	}
	compare("end_to_end", s.EndToEnd, endToEnd, true)
	compare("per_layer", s.PerLayer, perLayer, false)
}

// TestQuickRun runs every workload, untraced and traced, for about a
// second each: every metric BENCHMARK.json names must be printed with
// its unit, and every answer must check out.
func TestQuickRun(t *testing.T) {
	spec := readSpec(t)
	for _, traced := range []bool{false, true} {
		spans := filepath.Join(t.TempDir(), "spans.jsonl")
		var out bytes.Buffer
		ok, err := run(options{workloads: workloads, seed: 1, seconds: 1, trace: traced, spans: spans, quick: true}, &out)
		if err != nil {
			t.Fatal(err)
		}
		text := out.String()
		if !ok {
			t.Fatalf("traced=%t: incorrect answers\n%s", traced, text)
		}
		want := spec.EndToEnd
		if traced {
			want = spec.PerLayer
		}
		for _, m := range want {
			line := regexp.MustCompile(`(?m)^  ` + regexp.QuoteMeta(m.Name) + ` +\S+ ` + regexp.QuoteMeta(m.Unit) + `$`)
			if n := len(line.FindAllString(text, -1)); n != len(workloads) {
				t.Errorf("traced=%t: %s printed with its unit %d times, want once per workload", traced, m.Name, n)
			}
		}
		var results int
		for _, l := range strings.Split(text, "\n") {
			if !strings.HasPrefix(l, "{") {
				continue
			}
			results++
			var res struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(l), &res); err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("traced=%t: result %s", traced, l)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("traced=%t: %d metrics in %s", traced, len(res.Metrics), l)
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("traced=%t: %s missing or without unit %s in %s", traced, m.Name, m.Unit, l)
				}
			}
		}
		if results != len(workloads) {
			t.Errorf("traced=%t: %d result lines, want %d", traced, results, len(workloads))
		}
		if traced {
			checkSpans(t, spans)
		}
	}
}

func checkSpans(t *testing.T, path string) {
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	names := map[string]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		dec := json.NewDecoder(strings.NewReader(sc.Text()))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&s); err != nil {
			t.Fatalf("span %q: %v", sc.Text(), err)
		}
		if s.Trace == 0 || s.Span == 0 || s.End < s.Start {
			t.Errorf("malformed span %+v", s)
		}
		names[s.Name] = true
	}
	for _, n := range []string{"loadgen.request", "http.roundtrip", "kernel.CrossGramInto", "model.ScoreBatchInto",
		"serve.ServeHTTP", "cluster.roundtrip", "stream.next", "stream.score", "stream.simulate", "stream.publish"} {
		if !names[n] {
			t.Errorf("no %s span written", n)
		}
	}
}
