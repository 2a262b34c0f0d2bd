// Command perfbench is Mosaic's end-to-end benchmark. One invocation sets up
// one workload, drives it in a closed loop for a fixed time, checks every
// answer against an in-process reference engine, and prints every metric by
// name with its unit. The last line of standard output is the result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are BENCHMARK.json's end_to_end list; with
// -trace 1 a separate traced run reports its per_layer list. The line above
// it carries the full record: every metric computed, with its sample count,
// plus the run metadata. The same record is written under
// .bench_build/results/. See README.md in this directory.
//
// Usage:
//
//	perfbench -workload serve-mix -seed 1 -seconds 10 -trace 0
//	perfbench compare -base DIR -new DIR
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: serve-mix, open-refit, scan-large or fleet-rw")
	seed := fs.Int64("seed", 1, "workload seed: drives the data, the query literals and the inserted rows")
	seconds := fs.Float64("seconds", 10, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the timed run")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition naming the metrics to print")
	outDir := fs.String("out", filepath.Join(".bench_build", "results"), "directory for the full result and span files; empty disables")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	rc := runConfig{
		seed:   *seed,
		dur:    time.Duration(*seconds * float64(time.Second)),
		trace:  *trace == 1,
		scale:  fullScale,
		setups: w.setups,
	}
	if rc.trace {
		rc.setups = 1
	}
	res, err := run(w, rc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if res.Trace {
		res.fillUnmeasured(sp.PerLayer)
	}
	line, err := res.summary(sp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	full, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if *outDir != "" {
		if err := writeOutputs(*outDir, res, full); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	fmt.Println(string(full))
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// writeOutputs stores the full record and, for traced runs, the spans.
func writeOutputs(dir string, res *result, full []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := fmt.Sprintf("%s-seed%d-trace%d-%d", res.Workload, res.Seed, boolInt(res.Trace), time.Now().UnixNano())
	if err := os.WriteFile(filepath.Join(dir, base+".json"), append(full, '\n'), 0o644); err != nil {
		return err
	}
	if res.spans == nil {
		return nil
	}
	spans, err := json.Marshal(res.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, base+"-spans.json"), append(spans, '\n'), 0o644)
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// spec is the part of BENCHMARK.json the benchmark reads.
type spec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read spec: %w", err)
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if len(sp.EndToEnd) == 0 || len(sp.PerLayer) == 0 {
		return nil, errors.New("spec lists no metrics")
	}
	return &sp, nil
}

// metric is one measured value. N is the number of samples behind it (1 for
// a counter read once).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// result is the full record of one run.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Seconds   float64           `json:"seconds"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Verified  int               `json:"verified"`
	Problem   string            `json:"problem,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	Meta      meta              `json:"meta"`

	spans []span
}

func (r *result) set(name, unit string, v float64, n int) {
	r.Metrics[name] = metric{Value: v, Unit: unit, N: n}
}

// summary renders the last output line: exactly the metrics the spec lists
// for this kind of run, with the spec's units.
func (r *result) summary(sp *spec) ([]byte, error) {
	list := sp.EndToEnd
	if r.Trace {
		list = sp.PerLayer
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]val, len(list))
	for _, m := range list {
		got, ok := r.Metrics[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %q listed in the spec was not measured", m.Name)
		}
		if got.Unit != m.Unit {
			return nil, fmt.Errorf("metric %q measured in %s, spec says %s", m.Name, got.Unit, m.Unit)
		}
		ms[m.Name] = val{got.Value, got.Unit}
	}
	return json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, ms})
}
