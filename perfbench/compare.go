package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// compareMain compares two sets of runs, per workload and end-to-end
// metric. Each set is a directory (or file) of full result records, as
// written under .bench_build/results or printed on the second-to-last
// output line.
func compareMain(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	basePath := fs.String("base", "", "runs of the parent: a directory of result files, or one file")
	newPath := fs.String("new", "", "runs of the change, in the same form")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition giving directions and bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 1
	}
	base, err := loadRuns(*basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 1
	}
	next, err := loadRuns(*newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 1
	}
	for _, set := range []struct {
		name string
		runs []*result
	}{{"base", base}, {"new", next}} {
		var steal []float64
		for _, r := range set.runs {
			steal = append(steal, r.Meta.StealPct)
		}
		fmt.Fprintf(out, "%s: %d timed runs, median CPU steal %.1f%%\n", set.name, len(set.runs), median(steal))
	}
	for _, v := range compareRuns(sp, base, next) {
		fmt.Fprintln(out, v)
	}
	return 0
}

// loadRuns reads the timed (untraced) result records under path. A file
// may hold one record or whole benchmark output; any line that is a record
// counts.
func loadRuns(path string) ([]*result, error) {
	if path == "" {
		return nil, fmt.Errorf("missing run set path")
	}
	var files []string
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		matches, err := filepath.Glob(filepath.Join(path, "*"))
		if err != nil {
			return nil, err
		}
		files = matches
	} else {
		files = []string{path}
	}
	var runs []*result
	for _, f := range files {
		if strings.HasSuffix(f, "-spans.json") {
			continue
		}
		fh, err := os.Open(f)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(fh)
		sc.Buffer(make([]byte, 1<<20), 1<<26)
		for sc.Scan() {
			var r result
			if json.Unmarshal(sc.Bytes(), &r) == nil && r.Workload != "" && !r.Trace {
				runs = append(runs, &r)
			}
		}
		err = sc.Err()
		fh.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
	}
	return runs, nil
}

// verdict is the comparison of one metric on one workload.
type verdict struct {
	workload, metric, unit string
	outcome                string
	baseMed, newMed        float64
	baseIQR                float64
	wins, pairs            int
	bound                  float64
}

func (v verdict) String() string {
	return fmt.Sprintf("%-11s %-22s %-12s new/base = %.4f (base %.4g %s, new %.4g %s; base IQR %.4g; new better in %d/%d pairs; bound %.2f)",
		v.workload, v.metric, v.outcome, v.newMed/v.baseMed, v.baseMed, v.unit, v.newMed, v.unit, v.baseIQR, v.wins, v.pairs, v.bound)
}

// compareRuns judges every workload and every end-to-end metric of
// BENCHMARK.json that both sets report:
//
//   - better: the change wins at least 9 of every 10 pairs and the medians
//     differ by more than the parent's interquartile range (the gain rule);
//   - unresolved: otherwise, if the parent's own spread (IQR / median)
//     exceeds the metric's bound, unless every run of the change beats
//     every run of the parent, which is better;
//   - worse: otherwise, if the change's median is worse than the parent's
//     by more than the bound, however many pairs it loses;
//   - within bound: otherwise.
//
// Runs pair by seed where both sets share seeds, else in order.
func compareRuns(sp *spec, base, next []*result) []verdict {
	var out []verdict
	for _, wl := range workloadNames(base) {
		b, n := byWorkload(base, wl), byWorkload(next, wl)
		if len(n) == 0 {
			continue
		}
		pb, pn := pairRuns(b, n)
		for _, ms := range sp.EndToEnd {
			if v, ok := compareMetric(ms, wl, pb, pn); ok {
				out = append(out, v)
			}
		}
	}
	return out
}

func compareMetric(ms metricSpec, wl string, b, n []*result) (verdict, bool) {
	var bv, nv []float64
	var wins int
	unit := ""
	for i := range b {
		x, okb := b[i].Metrics[ms.Name]
		y, okn := n[i].Metrics[ms.Name]
		if !okb || !okn {
			continue
		}
		unit = x.Unit
		bv, nv = append(bv, x.Value), append(nv, y.Value)
		if better(ms, y.Value, x.Value) {
			wins++
		}
	}
	if len(bv) == 0 {
		return verdict{}, false
	}
	v := verdict{
		workload: wl, metric: ms.Name, unit: unit, bound: ms.Bound,
		baseMed: median(bv), newMed: median(nv), baseIQR: quantile(bv, 0.75) - quantile(bv, 0.25),
		wins: wins, pairs: len(bv),
	}
	worseBy := (v.newMed - v.baseMed) / v.baseMed
	if ms.Better == "higher" {
		worseBy = -worseBy
	}
	switch {
	case 10*wins >= 9*len(bv) && math.Abs(v.newMed-v.baseMed) > v.baseIQR:
		v.outcome = "better"
	case v.baseIQR/v.baseMed > ms.Bound:
		v.outcome = "unresolved"
		if allBetter(ms, nv, bv) {
			v.outcome = "better"
		}
	case worseBy > ms.Bound:
		v.outcome = "worse"
	default:
		v.outcome = "within-bound"
	}
	return v, true
}

// allBetter reports whether every value of xs beats every value of ys.
func allBetter(ms metricSpec, xs, ys []float64) bool {
	for _, x := range xs {
		for _, y := range ys {
			if !better(ms, x, y) {
				return false
			}
		}
	}
	return true
}

func better(ms metricSpec, a, b float64) bool {
	if ms.Better == "higher" {
		return a > b
	}
	return a < b
}

func workloadNames(runs []*result) []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range runs {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			out = append(out, r.Workload)
		}
	}
	sort.Strings(out)
	return out
}

func byWorkload(runs []*result, wl string) []*result {
	var out []*result
	for _, r := range runs {
		if r.Workload == wl {
			out = append(out, r)
		}
	}
	return out
}

// pairRuns pairs runs of equal seed; when the sets share no seed it pairs
// them in order of seed.
func pairRuns(b, n []*result) ([]*result, []*result) {
	bySeed := map[int64]*result{}
	for _, r := range n {
		bySeed[r.Seed] = r
	}
	var pb, pn []*result
	for _, r := range b {
		if m, ok := bySeed[r.Seed]; ok {
			pb, pn = append(pb, r), append(pn, m)
		}
	}
	if len(pb) > 0 {
		return pb, pn
	}
	sortBySeed := func(rs []*result) []*result {
		s := append([]*result(nil), rs...)
		sort.Slice(s, func(i, j int) bool { return s[i].Seed < s[j].Seed })
		return s
	}
	b, n = sortBySeed(b), sortBySeed(n)
	k := min(len(b), len(n))
	return b[:k], n[:k]
}
