package main

import (
	"math"
	"strings"
	"testing"
	"time"

	"mosaic"
	"mosaic/internal/value"
)

// TestSmokeEveryWorkload runs every workload at tiny scale, timed and
// traced, and requires every answer verified and every listed metric
// present.
func TestSmokeEveryWorkload(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"serve-mix", "open-refit", "scan-large", "fleet-rw"} {
		for _, trace := range []bool{false, true} {
			rc := runConfig{seed: 3, dur: 300 * time.Millisecond, trace: trace, scale: tinyScale, setups: 1}
			res, err := run(workloads[name], rc)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Verified == 0 {
				t.Fatalf("%s trace=%v: correct=%v failed=%d verified=%d problem=%q",
					name, trace, res.Correct, res.Failed, res.Verified, res.Problem)
			}
			if w := res.Metrics["write_p50_ms"]; (name == "open-refit" || name == "fleet-rw") && w.N == 0 {
				t.Fatalf("%s trace=%v: no write during the loop", name, trace)
			}
			if trace {
				res.fillUnmeasured(sp.PerLayer)
			}
			if _, err := res.summary(sp); err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
		}
	}
}

// flipped returns a copy of res with one bit of its first float cell
// flipped.
func flipped(t *testing.T, res *mosaic.Result) *mosaic.Result {
	out := &mosaic.Result{Columns: res.Columns}
	done := false
	for _, row := range res.Rows {
		cp := append([]mosaic.Value(nil), row...)
		for i, v := range cp {
			if !done && v.Kind() == value.KindFloat {
				cp[i] = value.Float(math.Float64frombits(math.Float64bits(v.AsFloat()) ^ 1))
				done = true
			}
		}
		out.Rows = append(out.Rows, cp)
	}
	if !done {
		t.Fatal("result has no float cell to flip")
	}
	return out
}

// flipRef answers like the wrapped reference except that every answer
// has one float bit flipped.
type flipRef struct {
	*mosaic.DB
	t *testing.T
}

func (f flipRef) Query(q string, args ...any) (*mosaic.Result, error) {
	res, err := f.DB.Query(q, args...)
	if err != nil {
		return nil, err
	}
	return flipped(f.t, res), nil
}

// TestFlippedBitFailsVerification checks that verification is byte-exact:
// a reference answer differing in the lowest bit of one float fails it.
func TestFlippedBitFailsVerification(t *testing.T) {
	w, err := buildWorld(5, tinyScale.PopN, tinyScale.SampleFrac, tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	db, err := openDB(w.script, engineOptions(tinyScale))
	if err != nil {
		t.Fatal(err)
	}
	const q = "SELECT CLOSED AVG(distance) FROM Flights WHERE elapsed_time > 200"
	got, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	log := func() *runLog {
		return &runLog{recs: [][]record{{{kind: kindClosed, text: q, digest: digest(got)}}}}
	}
	if _, err := verify(db, nil, 0, log()); err != nil {
		t.Fatalf("unmodified reference: %v", err)
	}
	_, err = verify(flipRef{db, t}, nil, 0, log())
	if err == nil || !strings.Contains(err.Error(), "wrong answer") {
		t.Fatalf("flipped reference: got %v, want a wrong-answer error", err)
	}
}

// TestVerifyAcceptsAnyOverlappedState checks the write-window rule: a read
// overlapping a write may match the state before or after it, but not a
// state it never overlapped.
func TestVerifyAcceptsAnyOverlappedState(t *testing.T) {
	w, err := buildWorld(5, tinyScale.PopN, tinyScale.SampleFrac, tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	open := func() *mosaic.DB {
		db, err := openDB(w.script, engineOptions(tinyScale))
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	const q = "SELECT CLOSED COUNT(*), AVG(distance) FROM Flights"
	script := func(j int) string { return insertScript(5, j) }
	db := open()
	before, _ := db.Query(q)
	if err := db.Exec(script(0)); err != nil {
		t.Fatal(err)
	}
	after, _ := db.Query(q)
	rec := func(res *mosaic.Result, lo, hi int) *runLog {
		return &runLog{recs: [][]record{{{kind: kindClosed, text: q, digest: digest(res), lo: lo, hi: hi}}}}
	}
	for _, tc := range []struct {
		res    *mosaic.Result
		lo, hi int
		ok     bool
	}{
		{before, 0, 1, true},
		{after, 0, 1, true},
		{after, 0, 0, false},
		{before, 1, 1, false},
	} {
		_, err := verify(open(), script, 1, rec(tc.res, tc.lo, tc.hi))
		if (err == nil) != tc.ok {
			t.Errorf("window %d..%d: err=%v, want ok=%v", tc.lo, tc.hi, err, tc.ok)
		}
	}
}

// TestCompareVerdicts checks the section 8 rule on synthetic run sets.
func TestCompareVerdicts(t *testing.T) {
	sp := &spec{EndToEnd: []metricSpec{{Name: "read_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1}}}
	runs := func(vals ...float64) []*result {
		var out []*result
		for i, v := range vals {
			out = append(out, &result{Workload: "w", Seed: int64(i), Metrics: map[string]metric{"read_p50_ms": {Value: v, Unit: "ms"}}})
		}
		return out
	}
	base := runs(10, 10.2, 9.9, 10.1, 10, 9.8, 10.3, 10, 10.1, 9.9)
	for _, tc := range []struct {
		name string
		next []*result
		want string
	}{
		{"faster", runs(8, 8.1, 7.9, 8, 8.2, 7.8, 8.1, 8, 8.1, 7.9), "better"},
		{"slower", runs(12, 12.2, 11.9, 12.1, 12, 11.8, 12.3, 12, 12.1, 11.9), "worse"},
		{"same", runs(10.1, 10, 10, 10.2, 9.9, 9.9, 10.2, 10.1, 10, 10), "within-bound"},
		{"slower within bound", runs(10.5, 10.7, 10.4, 10.6, 10.5, 10.3, 10.8, 10.5, 10.6, 10.4), "within-bound"},
		// 30% worse at the median while losing only 8 of 10 pairs: the
		// regression bound judges the median, not the pair count.
		{"slower, two pairs won", runs(13, 13.3, 9, 13.1, 13, 12.7, 13.4, 9, 13.1, 12.9), "worse"},
	} {
		v := compareRuns(sp, base, tc.next)
		if len(v) != 1 || v[0].outcome != tc.want {
			t.Errorf("%s: got %+v, want %s", tc.name, v, tc.want)
		}
	}
	noisy := runs(5, 15, 8, 12, 10, 6, 14, 9, 11, 10)
	if v := compareRuns(sp, noisy, runs(10, 10, 10, 10, 10, 10, 10, 10, 10, 10)); v[0].outcome != "unresolved" {
		t.Errorf("noisy parent: got %s, want unresolved", v[0].outcome)
	}
	if v := compareRuns(sp, noisy, runs(20, 20, 20, 20, 20, 20, 20, 20, 20, 20)); v[0].outcome != "unresolved" {
		t.Errorf("noisy parent, slower change: got %s, want unresolved", v[0].outcome)
	}
	// Every change run beats every parent run: resolved despite the spread.
	if v := compareRuns(sp, noisy, runs(4, 4, 4, 4, 4, 4, 4, 4, 4, 4)); v[0].outcome != "better" {
		t.Errorf("noisy parent, every run faster: got %s, want better", v[0].outcome)
	}
	// Only the metrics BENCHMARK.json lists are judged.
	extra := runs(10, 10, 10, 10, 10, 10, 10, 10, 10, 10)
	for _, r := range extra {
		r.Metrics["error_rate"] = metric{Value: 0, Unit: "ratio"}
	}
	if v := compareRuns(sp, extra, extra); len(v) != 1 || v[0].metric != "read_p50_ms" {
		t.Errorf("unlisted metric judged: %+v", v)
	}
}
