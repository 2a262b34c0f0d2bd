package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"mosaic"
	"mosaic/client"
	"mosaic/internal/catalog"
	"mosaic/internal/core"
	"mosaic/internal/exec"
	"mosaic/internal/ipf"
	"mosaic/internal/marginal"
	"mosaic/internal/sql"
	"mosaic/internal/swg"
	"mosaic/internal/table"
	"mosaic/internal/value"
	"mosaic/internal/wire"
)

// span is one timed call into a layer, recorded from the benchmark's side of
// the call. Spans of one replayed request share Req; a layer span's Parent
// is its request's root span.
type span struct {
	Req    int     `json:"req"`
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Layer  string  `json:"layer"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracedLayers are the layers the replay records spans for; server has none
// (it is only reachable over HTTP) and shows as server.overhead_us.
var tracedLayers = []string{"wire", "sql", "core", "ipf", "swg", "exec", "coord"}

// tracedRun replays a sample of a workload's requests, first untraced and
// then broken into their calls to each layer's exported functions.
type tracedRun struct {
	seed    int64
	sc      scale
	rng     *rand.Rand
	t0      time.Time
	spans   []span
	root    int
	wallUs  float64 // untraced wall time of the replayed requests
	samples map[string][]float64
	mem     runtime.MemStats
	memUs   float64 // time spent reading allocation counters
}

func newTracedRun(seed int64, sc scale) *tracedRun {
	return &tracedRun{
		seed:    seed,
		sc:      sc,
		rng:     rand.New(rand.NewSource(seed + 99)),
		t0:      time.Now(),
		root:    -1,
		samples: map[string][]float64{},
	}
}

func (t *tracedRun) now() float64 { return float64(time.Since(t.t0).Nanoseconds()) / 1e3 }

// begin opens the root span of one replayed request whose untraced run took
// wall.
func (t *tracedRun) begin(kind string, wall time.Duration) {
	req := 0
	if t.root >= 0 {
		req = t.spans[t.root].Req + 1
	}
	t.root = len(t.spans)
	t.spans = append(t.spans, span{Req: req, ID: t.root, Parent: -1, Layer: "request", Name: kind, Start: t.now()})
	t.wallUs += float64(wall.Nanoseconds()) / 1e3
}

func (t *tracedRun) finish() { t.spans[t.root].End = t.now() }

// call runs fn as a span of layer and returns its duration in
// microseconds.
func (t *tracedRun) call(layer, name string, fn func() error) (float64, error) {
	s := span{Req: t.spans[t.root].Req, ID: len(t.spans), Parent: t.root, Layer: layer, Name: name, Start: t.now()}
	err := fn()
	s.End = t.now()
	t.spans = append(t.spans, s)
	return s.dur(), err
}

// callAlloc is call that also returns the bytes allocated during fn. It
// reads runtime.MemStats, which stops the world, outside the span; the
// time that takes counts as tracing overhead.
func (t *tracedRun) callAlloc(layer, name string, fn func() error) (float64, float64, error) {
	m0 := time.Now()
	runtime.ReadMemStats(&t.mem)
	a0 := t.mem.TotalAlloc
	t.memUs += usOf(time.Since(m0))
	us, err := t.call(layer, name, fn)
	m1 := time.Now()
	runtime.ReadMemStats(&t.mem)
	t.memUs += usOf(time.Since(m1))
	return us, float64(t.mem.TotalAlloc - a0), err
}

func (t *tracedRun) add(name string, v float64) { t.samples[name] = append(t.samples[name], v) }

func usOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// report turns the samples and spans into per-layer metrics.
func (t *tracedRun) report(res *result) {
	for name, xs := range t.samples {
		res.set(name, unitOf(name), median(xs), len(xs))
	}
	var reqs, layerSpans int
	var covered, replayUs float64
	self := map[string]float64{}
	count := map[string]int{}
	for _, s := range t.spans {
		if s.Parent < 0 {
			reqs++
			replayUs += s.dur()
			continue
		}
		self[s.Layer] += s.dur()
		count[s.Layer]++
		covered += s.dur()
		layerSpans++
	}
	for _, l := range tracedLayers {
		res.set(l+".self_ms", "ms", self[l]/1e3/float64(max(reqs, 1)), count[l])
		res.set(l+".spans", "count", float64(count[l]), reqs)
	}
	res.set("trace.requests", "count", float64(reqs), reqs)
	if t.wallUs > 0 {
		res.set("trace.coverage", "ratio", covered/t.wallUs, reqs)
	}
	res.set("trace.unattributed_ms", "ms", (t.wallUs-covered)/1e3/float64(max(reqs, 1)), reqs)
	if replayUs > 0 {
		res.set("trace.overhead_pct", "%", 100*(t.spanCostUs()*float64(layerSpans)+t.memUs)/replayUs, layerSpans)
	}
}

// spanCostUs measures the cost of recording one span, in microseconds.
// trace.overhead_pct charges it to every layer span, plus the time spent
// reading allocation counters.
func (t *tracedRun) spanCostUs() float64 {
	probe := newTracedRun(0, t.sc)
	probe.begin("probe", 0)
	const n = 2000
	start := time.Now()
	for i := 0; i < n; i++ {
		_, _ = probe.call("probe", "noop", func() error { return nil })
	}
	return usOf(time.Since(start)) / n
}

// unitOf derives a per-layer metric's unit from its name.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_ms") || strings.Contains(name, "_ms."):
		return "ms"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	case strings.HasSuffix(name, "_bytes"):
		return "bytes"
	case strings.HasSuffix(name, "_ratio") || strings.HasSuffix(name, "_share"):
		return "ratio"
	}
	return "count"
}

// layerReplayer replays reads against one engine through the same layer
// calls the engine makes: sql.ParseQuery, ipf.FitContext,
// core.AugmentMarginals + swg.New + (*swg.Model).TrainContext,
// GenerateSeededWeightedContext and exec.RunContext. Fits and models made
// outside a cold replay are cached per engine generation.
type layerReplayer struct {
	tr    *tracedRun
	db    *mosaic.DB
	gen   uint64
	ipfW  []float64
	model *swg.Model
}

func (rp *layerReplayer) engine() *core.Engine { return rp.db.Engine() }

func (rp *layerReplayer) refresh() {
	if g := rp.engine().Generation(); g != rp.gen {
		rp.gen, rp.ipfW, rp.model = g, nil, nil
	}
}

func (rp *layerReplayer) flights() (*catalog.Sample, []*marginal.Marginal, error) {
	cat := rp.engine().Catalog()
	s, ok := cat.Sample("FlightsSample")
	pop, ok2 := cat.Population("Flights")
	if !ok || !ok2 {
		return nil, nil, fmt.Errorf("flights world not loaded")
	}
	return s, pop.MarginalList(), nil
}

func (rp *layerReplayer) parse(text string) (*sql.Select, error) {
	var sel *sql.Select
	us, err := rp.tr.call("sql", "sql.ParseQuery", func() (err error) {
		sel, err = sql.ParseQuery(text)
		return err
	})
	rp.tr.add("sql.parse_us", us)
	return sel, err
}

// step runs fn, as a traced span when the replay is cold; warm replays
// prepare fits and models outside the spans.
func (rp *layerReplayer) step(cold bool, layer, name string, fn func() error) (us, alloc float64, err error) {
	if !cold {
		return 0, 0, fn()
	}
	return rp.tr.callAlloc(layer, name, fn)
}

// fit returns the IPF weights of the sample, fitting inside a span when the
// replay is cold.
func (rp *layerReplayer) fit(s *catalog.Sample, margs []*marginal.Marginal, cold bool) ([]float64, error) {
	if !cold && rp.ipfW != nil {
		return rp.ipfW, nil
	}
	var fr ipf.Result
	us, _, err := rp.step(cold, "ipf", "ipf.FitContext", func() (err error) {
		rp.ipfW, fr, err = ipf.FitContext(context.Background(), s.Table, margs, rp.engine().Options().IPF)
		return err
	})
	if err != nil {
		return nil, err
	}
	if cold {
		rp.tr.add("ipf.fit_ms", us/1e3)
		rp.tr.add("ipf.iterations", float64(fr.Iterations))
	}
	return rp.ipfW, nil
}

// train builds the M-SWG the engine would train for an OPEN read, inside
// spans when the replay is cold.
func (rp *layerReplayer) train(s *catalog.Sample, margs []*marginal.Marginal, cold bool) (*swg.Model, error) {
	if !cold && rp.model != nil {
		return rp.model, nil
	}
	opts := rp.engine().Options()
	cfg := opts.SWG
	if cfg.Seed == 0 {
		cfg.Seed = opts.Seed
	}
	if cfg.Workers == 0 {
		cfg.Workers = opts.Workers
	}
	var full []*marginal.Marginal
	if _, _, err := rp.step(cold, "core", "core.AugmentMarginals", func() (err error) {
		full, err = core.AugmentMarginals(s.Table, margs)
		return err
	}); err != nil {
		return nil, err
	}
	var m *swg.Model
	us, alloc, err := rp.step(cold, "swg", "swg.New+TrainContext", func() (err error) {
		if m, err = swg.New(s.Table, full, cfg); err != nil {
			return err
		}
		return m.TrainContext(context.Background())
	})
	if err != nil {
		return nil, err
	}
	if cold {
		steps := m.Config().Epochs * m.Config().StepsPerEpoch
		rp.tr.add("swg.train_ms", us/1e3)
		rp.tr.add("swg.train_step_ms", us/1e3/float64(max(steps, 1)))
		rp.tr.add("swg.train_alloc_mb", alloc/(1<<20))
	}
	rp.model = m
	return m, nil
}

// scan picks the table and weights the engine scans for a CLOSED,
// SEMI-OPEN or direct sample read.
func (rp *layerReplayer) scan(sel *sql.Select, cold bool) (*table.Table, exec.Options, error) {
	s, margs, err := rp.flights()
	if err != nil {
		return nil, exec.Options{}, err
	}
	opts := exec.Options{Weighted: true, Workers: rp.engine().Options().Workers}
	if strings.EqualFold(sel.From, "FlightsSample") {
		return s.Table, opts, nil
	}
	switch sel.Visibility {
	case sql.VisibilityClosed:
		opts.WeightOverride = s.SeedWeights()
	case sql.VisibilitySemiOpen, sql.VisibilityDefault:
		if opts.WeightOverride, err = rp.fit(s, margs, cold); err != nil {
			return nil, opts, err
		}
	default:
		return nil, opts, fmt.Errorf("no single scan answers %v", sel.Visibility)
	}
	return s.Table, opts, nil
}

// query replays one read and returns its answer.
func (rp *layerReplayer) query(text string, cold bool) (*mosaic.Result, error) {
	rp.refresh()
	sel, err := rp.parse(text)
	if err != nil {
		return nil, err
	}
	if sel.Visibility != sql.VisibilityOpen {
		t, opts, err := rp.scan(sel, cold)
		if err != nil {
			return nil, err
		}
		return rp.exec(t, sel, opts)
	}
	return rp.open(sel, cold)
}

// open replays an OPEN read the way the engine answers it: replicate r is
// generated under the name "<sample>_gen<r>" with seed replicateSeed(engine
// seed, r) and uniform weight population/rows, and an aggregate query runs
// on each replicate without its ORDER BY, HAVING and LIMIT, which apply to
// the combined answer. Unlike the engine, which spreads replicates over
// its Workers, the replay runs them one after another, so each replicate's
// spans time it alone.
func (rp *layerReplayer) open(sel *sql.Select, cold bool) (*mosaic.Result, error) {
	s, margs, err := rp.flights()
	if err != nil {
		return nil, err
	}
	m, err := rp.train(s, margs, cold)
	if err != nil {
		return nil, err
	}
	opts := rp.engine().Options()
	n := opts.GeneratedRows
	if n <= 0 {
		n = s.Table.Len()
	}
	w := margs[0].Total() / float64(n)
	q := *sel
	reps := opts.OpenSamples
	single := !sel.HasAggregates() && len(sel.GroupBy) == 0
	if single {
		reps = 1 // the engine answers a non-aggregate OPEN read from replicate 0
	} else {
		q.OrderBy, q.Having, q.Limit = nil, nil, -1
	}
	results := make([]*exec.Result, reps)
	for r := range results {
		var gen *table.Table
		us, alloc, err := rp.tr.callAlloc("swg", "GenerateSeededWeightedContext", func() (err error) {
			gen, err = m.GenerateSeededWeightedContext(context.Background(), fmt.Sprintf("%s_gen%d", s.Name, r), n, replicateSeed(opts.Seed, r), w)
			return err
		})
		if err != nil {
			return nil, err
		}
		rp.tr.add("swg.generate_ms", us/1e3)
		rp.tr.add("swg.generate_alloc_mb", alloc/(1<<20))
		if results[r], err = rp.exec(gen, &q, exec.Options{Weighted: true, ForceRow: opts.RowExec, Workers: opts.Workers}); err != nil {
			return nil, err
		}
	}
	if single {
		return results[0], nil
	}
	var res *exec.Result
	_, err = rp.tr.call("core", "OPEN combine+exec.ApplyPostAggregation", func() (err error) {
		if res, err = combineReplicates(results, sel); err != nil {
			return err
		}
		return exec.ApplyPostAggregation(context.Background(), res, sel)
	})
	return res, err
}

// replicateSeed is the engine's derivation of OPEN replicate r's seed from
// the engine seed (a splitmix64 finalizer). The replayed OPEN answer is
// checked against the system's, so a drift from the engine shows.
func replicateSeed(base int64, r int) int64 {
	x := uint64(base) + 0x9E3779B97F4A7C15*(uint64(r)+1)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x)
}

// combineReplicates is the engine's OPEN combine (paper Sec 5.3): a group
// is kept only if it appears in every replicate, in replicate 0's order,
// and each aggregate cell is the average of its replicate values,
// accumulated in replicate order; a NULL cell in any replicate makes the
// combined cell NULL.
func combineReplicates(results []*exec.Result, sel *sql.Select) (*exec.Result, error) {
	type acc struct {
		row   []value.Value
		sts   []exec.AggState
		nulls []bool
		seen  int
	}
	accs := map[string]*acc{}
	var order []string
	for ri, res := range results {
		seenThis := map[string]bool{}
		for _, row := range res.Rows {
			var kb strings.Builder
			for ci, it := range sel.Items {
				if it.Agg == sql.AggNone {
					kb.WriteString(row[ci].HashKey())
					kb.WriteByte('\x1f')
				}
			}
			k := kb.String()
			if seenThis[k] {
				continue
			}
			seenThis[k] = true
			a, ok := accs[k]
			if !ok && ri == 0 {
				a = &acc{row: row, sts: make([]exec.AggState, len(row)), nulls: make([]bool, len(row))}
				accs[k] = a
				order = append(order, k)
			}
			if a == nil || a.seen != ri {
				continue // missed an earlier replicate
			}
			for ci, it := range sel.Items {
				switch {
				case it.Agg == sql.AggNone:
				case row[ci].IsNull():
					a.nulls[ci] = true
				default:
					if err := a.sts[ci].Accumulate(sql.AggAvg, row[ci], 1); err != nil {
						return nil, err
					}
				}
			}
			a.seen = ri + 1
		}
	}
	out := &exec.Result{Columns: results[0].Columns}
	for _, k := range order {
		a := accs[k]
		if a.seen != len(results) {
			continue
		}
		row := make([]value.Value, len(a.row))
		for ci, it := range sel.Items {
			switch {
			case it.Agg == sql.AggNone:
				row[ci] = a.row[ci]
			case a.nulls[ci]:
				row[ci] = value.Null()
			default:
				row[ci] = a.sts[ci].Finalize(sql.AggAvg)
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

func (rp *layerReplayer) exec(t *table.Table, sel *sql.Select, opts exec.Options) (*mosaic.Result, error) {
	var res *exec.Result
	us, alloc, err := rp.tr.callAlloc("exec", "exec.RunContext", func() (err error) {
		res, err = exec.RunContext(context.Background(), t, sel, opts)
		return err
	})
	if err != nil {
		return nil, err
	}
	rp.tr.add("exec.run_ms."+execClass(sel), us/1e3)
	rp.tr.add("exec.alloc_mb", alloc/(1<<20))
	rp.tr.add("exec.groups_out", float64(len(res.Rows)))
	return res, nil
}

// execClass names a query's exec class by its shape.
func execClass(sel *sql.Select) string {
	switch {
	case len(sel.GroupBy) >= 2:
		return "groupby_high"
	case len(sel.GroupBy) == 1 && strings.EqualFold(sel.GroupBy[0], "carrier"):
		return "groupby_low"
	case len(sel.GroupBy) == 1:
		return "groupby_mid"
	case len(sel.OrderBy) > 0 && sel.Limit >= 0:
		return "topk"
	}
	return "filter"
}

// wireLeg replays the HTTP leg of a read's answer: the server's
// wire.EncodeResult plus JSON encoding, and the client's JSON decoding
// plus wire.DecodeResult.
func (t *tracedRun) wireLeg(got *mosaic.Result) error {
	var body []byte
	us, err := t.call("wire", "wire.EncodeResult+json.Marshal", func() (err error) {
		body, err = json.Marshal(wire.EncodeResult(got))
		return err
	})
	if err != nil {
		return err
	}
	t.add("wire.encode_us", us)
	t.add("wire.response_bytes", float64(len(body)))
	us, err = t.call("wire", "json.Unmarshal+wire.DecodeResult", func() error {
		var w wire.Result
		if err := json.Unmarshal(body, &w); err != nil {
			return err
		}
		_, err := wire.DecodeResult(&w)
		return err
	})
	t.add("wire.decode_us", us)
	return err
}

// requestLeg replays the JSON round trip of a request body.
func (t *tracedRun) requestLeg(body any) error {
	_, err := t.call("wire", "json request", func() error {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		return json.Unmarshal(b, body)
	})
	return err
}

func visName(v sql.Visibility) string {
	switch v {
	case sql.VisibilityClosed:
		return "closed"
	case sql.VisibilityOpen:
		return "open"
	}
	return "semiopen"
}

// checkReplay fails when a replayed answer differs from the answer the
// system gave: the replay then did not replay that request.
func checkReplay(text string, replayed, got *mosaic.Result) error {
	if digest(replayed) != digest(got) {
		return fmt.Errorf("replay of %q answered differently from the system", text)
	}
	return nil
}

// replayColdLocal measures a cold read on a fresh engine restored from
// snap (untraced), then replays it cold.
func replayColdLocal(tr *tracedRun, rp *layerReplayer, snap, text string) error {
	fresh, err := openDB(snap, engineOptions(tr.sc))
	if err != nil {
		return err
	}
	t0 := time.Now()
	got, err := fresh.Query(text)
	wall := time.Since(t0)
	if err != nil {
		return err
	}
	sel, err := sql.ParseQuery(text)
	if err != nil {
		return err
	}
	tr.add("core.query_ms."+visName(sel.Visibility)+"_cold", float64(wall.Microseconds())/1e3)
	tr.begin("cold "+visName(sel.Visibility), wall)
	defer tr.finish()
	replayed, err := rp.query(text, true)
	if err != nil {
		return err
	}
	return checkReplay(text, replayed, got)
}

// replayWrite sends one INSERT untraced through cli, then replays it as
// sql.ParseScript plus an in-process DB.Exec on a copy of the state before
// the write.
func replayWrite(tr *tracedRun, cli *client.Client, before string, script string) error {
	scratch, err := openDB(before, engineOptions(tr.sc))
	if err != nil {
		return err
	}
	t0 := time.Now()
	err = cli.ExecContext(context.Background(), script)
	wall := time.Since(t0)
	if err != nil {
		return err
	}
	tr.begin("write", wall)
	defer tr.finish()
	if err := tr.requestLeg(&wire.ExecRequest{Script: script}); err != nil {
		return err
	}
	if _, err := tr.call("sql", "sql.ParseScript", func() error { _, err := sql.ParseScript(script); return err }); err != nil {
		return err
	}
	us, err := tr.call("core", "DB.Exec", func() error { return scratch.Exec(script) })
	tr.add("core.write_ms", us/1e3)
	return err
}

// replayHTTPRead sends one read untraced over HTTP, times the engine alone
// on the same statement, then replays the read layer by layer.
func replayHTTPRead(tr *tracedRun, rp *layerReplayer, cli *client.Client, text string) error {
	t0 := time.Now()
	got, err := cli.QueryContext(context.Background(), text)
	wall := time.Since(t0)
	if err != nil {
		return err
	}
	sel, err := sql.ParseQuery(text)
	if err != nil {
		return err
	}
	c0 := time.Now()
	if _, err := rp.engine().QueryContext(context.Background(), sel); err != nil {
		return err
	}
	coreT := time.Since(c0)
	tr.add("core.query_ms."+visName(sel.Visibility), float64(coreT.Microseconds())/1e3)
	tr.add("server.overhead_us", usOf(wall-coreT))
	tr.begin("http "+visName(sel.Visibility), wall)
	defer tr.finish()
	if err := tr.requestLeg(&wire.QueryRequest{Query: text}); err != nil {
		return err
	}
	replayed, err := rp.query(text, false)
	if err != nil {
		return err
	}
	if err := checkReplay(text, replayed, got); err != nil {
		return err
	}
	return tr.wireLeg(got)
}

// replayServing is the traced replay of serve-mix and open-refit: an
// optional write, a cold OPEN and a cold SEMI-OPEN, then warm reads of
// every visibility over HTTP.
func replayServing(tr *tracedRun, sv *served, cli *client.Client, t2, pool map[string][]string, write bool) error {
	rp := &layerReplayer{tr: tr, db: sv.db}
	if write {
		before, err := sv.db.Snapshot()
		if err != nil {
			return err
		}
		if err := replayWrite(tr, cli, before, insertScript(tr.seed, 1<<20)); err != nil {
			return fmt.Errorf("write: %w", err)
		}
	}
	snap, err := sv.db.Snapshot()
	if err != nil {
		return err
	}
	for _, vis := range []string{"OPEN", "SEMI-OPEN"} {
		q := t2[vis][tr.rng.Intn(len(t2[vis]))]
		if err := replayColdLocal(tr, rp, snap, q); err != nil {
			return fmt.Errorf("cold %q: %w", q, err)
		}
	}
	for _, step := range []struct {
		vis string
		n   int
	}{{"CLOSED", 4}, {"SEMI-OPEN", 4}, {"OPEN", 2}} {
		for i := 0; i < step.n; i++ {
			set := t2[step.vis]
			if i%2 == 1 && len(pool[step.vis]) > 0 {
				set = pool[step.vis]
			}
			q := set[tr.rng.Intn(len(set))]
			if err := replayHTTPRead(tr, rp, cli, q); err != nil {
				return fmt.Errorf("%q: %w", q, err)
			}
		}
	}
	return nil
}

// replayScan is scan-large's traced replay: one cold SEMI-OPEN on a fresh
// engine, then two in-process reads of every class and visibility.
func replayScan(tr *tracedRun, db *mosaic.DB, texts map[string][]string) error {
	rp := &layerReplayer{tr: tr, db: db}
	snap, err := db.Snapshot()
	if err != nil {
		return err
	}
	if err := replayColdLocal(tr, rp, snap, texts["filter|SEMI-OPEN"][0]); err != nil {
		return fmt.Errorf("cold: %w", err)
	}
	keys := make([]string, 0, len(texts))
	for k := range texts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		for i := 0; i < 2; i++ {
			q := texts[k][tr.rng.Intn(len(texts[k]))]
			p0 := time.Now()
			sel, err := sql.ParseQuery(q)
			if err != nil {
				return err
			}
			c0 := time.Now()
			got, err := db.Engine().QueryContext(context.Background(), sel)
			if err != nil {
				return err
			}
			wall := time.Since(p0)
			tr.add("core.query_ms."+visName(sel.Visibility), float64(time.Since(c0).Microseconds())/1e3)
			tr.begin("local "+visName(sel.Visibility), wall)
			replayed, err := rp.query(q, false)
			tr.finish()
			if err != nil {
				return fmt.Errorf("%q: %w", q, err)
			}
			if err := checkReplay(q, replayed, got); err != nil {
				return err
			}
		}
	}
	return nil
}

// replayFleet is fleet-rw's traced replay: one write through the
// coordinator, then two reads of every fleet shape. A scatter read replays
// as exec.PartialAggregate per shard, the partial's wire codec, and
// exec.GatherPartials; a pass-through read as one shard's exec.RunContext.
func replayFleet(tr *tracedRun, cli *client.Client, shards []*served, texts []string) error {
	before, err := shards[0].db.Snapshot()
	if err != nil {
		return err
	}
	if err := replayWrite(tr, cli, before, insertScript(tr.seed, 1<<20)); err != nil {
		return fmt.Errorf("write: %w", err)
	}
	rps := make([]*layerReplayer, len(shards))
	direct := make([]*client.Client, len(shards))
	for i, s := range shards {
		rps[i] = &layerReplayer{tr: tr, db: s.db}
		direct[i] = client.New(s.svc.url)
	}
	for shape := 0; shape < len(fleetShapes); shape++ {
		for i := 0; i < 2; i++ {
			q := texts[shape*variants+tr.rng.Intn(variants)]
			if err := replayFleetRead(tr, rps, cli, direct, q); err != nil {
				return fmt.Errorf("%q: %w", q, err)
			}
		}
	}
	return nil
}

func replayFleetRead(tr *tracedRun, rps []*layerReplayer, cli *client.Client, direct []*client.Client, q string) error {
	ctx := context.Background()
	t0 := time.Now()
	got, err := cli.QueryContext(ctx, q)
	wall := time.Since(t0)
	if err != nil {
		return err
	}
	sel, err := sql.ParseQuery(q)
	if err != nil {
		return err
	}
	scatter := sel.Visibility != sql.VisibilityOpen && sel.HasAggregates()
	// The coordinator's own cost: its round trip minus the slowest shard
	// call it waited for, each shard asked directly.
	var slowest time.Duration
	for i, d := range direct {
		s0 := time.Now()
		if scatter {
			_, err = d.PartialContext(ctx, &wire.PartialRequest{Query: q, Shard: i, Shards: len(direct)})
		} else if i == 0 {
			_, err = d.QueryContext(ctx, q)
		}
		if err != nil {
			return err
		}
		slowest = max(slowest, time.Since(s0))
	}
	tr.add("coord.overhead_us", usOf(wall-slowest))
	tr.begin("fleet "+visName(sel.Visibility), wall)
	defer tr.finish()
	if err := tr.requestLeg(&wire.QueryRequest{Query: q}); err != nil {
		return err
	}
	var replayed *mosaic.Result
	if !scatter {
		if replayed, err = rps[0].query(q, false); err != nil {
			return err
		}
	} else {
		if replayed, err = replayScatter(tr, rps, q); err != nil {
			return err
		}
	}
	if err := checkReplay(q, replayed, got); err != nil {
		return err
	}
	return tr.wireLeg(got)
}

func replayScatter(tr *tracedRun, rps []*layerReplayer, q string) (*mosaic.Result, error) {
	ctx := context.Background()
	partials := make([]*exec.ShardPartial, len(rps))
	var sel *sql.Select
	for i, rp := range rps {
		rp.refresh()
		var err error
		if sel, err = rp.parse(q); err != nil {
			return nil, err
		}
		t, opts, err := rp.scan(sel, false)
		if err != nil {
			return nil, err
		}
		var p *exec.ShardPartial
		us, err := tr.call("exec", "exec.PartialAggregate", func() (err error) {
			var handled bool
			p, handled, err = exec.PartialAggregate(ctx, t.Snapshot(), sel, opts, i, len(rps))
			if err == nil && !handled {
				err = fmt.Errorf("shape not partial-executable")
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		tr.add("exec.run_ms."+execClass(sel), us/1e3)
		var body []byte
		if _, err := tr.call("wire", "wire.EncodePartial+json.Marshal", func() error {
			w, err := wire.EncodePartial(p, rp.gen)
			if err != nil {
				return err
			}
			body, err = json.Marshal(w)
			return err
		}); err != nil {
			return nil, err
		}
		us, err = tr.call("wire", "json.Unmarshal+wire.DecodePartial", func() error {
			var w wire.PartialResponse
			if err := json.Unmarshal(body, &w); err != nil {
				return err
			}
			p, err = wire.DecodePartial(&w)
			return err
		})
		if err != nil {
			return nil, err
		}
		tr.add("wire.partial_decode_us", us)
		partials[i] = p
	}
	var res *exec.Result
	_, err := tr.call("coord", "exec.GatherPartials", func() (err error) {
		res, err = exec.GatherPartials(ctx, sel, partials)
		return err
	})
	return res, err
}
