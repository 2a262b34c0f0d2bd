package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"mosaic"
	"mosaic/client"
	"mosaic/internal/bench"
	"mosaic/internal/coord"
	"mosaic/internal/repl"
	"mosaic/internal/wire"
)

// workload names one traffic mix and how to set it up.
type workload struct {
	name    string
	clients int
	setups  int // set-ups per timed run; fleet-rw's are short, so it takes more
	setup   func(rc runConfig) (*system, error)
}

var workloads = map[string]workload{
	"serve-mix":  {"serve-mix", 2, 3, setupServeMix},
	"open-refit": {"open-refit", 2, 3, setupOpenRefit},
	"scan-large": {"scan-large", 1, 3, setupScanLarge},
	"fleet-rw":   {"fleet-rw", 2, 7, setupFleetRW},
}

// system is one booted workload: the target its clients drive plus what
// the run needs around the loop.
type system struct {
	target
	world *world
	// reference opens a fresh engine restored from the world's snapshot,
	// with the options whose answers the served system must reproduce.
	reference func() (*mosaic.DB, error)
	// counters reads cumulative per-layer counters (server, coordinator,
	// follower); the run reports their change over the loop. Names ending
	// in "_max" are reported as read.
	counters func() (map[string]float64, error)
	// replay runs the traced per-layer replay after the loop.
	replay func(rp *tracedRun) error
	close  func()
}

// visibilities of the Table 2 texts, in the order the mix cycles them.
var visibilities = []string{"CLOSED", "SEMI-OPEN", "OPEN"}

func withVisibility(q, vis string) string {
	return strings.Replace(q, "SELECT ", "SELECT "+vis+" ", 1)
}

// table2 returns the paper's Table 2 queries at one visibility.
func table2(vis string) []string {
	out := make([]string, len(bench.FlightQueries))
	for i, fq := range bench.FlightQueries {
		out[i] = withVisibility(fq.SQL, vis)
	}
	return out
}

// templates draws n texts of the Sec 5.3 random-query template
// SELECT AVG(a) FROM Flights WHERE b op thr at one visibility.
func templates(w *world, rng *rand.Rand, vis string, n int) []string {
	attrs := []string{"taxi_out", "taxi_in", "elapsed_time", "distance"}
	seen := map[string]bool{}
	var out []string
	for len(out) < n {
		agg, pv := attrs[rng.Intn(len(attrs))], attrs[rng.Intn(len(attrs))]
		op := ">"
		if rng.Intn(2) == 0 {
			op = "<"
		}
		q := fmt.Sprintf("SELECT %s AVG(%s) FROM Flights WHERE %s %s %d", vis, agg, pv, op, central(pv).draw(w, rng))
		if !seen[q] {
			seen[q] = true
			out = append(out, q)
		}
	}
	return out
}

func kindOf(vis string) string {
	switch vis {
	case "CLOSED":
		return kindClosed
	case "SEMI-OPEN":
		return kindSemiOpen
	default:
		return kindOpen
	}
}

// warm sends every text once, so caches are filled before timing starts.
func warm(do func(ctx context.Context, c int, req request) (*mosaic.Result, error), texts []string) error {
	for _, q := range texts {
		if _, err := do(context.Background(), 0, request{text: q}); err != nil {
			return fmt.Errorf("warm-up %q: %w", q, err)
		}
	}
	return nil
}

// httpClients returns one client per benchmark client, without retries: a
// refused request counts as failed.
func httpClients(url string, n int) []*client.Client {
	out := make([]*client.Client, n)
	for i := range out {
		out[i] = client.New(url)
	}
	return out
}

func httpDo(cls []*client.Client) func(ctx context.Context, c int, req request) (*mosaic.Result, error) {
	return func(ctx context.Context, c int, req request) (*mosaic.Result, error) {
		if req.kind == kindWrite {
			return nil, cls[c].ExecContext(ctx, req.text)
		}
		return cls[c].QueryContext(ctx, req.text)
	}
}

// serverCounters reads the per-layer counters of internal/server instances
// from their /statsz endpoints, summed.
func serverCounters(urls ...string) (map[string]float64, error) {
	out := map[string]float64{}
	for _, u := range urls {
		var st wire.StatsResponse
		if err := getJSON(u+"/statsz", &st); err != nil {
			return nil, err
		}
		out["server.shed"] += float64(st.Shed)
		out["server.rejected"] += float64(st.Rejected)
		out["server.timeouts"] += float64(st.Timeouts)
		if st.PlanCache != nil {
			out["core.plan_cache_hits"] += float64(st.PlanCache.Hits)
			out["core.plan_cache_lookups"] += float64(st.PlanCache.Hits + st.PlanCache.Misses)
		}
	}
	return out, nil
}

func getJSON(url string, into any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// servingWorld boots the shared world of serve-mix and open-refit: the
// 50k-row flights world behind one internal/server.
func servingWorld(rc runConfig) (*world, *served, error) {
	w, err := buildWorld(rc.seed, rc.scale.PopN, rc.scale.SampleFrac, rc.scale)
	if err != nil {
		return nil, nil, err
	}
	db, err := openDB(w.script, engineOptions(rc.scale))
	if err != nil {
		return nil, nil, err
	}
	sv, err := serve(db, nil)
	if err != nil {
		return nil, nil, err
	}
	return w, sv, nil
}

// setupServeMix: reads only, over HTTP. Client 0 sends OPEN Table 2
// queries; client 1 alternates CLOSED and SEMI-OPEN, half of them Sec 5.3
// template texts drawn from a pool twice the plan cache's size, so they
// mostly miss it.
func setupServeMix(rc runConfig) (*system, error) {
	w, sv, err := servingWorld(rc)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(rc.seed + 1))
	t2 := map[string][]string{}
	pool := map[string][]string{}
	var all []string
	for _, vis := range visibilities {
		t2[vis] = table2(vis)
		all = append(all, t2[vis]...)
		if vis != "OPEN" {
			pool[vis] = templates(w, rng, vis, rc.scale.Templates)
			all = append(all, pool[vis]...)
		}
	}
	cls := httpClients(sv.svc.url, 2)
	do := httpDo(cls)
	if err := warm(do, all); err != nil {
		sv.close()
		return nil, err
	}
	rngs, steps := clientRNGs(rc.seed, 2), make([]int, 2)
	return &system{
		target: target{
			clients: 2,
			next: func(c int) request {
				r := rngs[c]
				vis := "OPEN"
				if c == 1 {
					vis = visibilities[steps[c]%2]
				}
				steps[c]++
				if vis != "OPEN" && r.Intn(2) == 0 {
					return request{kind: kindOf(vis), text: pool[vis][r.Intn(len(pool[vis]))]}
				}
				return request{kind: kindOf(vis), text: t2[vis][r.Intn(len(t2[vis]))]}
			},
			do: do,
		},
		world:     w,
		reference: func() (*mosaic.DB, error) { return openDB(w.script, engineOptions(rc.scale)) },
		counters:  func() (map[string]float64, error) { return serverCounters(sv.svc.url) },
		replay: func(tr *tracedRun) error {
			return replayServing(tr, sv, cls[0], t2, pool, false)
		},
		close: sv.close,
	}, nil
}

// maxWrites caps the writes of one run, so the sample never grows past a
// training batch boundary and steps per epoch stay fixed.
const maxWrites = 100

// setupOpenRefit: client 0 writes a small batch, then runs SEMI-OPEN and
// OPEN reads, the first of each cold; client 1 issues CLOSED reads
// throughout.
func setupOpenRefit(rc runConfig) (*system, error) {
	w, sv, err := servingWorld(rc)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(rc.seed + 1))
	closed := append(table2("CLOSED"), templates(w, rng, "CLOSED", rc.scale.Templates)...)
	// Half the SEMI-OPEN texts are Sec 5.3 template texts, as in
	// serve-mix. The Table 2 texts alone are half scalar AVGs and half
	// GROUP BY carrier, so their median fell between the two kinds.
	semi := append(table2("SEMI-OPEN"), templates(w, rng, "SEMI-OPEN", len(bench.FlightQueries))...)
	open := table2("OPEN")
	cls := httpClients(sv.svc.url, 2)
	do := httpDo(cls)
	if err := warm(do, append(append(append([]string(nil), closed...), semi...), open...)); err != nil {
		sv.close()
		return nil, err
	}
	rngs := clientRNGs(rc.seed, 2)
	var cycle []request
	writes := 0
	return &system{
		target: target{
			clients: 2,
			next: func(c int) request {
				r := rngs[c]
				if c == 1 {
					return request{kind: kindClosed, text: closed[r.Intn(len(closed))]}
				}
				if len(cycle) == 0 {
					cycle = refitCycle(r, semi, open, writes < maxWrites)
					writes++
				}
				req := cycle[0]
				cycle = cycle[1:]
				return req
			},
			do:          do,
			writeScript: func(j int) string { return insertScript(rc.seed, j) },
			cycleEnd:    func() bool { return len(cycle) == 0 },
		},
		world:     w,
		reference: func() (*mosaic.DB, error) { return openDB(w.script, engineOptions(rc.scale)) },
		counters:  func() (map[string]float64, error) { return serverCounters(sv.svc.url) },
		replay: func(tr *tracedRun) error {
			t2 := map[string][]string{"CLOSED": table2("CLOSED"), "SEMI-OPEN": semi, "OPEN": open}
			return replayServing(tr, sv, cls[0], t2, nil, true)
		},
		close: sv.close,
	}, nil
}

// refitCycle is one round of the open-refit writer: a write, then the
// SEMI-OPEN Table 2 queries semiPasses times over and the OPEN ones once,
// each pass in a seeded order. Repeating the cheap SEMI-OPEN pass gives
// its warm latency enough samples; it adds a few milliseconds per round.
func refitCycle(r *rand.Rand, semi, open []string, write bool) []request {
	var out []request
	if write {
		out = append(out, request{kind: kindWrite})
	}
	for _, set := range []struct {
		texts      []string
		passes     int
		warm, cold string
	}{{semi, semiPasses, kindSemiOpen, kindSemiOpenCold}, {open, 1, kindOpen, kindOpenCold}} {
		for pass := 0; pass < set.passes; pass++ {
			for i, p := range r.Perm(len(set.texts)) {
				kind := set.warm
				if write && pass == 0 && i == 0 {
					kind = set.cold
				}
				out = append(out, request{kind: kind, text: set.texts[p]})
			}
		}
	}
	return out
}

const semiPasses = 8

func clientRNGs(seed int64, n int) []*rand.Rand {
	out := make([]*rand.Rand, n)
	for i := range out {
		out[i] = rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
	}
	return out
}

// literal is one seeded query literal on attr, drawn from the fraction
// [lo, hi] of the attribute's range.
type literal struct {
	attr   string
	lo, hi float64
}

func (l literal) draw(w *world, rng *rand.Rand) int {
	r := w.ranges[l.attr]
	return int(r[0] + (l.lo+(l.hi-l.lo)*rng.Float64())*(r[1]-r[0]))
}

// central is the Sec 5.3 template's literal range.
func central(attr string) literal { return literal{attr, 0.2, 0.8} }

// scanClass is one exec query class of scan-large; %s is the visibility
// and %d the literal. The group-by literals keep most rows, so group
// counts stay near the attributes' full cardinality.
type scanClass struct {
	name, format string
	lit          literal
	weight       int // reads per round and visibility
}

// scanClasses weights the mix so that 20% of reads are the cheap classes,
// 60% groupby_mid and 20% groupby_high: the median then falls inside
// groupby_mid and the 90th percentile inside groupby_high, never on the
// boundary between two classes.
var scanClasses = []scanClass{
	{"filter", "SELECT %s AVG(distance) FROM Flights WHERE elapsed_time > %d", central("elapsed_time"), 1},
	{"groupby_low", "SELECT %s carrier, AVG(taxi_out) FROM Flights WHERE distance > %d GROUP BY carrier", literal{"distance", 0.05, 0.2}, 1},
	{"groupby_mid", "SELECT %s distance, COUNT(*), AVG(taxi_in) FROM Flights WHERE taxi_out < %d GROUP BY distance", literal{"taxi_out", 0.8, 0.95}, 9},
	{"groupby_high", "SELECT %s distance, elapsed_time, COUNT(*) FROM Flights WHERE taxi_in < %d GROUP BY distance, elapsed_time", literal{"taxi_in", 0.8, 0.95}, 3},
	{"topk", "SELECT %s carrier, distance, elapsed_time FROM Flights WHERE taxi_out > %d ORDER BY distance DESC, elapsed_time, carrier LIMIT 100", literal{"taxi_out", 0.5, 0.8}, 1},
}

// variants is the number of literal variants of each scan-large class and
// fleet-rw shape.
const variants = 4

// setupScanLarge: one in-process client over a 200k-row sample, CLOSED and
// SEMI-OPEN over five exec query classes.
func setupScanLarge(rc runConfig) (*system, error) {
	w, err := buildWorld(rc.seed, rc.scale.LargePopN, rc.scale.LargeFrac, rc.scale)
	if err != nil {
		return nil, err
	}
	db, err := openDB(w.script, engineOptions(rc.scale))
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(rc.seed + 1))
	texts := map[string][]string{} // by class|visibility
	var all []string
	var round []request
	for _, cl := range scanClasses {
		for _, vis := range visibilities[:2] {
			key := cl.name + "|" + vis
			for v := 0; v < variants; v++ {
				q := fmt.Sprintf(cl.format, vis, cl.lit.draw(w, rng))
				texts[key] = append(texts[key], q)
				all = append(all, q)
			}
			for i := 0; i < cl.weight; i++ {
				round = append(round, request{kind: kindOf(vis), text: key})
			}
		}
	}
	do := func(ctx context.Context, _ int, req request) (*mosaic.Result, error) {
		return db.QueryContext(ctx, req.text)
	}
	if err := warm(do, all); err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(rc.seed*1_000_003 + 7))
	var order []int
	return &system{
		target: target{
			clients: 1,
			next: func(int) request {
				if len(order) == 0 {
					order = r.Perm(len(round))
				}
				req := round[order[0]]
				order = order[1:]
				set := texts[req.text]
				req.text = set[r.Intn(len(set))]
				return req
			},
			do: do,
		},
		world:     w,
		reference: func() (*mosaic.DB, error) { return openDB(w.script, engineOptions(rc.scale)) },
		replay:    func(tr *tracedRun) error { return replayScan(tr, db, texts) },
		close:     func() {},
	}, nil
}

// fleetShapes are the fleet scatter set: CLOSED / SEMI-OPEN aggregates with
// HAVING / ORDER / LIMIT, plus sample reads the coordinator passes through
// whole. %d is the literal; the pass-through projection's keeps its answer
// to a few dozen rows.
var fleetShapes = []struct {
	format string
	lit    literal
}{
	{"SELECT CLOSED COUNT(*) FROM Flights WHERE distance > %d", central("distance")},
	{"SELECT CLOSED AVG(distance) FROM Flights WHERE elapsed_time > %d", central("elapsed_time")},
	{"SELECT CLOSED SUM(distance), MIN(taxi_out), MAX(taxi_in) FROM Flights WHERE taxi_out < %d", central("taxi_out")},
	{"SELECT CLOSED carrier, COUNT(*) AS n, AVG(distance) FROM Flights WHERE elapsed_time > %d GROUP BY carrier HAVING n > 10 ORDER BY carrier LIMIT 5", central("elapsed_time")},
	{"SELECT SEMI-OPEN AVG(taxi_in) FROM Flights WHERE elapsed_time < %d", central("elapsed_time")},
	{"SELECT SEMI-OPEN carrier, AVG(elapsed_time) FROM Flights WHERE distance > %d GROUP BY carrier ORDER BY carrier", central("distance")},
	{"SELECT COUNT(*), AVG(distance) FROM FlightsSample WHERE taxi_in < %d", central("taxi_in")},
	{"SELECT carrier, distance FROM FlightsSample WHERE distance > %d", literal{"distance", 0.85, 0.92}},
	{"SELECT DISTINCT carrier FROM FlightsSample WHERE elapsed_time > %d", central("elapsed_time")},
}

// setupFleetRW: a coordinator over two shard servers plus one follower of
// shard 0, all in-process on loopback; reads scatter or pass through, and
// client 0 inserts every rc.scale.FleetWriteEvery requests.
func setupFleetRW(rc runConfig) (*system, error) {
	w, err := buildWorld(rc.seed, rc.scale.PopN, rc.scale.SampleFrac, rc.scale)
	if err != nil {
		return nil, err
	}
	opts := engineOptions(rc.scale)
	var closers []func()
	closeAll := func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	fail := func(err error) (*system, error) {
		closeAll()
		return nil, err
	}
	var shards []*served
	for i := 0; i < 2; i++ {
		db, err := openDB(w.script, opts)
		if err != nil {
			return fail(err)
		}
		s, err := serve(db, nil)
		if err != nil {
			return fail(err)
		}
		closers = append(closers, s.close)
		shards = append(shards, s)
	}
	fdb := mosaic.Open(&opts)
	f, err := repl.NewFollower(repl.Config{Primary: shards[0].svc.url, DB: fdb})
	if err != nil {
		return fail(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	err = f.Start(ctx)
	cancel()
	if err != nil {
		return fail(fmt.Errorf("follower bootstrap: %w", err))
	}
	closers = append(closers, f.Close)
	fsv, err := serve(fdb, f)
	if err != nil {
		return fail(err)
	}
	closers = append(closers, fsv.close)
	co, err := coord.New(coord.Config{
		Shards:         []string{shards[0].svc.url, shards[1].svc.url},
		Replicas:       map[int][]string{0: {fsv.svc.url}},
		Retry:          client.RetryPolicy{MaxRetries: 2, BaseBackoff: 10 * time.Millisecond, Budget: 30 * time.Second},
		RequestTimeout: 5 * time.Minute,
	})
	if err != nil {
		return fail(err)
	}
	closers = append(closers, co.Close)
	ctx, cancel = context.WithTimeout(context.Background(), 30*time.Second)
	err = co.Sync(ctx)
	cancel()
	if err != nil {
		return fail(fmt.Errorf("fleet sync: %w", err))
	}
	csv, err := serveHTTP(co.Handler())
	if err != nil {
		return fail(err)
	}
	closers = append(closers, csv.stop)

	rng := rand.New(rand.NewSource(rc.seed + 1))
	var texts []string
	for _, sh := range fleetShapes {
		for v := 0; v < variants; v++ {
			texts = append(texts, fmt.Sprintf(sh.format, sh.lit.draw(w, rng)))
		}
	}
	cls := httpClients(csv.url, 2)
	do := httpDo(cls)
	if err := warm(do, texts); err != nil {
		return fail(err)
	}
	var lagMax atomic.Int64
	rngs, steps := clientRNGs(rc.seed, 2), make([]int, 2)
	return &system{
		target: target{
			clients: 2,
			next: func(c int) request {
				steps[c]++
				if every := rc.scale.FleetWriteEvery; c == 0 && steps[c]%every == 0 && steps[c]/every <= maxWrites {
					return request{kind: kindWrite}
				}
				q := texts[rngs[c].Intn(len(texts))]
				kind := kindClosed
				if strings.Contains(q, "SEMI-OPEN") {
					kind = kindSemiOpen
				}
				return request{kind: kind, text: q}
			},
			do:          do,
			writeScript: func(j int) string { return insertScript(rc.seed, j) },
			tick: func() {
				lag := int64(shards[0].db.Engine().Generation()) - int64(f.Generation())
				if lag > lagMax.Load() {
					lagMax.Store(lag)
				}
			},
		},
		world: w,
		reference: func() (*mosaic.DB, error) {
			ref := opts
			ref.Shards = 2 // the fleet's answer contract: in-process scatter-gather at the same shard count
			return openDB(w.script, ref)
		},
		counters: func() (map[string]float64, error) {
			out, err := serverCounters(shards[0].svc.url, shards[1].svc.url, fsv.svc.url)
			if err != nil {
				return nil, err
			}
			var st wire.CoordStatsResponse
			if err := getJSON(csv.url+"/statsz", &st); err != nil {
				return nil, err
			}
			out["coord.scattered"] = float64(st.Scattered)
			out["coord.pass_through"] = float64(st.PassThrough)
			out["coord.failovers"] = float64(st.Failovers)
			out["coord.shard_errors"] = float64(st.ShardErrors)
			out["coord.primary_reads"] = float64(st.PrimaryReads)
			out["coord.replica_reads"] = float64(st.ReplicaReads)
			fs := f.Stats()
			out["repl.delta_syncs"] = float64(fs.DeltaSyncs)
			out["repl.full_syncs"] = float64(fs.FullSyncs)
			out["repl.applied_stmts"] = float64(fs.AppliedStmts)
			out["repl.lag_generations_max"] = float64(lagMax.Load())
			return out, nil
		},
		replay: func(tr *tracedRun) error {
			return replayFleet(tr, cls[0], shards, texts)
		},
		close: closeAll,
	}, nil
}
