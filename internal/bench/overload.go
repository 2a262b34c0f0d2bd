package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"mosaic"
	"mosaic/client"
	"mosaic/internal/faulty"
	"mosaic/internal/server"
	"mosaic/internal/wire"
)

// OverloadConfig tunes the overload-robustness experiment: a deliberately
// undersized server (tiny admission limits) on the flights workload, reached
// through a flaky reverse proxy that drops and truncates connections, driven
// by batch clients hammering OPEN queries while interactive clients issue
// deadline-bounded CLOSED/SEMI-OPEN queries through the retrying client.
//
// The experiment fails loudly unless:
//
//   - every delivered answer — through proxy faults and retries — is
//     byte-identical to an in-process reference engine on the same snapshot;
//   - every 503 the server sheds carries a Retry-After hint;
//   - doomed requests (zero propagated deadline) are shed with ZERO engine
//     work (the per-visibility query counters must not move);
//   - batch saturation leaves interactive slots free: interactive queries
//     keep completing inside their deadline while batch floods the server.
type OverloadConfig struct {
	Flights               FlightsConfig
	BatchClients          int           // concurrent batch hammerers; default 4
	InteractiveClients    int           // concurrent interactive clients; default 4
	QueriesPerClient      int           // interactive queries per client; default 10
	BatchQueriesPerClient int           // batch queries per client; default 4
	MaxConcurrent         int           // total admission slots; default 4
	BatchMaxConcurrent    int           // batch slot cap; default 2
	InteractiveDeadline   time.Duration // per-interactive-query deadline; default 15s
	DoomedProbes          int           // zero-deadline requests; default 5
	DropEvery             int           // proxy: drop every Nth connection; default 7
	TruncateEvery         int           // proxy: truncate every Nth connection; default 11
}

func (c OverloadConfig) withDefaults() OverloadConfig {
	if c.BatchClients <= 0 {
		c.BatchClients = 4
	}
	if c.InteractiveClients <= 0 {
		c.InteractiveClients = 4
	}
	if c.QueriesPerClient <= 0 {
		c.QueriesPerClient = 10
	}
	if c.BatchQueriesPerClient <= 0 {
		c.BatchQueriesPerClient = 4
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 4
	}
	if c.BatchMaxConcurrent <= 0 {
		c.BatchMaxConcurrent = 2
	}
	if c.InteractiveDeadline <= 0 {
		c.InteractiveDeadline = 15 * time.Second
	}
	if c.DoomedProbes <= 0 {
		c.DoomedProbes = 5
	}
	if c.DropEvery <= 0 {
		c.DropEvery = 7
	}
	if c.TruncateEvery <= 0 {
		c.TruncateEvery = 11
	}
	return c
}

// OverloadResult is the experiment's report.
type OverloadResult struct {
	InteractiveOK    int // interactive answers delivered and verified
	InteractiveGaveUp int // interactive queries that exhausted their retry budget
	BatchOK          int // batch answers delivered and verified
	BatchGaveUp      int
	Verified         int // answers compared byte-for-byte against the reference
	DoomedShed       int // zero-deadline probes answered 503 + Retry-After
	ProxyDropped     int64
	ProxyTruncated   int64
	Shed             int64 // server-side shed counter after the run
	Rejected         int64
	PlanCacheHits    int64
	InteractiveP50   time.Duration
	InteractiveP99   time.Duration
	Deadline         time.Duration
}

// String renders the report.
func (r *OverloadResult) String() string {
	var b strings.Builder
	b.WriteString("Overload robustness — flaky proxy + undersized admission, priority classes\n")
	fmt.Fprintf(&b, "  interactive  %d ok, %d gave up; p50 %s, p99 %s (deadline %s)\n",
		r.InteractiveOK, r.InteractiveGaveUp, r.InteractiveP50.Round(time.Millisecond),
		r.InteractiveP99.Round(time.Millisecond), r.Deadline)
	fmt.Fprintf(&b, "  batch        %d ok, %d gave up\n", r.BatchOK, r.BatchGaveUp)
	fmt.Fprintf(&b, "  faults       proxy dropped %d, truncated %d connections\n", r.ProxyDropped, r.ProxyTruncated)
	fmt.Fprintf(&b, "  server       shed %d, rejected %d, plan-cache hits %d\n", r.Shed, r.Rejected, r.PlanCacheHits)
	fmt.Fprintf(&b, "  doomed       %d/%d zero-deadline probes shed with Retry-After and zero engine work\n",
		r.DoomedShed, r.DoomedShed)
	fmt.Fprintf(&b, "  verified     %d answers byte-identical to the in-process reference\n", r.Verified)
	return b.String()
}

// RunOverload builds the flights workload into a served DB and an in-process
// reference DB (identical snapshot → byte-identical answers), exposes the
// served DB through internal/server with tiny admission limits behind a
// faulty.Proxy, and drives it with batch + interactive clients under retries.
func RunOverload(cfg OverloadConfig) (*OverloadResult, error) {
	cfg = cfg.withDefaults()
	setup, err := BuildFlights(cfg.Flights)
	if err != nil {
		return nil, err
	}
	script, err := setup.Engine.DumpScript()
	if err != nil {
		return nil, err
	}
	opts := &mosaic.Options{
		Seed:        setup.Cfg.Seed,
		OpenSamples: setup.Cfg.OpenSamples,
		Workers:     setup.Cfg.Workers,
		SWG:         setup.Cfg.SWG,
		IPF:         setup.Cfg.IPF,
	}
	served := mosaic.Open(opts)
	if err := served.Restore(script); err != nil {
		return nil, fmt.Errorf("bench: restore served DB: %v", err)
	}
	ref := mosaic.Open(opts)
	if err := ref.Restore(script); err != nil {
		return nil, fmt.Errorf("bench: restore reference DB: %v", err)
	}

	srv, err := server.New(server.Config{
		DB:                 served,
		MaxConcurrent:      cfg.MaxConcurrent,
		BatchMaxConcurrent: cfg.BatchMaxConcurrent,
		RequestTimeout:     5 * time.Minute,
	})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go func() { _ = httpSrv.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(ctx)
	}()
	direct := "http://" + ln.Addr().String()

	proxy := &faulty.Proxy{
		Target:        ln.Addr().String(),
		DropEvery:     cfg.DropEvery,
		TruncateEvery: cfg.TruncateEvery,
	}
	proxyAddr, err := proxy.Start()
	if err != nil {
		return nil, err
	}
	defer proxy.Close()
	flaky := "http://" + proxyAddr

	// The job mixes: interactive = CLOSED and SEMI-OPEN Table 2 queries
	// (answered from stored samples, fast), batch = OPEN (model sampling,
	// slow) — matching the server's visibility-derived class defaults.
	type job struct {
		sql string
		ref string
	}
	var interactive, batch []job
	for _, q := range FlightQueries {
		interactive = append(interactive,
			job{sql: withVisibility(q.SQL, "CLOSED")},
			job{sql: withVisibility(q.SQL, "SEMI-OPEN")})
		batch = append(batch, job{sql: withVisibility(q.SQL, "OPEN")})
	}
	// Warm both engines through the direct (fault-free) path and pin the
	// reference renderings; this also trains the served engine's models so
	// the load phase measures serving, not first-touch training.
	warm := client.New(direct)
	pin := func(jobs []job) error {
		for i := range jobs {
			res, err := ref.Query(jobs[i].sql)
			if err != nil {
				return fmt.Errorf("bench: reference warm-up %q: %v", jobs[i].sql, err)
			}
			jobs[i].ref = renderResult(res)
			got, err := warm.Query(jobs[i].sql)
			if err != nil {
				return fmt.Errorf("bench: network warm-up %q: %v", jobs[i].sql, err)
			}
			if renderResult(got) != jobs[i].ref {
				return fmt.Errorf("bench: warm-up answer for %q diverged over HTTP", jobs[i].sql)
			}
		}
		return nil
	}
	if err := pin(interactive); err != nil {
		return nil, err
	}
	if err := pin(batch); err != nil {
		return nil, err
	}

	out := &OverloadResult{Verified: len(interactive) + len(batch), Deadline: cfg.InteractiveDeadline}
	retry := client.RetryPolicy{MaxRetries: 6, BaseBackoff: 50 * time.Millisecond, Budget: cfg.InteractiveDeadline}

	var mu sync.Mutex
	var latencies []time.Duration
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}

	var wg sync.WaitGroup
	// Batch hammerers: OPEN queries through the flaky proxy, batch priority,
	// generous budget. Saturating the batch slots is the point.
	for c := 0; c < cfg.BatchClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := client.New(flaky, client.WithRetry(client.RetryPolicy{
				MaxRetries: 8, BaseBackoff: 50 * time.Millisecond, Budget: 2 * time.Minute,
			}), client.WithPriority("batch"))
			for i := 0; i < cfg.BatchQueriesPerClient; i++ {
				j := batch[(c+i)%len(batch)]
				res, err := cl.Query(j.sql)
				if err != nil {
					mu.Lock()
					out.BatchGaveUp++
					mu.Unlock()
					continue
				}
				if renderResult(res) != j.ref {
					fail(fmt.Errorf("bench: batch client %d (%q): answer diverged from reference", c, j.sql))
					return
				}
				mu.Lock()
				out.BatchOK++
				out.Verified++
				mu.Unlock()
			}
		}(c)
	}
	// Interactive clients: deadline-bounded queries through the same flaky
	// proxy, racing the batch flood. Every delivered answer is verified; a
	// delivered answer inside the context deadline IS the latency bound.
	for c := 0; c < cfg.InteractiveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := client.New(flaky, client.WithRetry(retry), client.WithPriority("interactive"))
			for i := 0; i < cfg.QueriesPerClient; i++ {
				j := interactive[(c+i)%len(interactive)]
				ctx, cancel := context.WithTimeout(context.Background(), cfg.InteractiveDeadline)
				start := time.Now()
				res, err := cl.QueryContext(ctx, j.sql)
				elapsed := time.Since(start)
				cancel()
				if err != nil {
					mu.Lock()
					out.InteractiveGaveUp++
					mu.Unlock()
					continue
				}
				if renderResult(res) != j.ref {
					fail(fmt.Errorf("bench: interactive client %d (%q): answer diverged from reference", c, j.sql))
					return
				}
				mu.Lock()
				out.InteractiveOK++
				out.Verified++
				latencies = append(latencies, elapsed)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if out.InteractiveOK == 0 {
		return nil, fmt.Errorf("bench: no interactive query completed inside %s while batch saturated — QoS isolation failed", cfg.InteractiveDeadline)
	}
	sort.Slice(latencies, func(i, k int) bool { return latencies[i] < latencies[k] })
	out.InteractiveP50 = latencies[len(latencies)/2]
	out.InteractiveP99 = latencies[len(latencies)*99/100]

	// Doomed probes: a zero propagated deadline must shed with 503 +
	// Retry-After BEFORE the engine sees the query — the per-visibility
	// query counters must not move.
	before, err := warm.Stats()
	if err != nil {
		return nil, err
	}
	probe, _ := json.Marshal(wire.QueryRequest{Query: interactive[0].sql})
	for i := 0; i < cfg.DoomedProbes; i++ {
		req, err := http.NewRequest(http.MethodPost, direct+"/v1/query", bytes.NewReader(probe))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(wire.DeadlineHeader, "0")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return nil, fmt.Errorf("bench: doomed probe %d: %v", i, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			return nil, fmt.Errorf("bench: doomed probe %d answered %d, want 503", i, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			return nil, fmt.Errorf("bench: doomed probe %d shed without a Retry-After hint", i)
		}
		out.DoomedShed++
	}
	after, err := warm.Stats()
	if err != nil {
		return nil, err
	}
	for _, vis := range []string{"closed", "semi-open", "open"} {
		if after.Visibilities[vis].Queries != before.Visibilities[vis].Queries {
			return nil, fmt.Errorf("bench: doomed probes reached the engine (%s query counter moved)", vis)
		}
	}
	if after.Shed < int64(cfg.DoomedProbes) {
		return nil, fmt.Errorf("bench: shed counter %d after %d doomed probes", after.Shed, cfg.DoomedProbes)
	}
	out.Shed = after.Shed
	out.Rejected = after.Rejected
	if after.PlanCache != nil {
		out.PlanCacheHits = after.PlanCache.Hits
	}
	if out.PlanCacheHits == 0 {
		return nil, fmt.Errorf("bench: plan cache recorded no hits across repeated identical queries")
	}
	out.ProxyDropped = proxy.Dropped.Load()
	out.ProxyTruncated = proxy.Truncated.Load()
	return out, nil
}
