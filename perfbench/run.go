package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"
)

// runConfig is one invocation's settings.
type runConfig struct {
	seed   int64
	dur    time.Duration
	trace  bool
	scale  scale
	setups int // times the workload is set up; setup_s is their median
}

// run sets the workload up rc.setups times (keeping the last), drives it
// for rc.dur, replays a traced sample when rc.trace is set, then shuts it
// down and checks every answer against a fresh reference engine.
func run(w workload, rc runConfig) (*result, error) {
	var sys *system
	defer func() {
		if sys != nil {
			sys.close()
		}
	}()
	var setup []float64
	for i := 0; i < rc.setups; i++ {
		if sys != nil {
			sys.close()
			sys = nil
		}
		runtime.GC()
		t0 := time.Now()
		s, err := w.setup(rc)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setup = append(setup, time.Since(t0).Seconds())
		sys = s
	}
	res := &result{
		Workload: w.name,
		Seed:     rc.seed,
		Trace:    rc.trace,
		Seconds:  rc.dur.Seconds(),
		Metrics:  map[string]metric{},
		Meta:     newMeta(rc, w.clients, sys.world.settings),
	}
	var before map[string]float64
	if sys.counters != nil {
		var err error
		if before, err = sys.counters(); err != nil {
			return nil, err
		}
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	total0, steal0, ok0 := cpuTimes()
	log := drive(&sys.target, rc.dur)
	res.Meta.StealPct = stealPct(total0, steal0, ok0)
	runtime.ReadMemStats(&m1)
	if sys.counters != nil {
		after, err := sys.counters()
		if err != nil {
			return nil, err
		}
		counterMetrics(res, before, after)
	}
	if rc.trace {
		tr := newTracedRun(rc.seed, rc.scale)
		if err := sys.replay(tr); err != nil {
			return nil, fmt.Errorf("traced replay: %w", err)
		}
		tr.report(res)
		res.spans = tr.spans
	}

	// Verification runs after the system is down, so it never shares the
	// machine with a timed request.
	writeScript, reference := sys.writeScript, sys.reference
	sys.close()
	sys = nil
	runtime.GC()
	ref, err := reference()
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	res.Verified, err = verify(ref, writeScript, log.writes, log)
	res.Correct = err == nil
	if err != nil {
		res.Problem = err.Error()
	}
	reads := e2eMetrics(res, log, setup)
	runtimeMetrics(res, &m0, &m1, reads)
	return res, nil
}

// counterMetrics reports the change of each cumulative counter over the
// loop, plus the ratios derived from them.
func counterMetrics(res *result, before, after map[string]float64) {
	d := map[string]float64{}
	for k, v := range after {
		if strings.HasSuffix(k, "_max") {
			d[k] = v
		} else {
			d[k] = v - before[k]
		}
		res.set(k, unitOf(k), d[k], 1)
	}
	if n := d["core.plan_cache_lookups"]; n > 0 {
		res.set("core.plan_cache_hit_ratio", "ratio", d["core.plan_cache_hits"]/n, int(n))
	}
	if n := d["coord.primary_reads"] + d["coord.replica_reads"]; n > 0 {
		res.set("coord.replica_read_share", "ratio", d["coord.replica_reads"]/n, int(n))
	}
}

// fillUnmeasured reports the listed per-layer metrics a workload's path
// never reaches (a coordinator counter on an in-process workload, say) as
// zero from zero samples.
func (r *result) fillUnmeasured(list []metricSpec) {
	for _, m := range list {
		if _, ok := r.Metrics[m.Name]; !ok {
			r.Metrics[m.Name] = metric{Value: 0, Unit: m.Unit, N: 0}
		}
	}
}
