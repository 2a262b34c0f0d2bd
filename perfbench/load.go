package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mosaic"
	"mosaic/internal/value"
)

// Request kinds. A cold read is the first read of its visibility after a
// write, so it pays the M-SWG retrain or the IPF refit.
const (
	kindClosed       = "closed"
	kindSemiOpen     = "semiopen"
	kindOpen         = "open"
	kindSemiOpenCold = "semiopen_cold"
	kindOpenCold     = "open_cold"
	kindWrite        = "write"
)

// request is one operation a client sends.
type request struct {
	kind string
	text string // the SELECT; for writes the loop fills in the INSERT
}

// target is the system under test as its clients see it.
type target struct {
	clients int
	// next returns client c's next request; it is only called from client
	// c's goroutine.
	next func(c int) request
	// do sends req for client c and waits for the answer (nil for writes).
	do func(ctx context.Context, c int, req request) (*mosaic.Result, error)
	// writeScript is write j of the run. Only one client ever writes, so
	// write j moves the served state from j to j+1.
	writeScript func(j int) string
	// tick, when set, is called every sampling period during the loop.
	tick func()
	// cycleEnd, when set, reports whether client 0 has just finished a
	// round of its request cycle. Client 0 then runs on to the end of the
	// round it is in when the time is up, and the other clients stop with
	// it, so every run measures whole rounds.
	cycleEnd func() bool
}

// record is one completed request. A read is correct if its digest equals
// the reference answer's digest at one of the write states lo..hi it
// overlapped.
type record struct {
	kind   string
	text   string
	lat    time.Duration
	digest [32]byte
	lo, hi int
	err    error
}

// runLog is everything the loop observed.
type runLog struct {
	recs   [][]record      // per client, in send order
	active []time.Duration // per client: wall time minus digest time
	writes int             // acknowledged writes
	heap   []float64       // live heap a GC cycle marked, MB, every samplePeriod
}

const samplePeriod = 5 * time.Millisecond

// drive runs every client in a closed loop until its active time reaches
// dur (see target.cycleEnd for paced workloads). Digesting an answer
// happens between requests and is excluded from the client's active time,
// so it never counts as serving time.
func drive(t *target, dur time.Duration) *runLog {
	log := &runLog{recs: make([][]record, t.clients), active: make([]time.Duration, t.clients)}
	var started, acked atomic.Int64
	var pacerDone atomic.Bool
	ctx := context.Background()

	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tk := time.NewTicker(samplePeriod)
		defer tk.Stop()
		for {
			metrics.Read(s)
			log.heap = append(log.heap, float64(s[0].Value.Uint64())/(1<<20))
			if t.tick != nil {
				t.tick()
			}
			select {
			case <-stop:
				return
			case <-tk.C:
			}
		}
	}()

	var wg sync.WaitGroup
	for c := 0; c < t.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			start := time.Now()
			var paused time.Duration
			writesOff := false
			more := func() bool {
				switch {
				case t.cycleEnd == nil:
					return time.Since(start)-paused < dur
				case c == 0:
					return time.Since(start)-paused < dur || !t.cycleEnd()
				}
				return !pacerDone.Load()
			}
			for more() {
				req := t.next(c)
				j := int64(-1)
				if req.kind == kindWrite {
					if writesOff {
						continue
					}
					j = started.Add(1) - 1
					req.text = t.writeScript(int(j))
				}
				lo := acked.Load()
				t0 := time.Now()
				res, err := t.do(ctx, c, req)
				lat := time.Since(t0)
				hi := started.Load()
				if j >= 0 {
					if err == nil {
						acked.Store(j + 1)
					} else {
						// A refused write leaves the state where it was;
						// later writes would no longer line up with the
						// reference's write sequence.
						started.Add(-1)
						writesOff = true
					}
				}
				v0 := time.Now()
				rec := record{kind: req.kind, text: req.text, lat: lat, lo: int(lo), hi: int(hi), err: err}
				if err == nil && j < 0 {
					rec.digest = digest(res)
				}
				log.recs[c] = append(log.recs[c], rec)
				paused += time.Since(v0)
			}
			log.active[c] = time.Since(start) - paused
			if c == 0 {
				pacerDone.Store(true)
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	<-sampled
	log.writes = int(acked.Load())
	return log
}

// digest hashes a result's canonical byte encoding: column names, then
// every cell as its kind and exact bits. Two answers are byte-identical
// exactly when their digests match (up to SHA-256 collisions).
func digest(res *mosaic.Result) [32]byte {
	h := sha256.New()
	var buf []byte
	buf = binary.AppendUvarint(buf, uint64(len(res.Columns)))
	for _, c := range res.Columns {
		buf = binary.AppendUvarint(buf, uint64(len(c)))
		buf = append(buf, c...)
	}
	buf = binary.AppendUvarint(buf, uint64(len(res.Rows)))
	for _, row := range res.Rows {
		buf = binary.AppendUvarint(buf, uint64(len(row)))
		for _, v := range row {
			buf = append(buf, byte(v.Kind()))
			switch v.Kind() {
			case value.KindInt:
				buf = binary.LittleEndian.AppendUint64(buf, uint64(v.AsInt()))
			case value.KindFloat:
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.AsFloat()))
			case value.KindBool:
				if v.AsBool() {
					buf = append(buf, 1)
				} else {
					buf = append(buf, 0)
				}
			case value.KindText:
				buf = binary.AppendUvarint(buf, uint64(len(v.AsText())))
				buf = append(buf, v.AsText()...)
			}
		}
		if len(buf) > 1<<16 {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	h.Write(buf)
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// referenceEngine answers queries at successive write states.
type referenceEngine interface {
	Query(q string, args ...any) (*mosaic.Result, error)
	Exec(script string) error
}

// verify checks every successful read against ref, which starts at write
// state 0 and is advanced through writeScript(0..writes-1). It returns how
// many reads it checked; a read that matches the reference at none of the
// states it overlapped is an error.
func verify(ref referenceEngine, writeScript func(int) string, writes int, log *runLog) (int, error) {
	var reads []*record
	for c := range log.recs {
		for i := range log.recs[c] {
			if r := &log.recs[c][i]; r.err == nil && r.kind != kindWrite {
				r.hi = min(r.hi, writes)
				reads = append(reads, r)
			}
		}
	}
	matched := make([]bool, len(reads))
	for k := 0; k <= writes; k++ {
		want := map[string][32]byte{}
		for i, r := range reads {
			if matched[i] || r.lo > k || r.hi < k {
				continue
			}
			d, ok := want[r.text]
			if !ok {
				res, err := ref.Query(r.text)
				if err != nil {
					return 0, fmt.Errorf("reference at write state %d: %q: %w", k, r.text, err)
				}
				d = digest(res)
				want[r.text] = d
			}
			if d == r.digest {
				matched[i] = true
			} else if r.hi == k {
				return 0, fmt.Errorf("wrong answer: %s read %q matches the reference at none of write states %d..%d", r.kind, r.text, r.lo, r.hi)
			}
		}
		if k < writes {
			if err := ref.Exec(writeScript(k)); err != nil {
				return 0, fmt.Errorf("reference write %d: %w", k, err)
			}
		}
	}
	return len(reads), nil
}

// e2eMetrics derives the end-to-end metrics from the loop and returns the
// number of reads that succeeded.
func e2eMetrics(res *result, log *runLog, setup []float64) int {
	var attempted, failed int
	var reads []float64
	byKind := map[string][]float64{}
	var qps float64
	for c, recs := range log.recs {
		ok := 0
		for _, r := range recs {
			attempted++
			if r.err != nil {
				failed++
				continue
			}
			ms := float64(r.lat) / float64(time.Millisecond)
			byKind[r.kind] = append(byKind[r.kind], ms)
			if r.kind != kindWrite {
				reads = append(reads, ms)
				ok++
			}
		}
		if a := log.active[c].Seconds(); a > 0 {
			qps += float64(ok) / a
		}
	}
	res.Attempted, res.Failed = attempted, failed
	res.set("setup_s", "s", median(setup), len(setup))
	res.set("throughput_qps", "1/s", qps, len(reads))
	if len(reads) > 0 {
		res.set("read_p50_ms", "ms", quantile(reads, 0.5), len(reads))
		res.set("read_p90_ms", "ms", quantile(reads, 0.9), len(reads))
	}
	for kind, xs := range byKind {
		res.set(kind+"_p50_ms", "ms", quantile(xs, 0.5), len(xs))
	}
	if attempted > 0 {
		res.set("error_rate", "ratio", float64(failed)/float64(attempted), attempted)
	}
	// The 99th percentile of the samples, not their maximum: the maximum
	// hinges on whether one GC cycle happened to end at a transient peak.
	res.set("peak_heap_mb", "MB", quantile(log.heap, 0.99), len(log.heap))
	return len(reads)
}

// runtimeMetrics reports the Go runtime's work during the loop.
func runtimeMetrics(res *result, before, after *runtime.MemStats, reads int) {
	res.set("runtime.gc_cycles", "count", float64(after.NumGC-before.NumGC), 1)
	res.set("runtime.gc_pause_ms", "ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6, int(after.NumGC-before.NumGC))
	if reads > 0 {
		res.set("runtime.alloc_mb_per_read", "MB", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20)/float64(reads), reads)
	}
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
