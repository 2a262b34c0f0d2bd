package server

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"

	"mosaic/internal/wire"
)

// class is a request priority class. Interactive requests (cheap CLOSED /
// SEMI-OPEN lookups by default) must never starve behind batch work (OPEN
// model-training queries, bulk exec scripts): the admission controller caps
// batch concurrency below the total slot count and hands freed slots to
// interactive waiters first.
type class int

const (
	classInteractive class = iota
	classBatch
	numClasses
)

func (c class) String() string {
	if c == classBatch {
		return "batch"
	}
	return "interactive"
}

// classFromHeader resolves the explicit wire.PriorityHeader, falling back to
// def (queries: from visibility — OPEN is batch, everything else
// interactive; exec scripts default to batch; explain to interactive).
func classFromHeader(r *http.Request, def class) (class, error) {
	switch strings.ToLower(r.Header.Get(wire.PriorityHeader)) {
	case "":
		return def, nil
	case "interactive":
		return classInteractive, nil
	case "batch":
		return classBatch, nil
	default:
		return def, fmt.Errorf("bad %s %q: want interactive or batch", wire.PriorityHeader, r.Header.Get(wire.PriorityHeader))
	}
}

// QoSConfig is the live-reloadable slice of the server configuration: the
// admission limits and the shed threshold. ApplyQoS swaps it atomically —
// in-flight requests are never dropped (a shrunk limit only throttles new
// admissions; work already admitted runs to completion).
type QoSConfig struct {
	// MaxConcurrent is the total execution slot count.
	MaxConcurrent int `json:"max_concurrent"`
	// BatchMaxConcurrent caps batch-class slots. It is clamped below
	// MaxConcurrent so batch work can never occupy every slot; 0 means
	// max(1, MaxConcurrent/2).
	BatchMaxConcurrent int `json:"batch_max_concurrent"`
	// ShedMargin scales the per-class EWMA latency estimate when deciding
	// whether a deadline is worth admitting: shed when estimate×margin
	// exceeds the remaining budget. 0 means 1.0; negative disables
	// estimate-based shedding (already-expired deadlines still shed).
	ShedMargin float64 `json:"shed_margin"`
}

func (q QoSConfig) withDefaults() QoSConfig {
	if q.MaxConcurrent <= 0 {
		q.MaxConcurrent = 64
	}
	if q.BatchMaxConcurrent <= 0 {
		q.BatchMaxConcurrent = q.MaxConcurrent / 2
	}
	if q.BatchMaxConcurrent < 1 {
		q.BatchMaxConcurrent = 1
	}
	// Batch may never own every slot: interactive work must always have
	// headroom. The sole exception is MaxConcurrent == 1, where there is
	// only one slot to share.
	if q.BatchMaxConcurrent >= q.MaxConcurrent && q.MaxConcurrent > 1 {
		q.BatchMaxConcurrent = q.MaxConcurrent - 1
	}
	if q.ShedMargin == 0 {
		q.ShedMargin = 1.0
	}
	return q
}

// admission is a priority-aware two-class admission controller. Unlike a
// channel semaphore its limits are mutable at runtime (SIGHUP reload), and
// freed slots go to interactive waiters before batch waiters — the priority
// inversion a single shared gate cannot avoid.
type admission struct {
	mu       sync.Mutex
	total    int
	limit    [numClasses]int
	inflight [numClasses]int
	waiting  [numClasses][]chan struct{}
}

func newAdmission(q QoSConfig) *admission {
	a := &admission{}
	a.setLimits(q)
	return a
}

// setLimits swaps the concurrency limits and wakes any waiters the new
// limits can now admit. In-flight counts above a shrunk limit simply drain
// naturally; nothing is interrupted.
func (a *admission) setLimits(q QoSConfig) {
	q = q.withDefaults()
	a.mu.Lock()
	defer a.mu.Unlock()
	a.total = q.MaxConcurrent
	a.limit[classInteractive] = q.MaxConcurrent
	a.limit[classBatch] = q.BatchMaxConcurrent
	a.grantLocked()
}

func (a *admission) canAdmitLocked(cl class) bool {
	return a.inflight[classInteractive]+a.inflight[classBatch] < a.total &&
		a.inflight[cl] < a.limit[cl]
}

// grantLocked hands free slots to waiters, interactive first, in FIFO order
// within a class. The slot transfers under the lock (inflight is incremented
// here, not by the waiter), so a granted waiter that has concurrently timed
// out can detect the grant and release it.
func (a *admission) grantLocked() {
	for {
		var cl class = classInteractive
		if len(a.waiting[cl]) == 0 || !a.canAdmitLocked(cl) {
			cl = classBatch
			if len(a.waiting[cl]) == 0 || !a.canAdmitLocked(cl) {
				return
			}
		}
		ch := a.waiting[cl][0]
		a.waiting[cl] = a.waiting[cl][1:]
		a.inflight[cl]++
		ch <- struct{}{} // buffered: never blocks
	}
}

// acquire reserves a slot for cl, waiting until ctx expires. It reports
// whether the slot was granted; the caller must release(cl) on true.
func (a *admission) acquire(ctx context.Context, cl class) bool {
	a.mu.Lock()
	if a.canAdmitLocked(cl) {
		a.inflight[cl]++
		a.mu.Unlock()
		return true
	}
	ch := make(chan struct{}, 1)
	a.waiting[cl] = append(a.waiting[cl], ch)
	a.mu.Unlock()
	select {
	case <-ch:
		return true
	case <-ctx.Done():
		a.mu.Lock()
		removed := false
		for i, w := range a.waiting[cl] {
			if w == ch {
				a.waiting[cl] = append(a.waiting[cl][:i], a.waiting[cl][i+1:]...)
				removed = true
				break
			}
		}
		a.mu.Unlock()
		if !removed {
			// A grant raced the cancellation: the slot is ours (the granter
			// already incremented inflight and buffered the signal under the
			// lock) — hand it back.
			<-ch
			a.release(cl)
		}
		return false
	}
}

// release frees a slot previously acquired for cl and re-grants.
func (a *admission) release(cl class) {
	a.mu.Lock()
	a.inflight[cl]--
	a.grantLocked()
	a.mu.Unlock()
}

// queueDepth reports how many requests of cl are waiting for a slot.
func (a *admission) queueDepth(cl class) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.waiting[cl])
}

// inflightCount reports how many requests of cl hold a slot.
func (a *admission) inflightCount(cl class) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.inflight[cl]
}
