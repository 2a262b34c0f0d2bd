package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"mosaic/internal/sql"
)

// PriorityHeader carries a request's explicit priority class
// ("interactive" or "batch"); absent, mosaic-serve derives one from the
// request (OPEN queries and exec scripts are batch, everything else
// interactive).
const PriorityHeader = "X-Mosaic-Priority"

// DeadlineHeader carries the client's remaining budget in integer
// milliseconds. Both front doors intersect it with their own RequestTimeout
// (see RequestBudget); the coordinator re-propagates what is left to every
// shard call.
const DeadlineHeader = "X-Mosaic-Deadline-Ms"

// MaxBodyBytes caps every request body on both front doors. One cap keeps
// the coordinator from refusing a script its shards would accept.
const MaxBodyBytes = 8 << 20

// WriteJSON answers status with body encoded as JSON.
func WriteJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

// WriteError answers status with an ErrorResponse body.
func WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// WriteUnavailable answers 503 with a Retry-After hint of retryAfter in
// whole seconds, rounded up and at least one.
func WriteUnavailable(w http.ResponseWriter, retryAfter time.Duration, format string, args ...any) {
	secs := int(math.Ceil(retryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	WriteError(w, http.StatusServiceUnavailable, format, args...)
}

// DecodeBody decodes a JSON request body under MaxBodyBytes, answering 413
// for an oversized body and 400 for a malformed one. It reports whether
// decoding succeeded; on false the response has been written.
func DecodeBody(w http.ResponseWriter, r *http.Request, into any) bool {
	body := http.MaxBytesReader(w, r.Body, MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(into); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			WriteError(w, http.StatusRequestEntityTooLarge, "request body exceeds the %d-byte limit", mbe.Limit)
			return false
		}
		WriteError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// RequestBudget returns a request's effective time budget: timeout,
// lowered to the propagated DeadlineHeader budget when that is smaller. A
// zero or negative result means the client's deadline is already spent and
// the caller must refuse before doing any work. A header that is not an
// integer is an error (the caller answers 400).
func RequestBudget(r *http.Request, timeout time.Duration) (time.Duration, error) {
	raw := r.Header.Get(DeadlineHeader)
	if raw == "" {
		return timeout, nil
	}
	ms, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s %q: want integer milliseconds", DeadlineHeader, raw)
	}
	return min(timeout, time.Duration(ms)*time.Millisecond), nil
}

// BindQuery decodes a request's parameter cells and binds them to the
// parsed statement's `?` placeholders.
func BindQuery(sel *sql.Select, params []Cell) (*sql.Select, error) {
	vals, err := DecodeValues(params)
	if err != nil {
		return nil, err
	}
	return sql.BindParams(sel, vals)
}
