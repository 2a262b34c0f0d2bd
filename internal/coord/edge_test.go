package coord_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mosaic"
	"mosaic/client"
	"mosaic/internal/coord"
	"mosaic/internal/server"
	"mosaic/internal/wire"
)

// startEmptyShards boots n shard servers over empty engines plus a synced
// coordinator in front of them.
func startEmptyShards(t *testing.T, n int) ([]*shardProc, *coord.Coordinator) {
	t.Helper()
	shards := make([]*shardProc, n)
	urls := make([]string, n)
	for i := range shards {
		db := mosaic.Open(nil)
		srv, err := server.New(server.Config{DB: db, RequestTimeout: time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(func() {
			ts.Close()
			srv.Close()
		})
		shards[i] = &shardProc{db: db, ts: ts}
		urls[i] = ts.URL
	}
	c, err := coord.New(coord.Config{Shards: urls, RequestTimeout: time.Minute, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	return shards, c
}

// TestHTTPEdgeMalformedRequests runs one table of malformed requests against
// both front doors, mosaic-serve and mosaic-coord: they share the wire
// protocol's HTTP edge, so every case must answer the same status with a
// JSON ErrorResponse body naming the problem.
func TestHTTPEdgeMalformedRequests(t *testing.T) {
	shards, c := startEmptyShards(t, 1)
	srv, err := server.New(server.Config{DB: shards[0].db})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	query, _ := json.Marshal(wire.QueryRequest{Query: "SELECT COUNT(*) FROM T"})
	oversized, _ := json.Marshal(wire.QueryRequest{Query: "SELECT " + strings.Repeat("1+", wire.MaxBodyBytes/2) + "1"})
	cases := []struct {
		name, method string
		body         []byte
		deadline     string
		status       int
		msg          string
	}{
		{"non-integer deadline", http.MethodPost, query, "soon", http.StatusBadRequest, "want integer milliseconds"},
		{"spent deadline", http.MethodPost, query, "0", http.StatusServiceUnavailable, "deadline already expired"},
		{"oversized body", http.MethodPost, oversized, "", http.StatusRequestEntityTooLarge, fmt.Sprintf("%d-byte limit", wire.MaxBodyBytes)},
		{"malformed JSON", http.MethodPost, []byte(`{"query": `), "", http.StatusBadRequest, "bad request body"},
		{"GET on query", http.MethodGet, nil, "", http.StatusMethodNotAllowed, "POST only"},
	}
	for _, door := range []struct {
		name string
		h    http.Handler
	}{{"server", srv.Handler()}, {"coord", c.Handler()}} {
		for _, tc := range cases {
			t.Run(door.name+"/"+tc.name, func(t *testing.T) {
				req := httptest.NewRequest(tc.method, "/v1/query", bytes.NewReader(tc.body))
				req.Header.Set("Content-Type", "application/json")
				if tc.deadline != "" {
					req.Header.Set(wire.DeadlineHeader, tc.deadline)
				}
				rec := httptest.NewRecorder()
				door.h.ServeHTTP(rec, req)
				if rec.Code != tc.status {
					t.Fatalf("answered %d (%s), want %d", rec.Code, rec.Body.String(), tc.status)
				}
				if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
					t.Errorf("Content-Type %q, want application/json", ct)
				}
				var werr wire.ErrorResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &werr); err != nil {
					t.Fatalf("body %q is not an ErrorResponse: %v", rec.Body.String(), err)
				}
				if !strings.Contains(werr.Error, tc.msg) {
					t.Errorf("error %q does not contain %q", werr.Error, tc.msg)
				}
				if ra := rec.Header().Get("Retry-After"); (tc.status == http.StatusServiceUnavailable) != (ra != "") {
					t.Errorf("status %d with Retry-After %q", rec.Code, ra)
				}
			})
		}
	}
}

// TestHTTPEdgeCoordAcceptsShardSizedExec: an exec script over 1 MiB but
// under wire.MaxBodyBytes — a size every shard accepts — goes through the
// coordinator and lands on every shard at one generation.
func TestHTTPEdgeCoordAcceptsShardSizedExec(t *testing.T) {
	shards, c := startEmptyShards(t, 2)
	cts := httptest.NewServer(c.Handler())
	t.Cleanup(cts.Close)

	const rows = 16 << 10
	pad := strings.Repeat("x", 120)
	var script strings.Builder
	script.WriteString("CREATE TABLE Big (i INT, s TEXT); INSERT INTO Big VALUES ")
	for i := 0; i < rows; i++ {
		if i > 0 {
			script.WriteString(", ")
		}
		fmt.Fprintf(&script, "(%d, '%s')", i, pad)
	}
	body, _ := json.Marshal(wire.ExecRequest{Script: script.String()})
	if len(body) <= 1<<20 || len(body) >= wire.MaxBodyBytes {
		t.Fatalf("script body is %d bytes, want between 1 MiB and %d", len(body), wire.MaxBodyBytes)
	}

	resp, err := client.New(cts.URL).ExecRawContext(context.Background(), script.String())
	if err != nil {
		t.Fatalf("%d-byte exec through the coordinator: %v", len(body), err)
	}
	if resp.Generation != c.Generation() {
		t.Errorf("exec answered generation %d, coordinator adopted %d", resp.Generation, c.Generation())
	}
	for i, sh := range shards {
		if g := sh.db.Engine().Generation(); g != resp.Generation {
			t.Errorf("shard %d at generation %d, want %d", i, g, resp.Generation)
		}
		res, err := sh.db.Query("SELECT COUNT(*) FROM Big")
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		if got, _ := res.Rows[0][0].Float64(); got != rows {
			t.Errorf("shard %d holds %g Big rows, want %d", i, got, rows)
		}
	}
}
