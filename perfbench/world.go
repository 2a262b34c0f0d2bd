package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"time"

	"mosaic"
	"mosaic/internal/bench"
	"mosaic/internal/dataset"
	"mosaic/internal/server"
	"mosaic/internal/swg"
)

// scale sizes the worlds. fullScale is what BENCHMARK.json runs; tinyScale
// keeps the smoke tests fast.
type scale struct {
	PopN        int     // serving world: population rows
	SampleFrac  float64 // serving world: sample rows / population rows
	LargePopN   int     // scan-large: population rows
	LargeFrac   float64 // scan-large: sample rows / population rows
	Epochs      int     // M-SWG training epochs
	Projections int     // M-SWG projections per 2-D marginal
	Templates   int     // Sec 5.3 template texts per visibility
	// FleetWriteEvery is fleet-rw client 0's write period in requests.
	FleetWriteEvery int
}

var fullScale = scale{
	PopN: 50000, SampleFrac: 0.05,
	LargePopN: 1000000, LargeFrac: 0.2,
	Epochs: 4, Projections: 64,
	Templates: 512,
	// Long enough that the follower, polling every 500 ms, is caught up
	// most of the run.
	FleetWriteEvery: 4000,
}

var tinyScale = scale{
	PopN: 3000, SampleFrac: 0.05,
	LargePopN: 20000, LargeFrac: 0.1,
	Epochs: 1, Projections: 8,
	Templates: 16,
	// Short enough that a smoke run writes through the fleet.
	FleetWriteEvery: 25,
}

// Engine settings fixed for every run; the workload seed never reaches them.
const (
	engineSeed    = 1
	openSamples   = 10
	biasFrac      = 0.95
	planCacheSize = 256
	// engineWorkers is one: a query (or an M-SWG training) then keeps one
	// core busy, so the benchmark's one or two clients never run more
	// threads than a 2-core host has. With the default (all cores) the
	// in-process scan-large p50 moved with the host's CPU steal by up to
	// 25% between runs of the same code; with one worker it moved 9%.
	engineWorkers = 1
)

// engineSettings records the engine options of a run.
type engineSettings struct {
	Seed          int64      `json:"seed"`
	OpenSamples   int        `json:"open_samples"`
	Workers       int        `json:"workers"`
	PlanCacheSize int        `json:"plan_cache_size"`
	SWG           swg.Config `json:"swg"`
}

func engineSettingsFor(sc scale) engineSettings {
	return engineSettings{
		Seed:          engineSeed,
		OpenSamples:   openSamples,
		Workers:       engineWorkers,
		PlanCacheSize: planCacheSize,
		SWG:           swgConfig(sc),
	}
}

// swgConfig is the flights generator of internal/bench with the epoch and
// projection counts fixed so one retrain costs about a second.
func swgConfig(sc scale) swg.Config {
	return swg.Config{
		Hidden:      []int{50, 50, 50, 50, 50},
		Latent:      18,
		Lambda:      1e-7,
		BatchSize:   500,
		Projections: sc.Projections,
		Epochs:      sc.Epochs,
		LR:          0.001,
		Seed:        engineSeed,
	}
}

func engineOptions(sc scale) mosaic.Options {
	return mosaic.Options{Seed: engineSeed, OpenSamples: openSamples, Workers: engineWorkers, SWG: swgConfig(sc)}
}

// worldSettings records the generated data of a run.
type worldSettings struct {
	PopN     int     `json:"population_rows"`
	SampleN  int     `json:"sample_rows"`
	BiasFrac float64 `json:"bias_frac"`
}

// world is a generated flights world: the snapshot every engine of a run
// (served, follower, reference) restores from, and the value ranges the
// query literals are drawn from.
type world struct {
	script   string
	settings worldSettings
	ranges   map[string][2]float64
}

// buildWorld generates the paper's flights world from the workload seed and
// serializes it as a snapshot script.
func buildWorld(seed int64, popN int, frac float64, sc scale) (*world, error) {
	fs, err := bench.BuildFlights(bench.FlightsConfig{
		PopN: popN, SampleFrac: frac, BiasFrac: biasFrac, Seed: seed, SWG: swgConfig(sc),
	})
	if err != nil {
		return nil, err
	}
	script, err := fs.Engine.DumpScript()
	if err != nil {
		return nil, err
	}
	w := &world{
		script:   script,
		settings: worldSettings{PopN: popN, SampleN: fs.SampleN, BiasFrac: biasFrac},
		ranges:   map[string][2]float64{},
	}
	for _, a := range []string{"taxi_out", "taxi_in", "elapsed_time", "distance"} {
		col, err := fs.Pop.FloatColumn(a)
		if err != nil {
			return nil, err
		}
		lo, hi := col[0], col[0]
		for _, v := range col {
			lo, hi = min(lo, v), max(hi, v)
		}
		w.ranges[a] = [2]float64{lo, hi}
	}
	return w, nil
}

func openDB(script string, opts mosaic.Options) (*mosaic.DB, error) {
	db := mosaic.Open(&opts)
	if err := db.Restore(script); err != nil {
		return nil, err
	}
	return db, nil
}

// insertScript is write j of a run: a small batch of seeded rows appended
// to the sample. The batch size is fixed so a run's inserted row count
// depends only on how many writes it makes.
func insertScript(seed int64, j int) string {
	rng := rand.New(rand.NewSource(seed*7919 + int64(j)))
	var b strings.Builder
	b.WriteString("INSERT INTO FlightsSample VALUES ")
	for i := 0; i < insertRows; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "('%s', %d, %d, %d, %d)",
			dataset.Carriers[rng.Intn(len(dataset.Carriers))],
			5+rng.Intn(30), 2+rng.Intn(15), 150+rng.Intn(250), 300+rng.Intn(2200))
	}
	return b.String()
}

const insertRows = 4

// httpService serves a handler on a loopback port until stop.
type httpService struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func serveHTTP(h http.Handler) (*httpService, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &httpService{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed after stop
	}()
	return s, nil
}

// stop shuts the listener down and waits for the serving goroutine.
func (s *httpService) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		_ = s.srv.Close()
	}
	<-s.done
}

// served is one mosaic.DB behind internal/server on loopback.
type served struct {
	db  *mosaic.DB
	srv *server.Server
	svc *httpService
}

func serve(db *mosaic.DB, follower server.FollowerState) (*served, error) {
	srv, err := server.New(server.Config{
		DB:             db,
		RequestTimeout: 5 * time.Minute,
		PlanCacheSize:  planCacheSize,
		Follower:       follower,
	})
	if err != nil {
		return nil, err
	}
	svc, err := serveHTTP(srv.Handler())
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &served{db: db, srv: srv, svc: svc}, nil
}

func (s *served) close() {
	s.svc.stop()
	s.srv.Close()
}
