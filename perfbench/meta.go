package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// meta identifies the machine, toolchain, code and settings behind a run.
type meta struct {
	NumCPU       int            `json:"num_cpu"`
	GOMAXPROCS   int            `json:"gomaxprocs"`
	GoVersion    string         `json:"go_version"`
	Commit       string         `json:"commit"`
	SourceDigest string         `json:"source_digest"`
	Seed         int64          `json:"workload_seed"`
	Clients      int            `json:"clients"`
	Setups       int            `json:"setups"`
	Engine       engineSettings `json:"engine"`
	World        worldSettings  `json:"world"`
	// StealPct is the share of the machine's CPU time the hypervisor took
	// during the timed phase, from /proc/stat; -1 where that is unreadable.
	// Runs on a shared host slow down with it.
	StealPct float64 `json:"cpu_steal_pct"`
}

func newMeta(rc runConfig, clients int, world worldSettings) meta {
	return meta{
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Commit:       commit(),
		SourceDigest: sourceDigest("."),
		Seed:         rc.seed,
		Clients:      clients,
		Setups:       rc.setups,
		Engine:       engineSettingsFor(rc.scale),
		World:        world,
	}
}

// commit names the checked-out revision when the tree is a git work tree;
// benchmark checkouts usually are not, so sourceDigest identifies the code.
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown" // not a work tree root; git would report an enclosing repository
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source and module file under root (the
// benchmark's own build output excluded), so two runs on the same code carry
// the same digest whether or not the tree is a git checkout.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the digest
		}
		if d.IsDir() && (d.Name() == ".bench_build" || d.Name() == ".git") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		h.Write([]byte(filepath.ToSlash(f)))
		h.Write([]byte{0})
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// cpuTimes reads the machine's cumulative CPU time and the part of it
// stolen by the hypervisor, in clock ticks.
func cpuTimes() (total, steal uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	// user nice system idle iowait irq softirq steal
	for i, s := range f[1:9] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal, true
}

// stealPct is the stolen share of CPU time between two cpuTimes readings.
func stealPct(total0, steal0 uint64, ok0 bool) float64 {
	total1, steal1, ok1 := cpuTimes()
	if !ok0 || !ok1 || total1 <= total0 {
		return -1
	}
	return 100 * float64(steal1-steal0) / float64(total1-total0)
}
