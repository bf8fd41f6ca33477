// Command e2ebench is the OFMF's end-to-end benchmark. It boots the
// paper-scale facility (core.New with 128 nodes and a standing set of
// live compositions) in process behind a loopback listener, drives one
// closed-loop workload from two connections, checks the program's
// outputs against oracles computed apart from it, and prints one JSON
// line of metrics last:
//
//	go run . --workload poll --seed 1 --seconds 10 --trace 0
//
// Workloads: poll (GETs across the whole tree), compose (Redfish
// compose + decompose cycles) and replicated-write (PATCHes to a WAL
// leader with one asynchronous replica and event subscribers).
// --trace 0 prints the end-to-end metrics; --trace 1 installs timing
// wrappers and watchers on the program's public seams, runs the
// direct-call rungs and prints the per-layer metrics instead.
// --steadiness N runs two sets of N runs of every workload in
// alternating order and reports whether their medians agree within the
// bounds in BENCHMARK.json. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		workload   = flag.String("workload", "", "workload to run: poll, compose or replicated-write")
		seed       = flag.Int64("seed", 1, "workload seed; every input the program receives is generated from it")
		seconds    = flag.Int("seconds", 40, "measurement window in seconds")
		trace      = flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
		workdir    = flag.String("workdir", ".bench_build", "directory for data dirs, under the checkout")
		steadiness = flag.Int("steadiness", 0, "run two sets of this many runs of every workload BENCHMARK.json gates and compare them")
		genDir     = flag.String("gen-datadir", "", "write the seeded replicated-write data dir here and exit (used by the replicated-write set-up)")
	)
	flag.Parse()

	if *genDir != "" {
		if err := generateDataDir(*genDir, *seed); err != nil {
			fatal("e2ebench: generate data dir: %v", err)
		}
		// Exit without closing the backend: the data dir is left as a
		// killed leader leaves it, a snapshot plus a WAL tail.
		os.Exit(0)
	}
	if *steadiness > 0 {
		if err := steadinessMode(*steadiness, *seconds, *workdir); err != nil {
			fatal("e2ebench: steadiness: %v", err)
		}
		return
	}
	spec, ok := specs[*workload]
	if !ok {
		fatal("e2ebench: unknown --workload %q (want %s)", *workload, strings.Join(workloadNames(), ", "))
	}
	if *seconds < 1 {
		fatal("e2ebench: --seconds must be at least 1")
	}
	if spec.procs > 0 {
		runtime.GOMAXPROCS(spec.procs)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fatal("e2ebench: workdir: %v", err)
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fatal("e2ebench: workdir: %v", err)
	}
	if dir, err = filepath.Abs(dir); err != nil {
		fatal("e2ebench: workdir: %v", err)
	}
	printHost(*workload, *seed, *seconds, *trace == 1)
	res, err := run(spec, &runEnv{seed: *seed, dir: dir, traced: *trace == 1}, time.Duration(*seconds)*time.Second)
	os.RemoveAll(dir)
	if err != nil {
		fatal("e2ebench: %s: %v", *workload, err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal("e2ebench: %v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

func workloadNames() []string {
	names := make([]string, 0, len(specs))
	for n := range specs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printHost records the run's identity: workload, seed and host shape.
func printHost(workload string, seed int64, seconds int, traced bool) {
	fmt.Printf("workload %s seed %d window %ds traced %v\n", workload, seed, seconds, traced)
	fmt.Printf("host cpu=%q nproc=%d gomaxprocs=%d go=%s\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				fmt.Printf("revision %s\n", s.Value)
			}
		}
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
