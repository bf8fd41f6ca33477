package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"ofmf/internal/obsv"
)

// runEnv is what one run's workload is built from.
type runEnv struct {
	seed   int64
	dir    string // scratch directory for data dirs, under the checkout
	traced bool
}

// instance is one set-up workload, ready for its window.
type instance interface {
	// warm runs untimed operations that fill caches and record what the
	// oracles compare against.
	warm() error
	// round runs one whole round of the workload's operations on
	// connection conn, recording every outcome in st.
	round(conn, n int, st map[string]*classStats)
	// check runs the end-state oracles once the window is over and
	// returns every violation. It may add classes measured at quiesce
	// (event delivery) to st.
	check(st map[string]*classStats) []string
	// registry is the metrics registry of the serving OFMF node.
	registry() *obsv.Registry
	// baseURL is the loopback listener the generator drives.
	baseURL() string
	// layers returns the per-layer metrics the window itself measured
	// (traced runs only), from the scrapes around it.
	layers(w *windowInfo) map[string]float64
	// release drops the per-operation records the generator kept.
	release()
	close()
}

// workloadSpec describes one workload.
type workloadSpec struct {
	// classes are the request classes the generator attempts, in print
	// order; attempted and failed sum over them.
	classes []string
	// opClass is the class whose completions are the workload's ops:
	// its latency is op_p50_us/op_p90_us and its rate ops_per_s.
	opClass string
	// followClass is the step that follows each op, reported as
	// follow_p50_us/follow_p90_us.
	followClass string
	// prepare runs once per run before any set-up, untimed.
	prepare func(env *runEnv) error
	// setup builds one instance; it is what setup_s times.
	setup func(env *runEnv) (instance, error)
	// procs, when above zero, is the GOMAXPROCS the run uses.
	procs int
}

var specs = map[string]*workloadSpec{
	"poll":             pollSpec,
	"compose":          composeSpec,
	"replicated-write": writeSpec,
}

// windowInfo is what a traced run knows about its window: the ops it
// completed and the registry scraped before and after.
type windowInfo struct {
	ops           float64
	before, after scrape
}

func run(spec *workloadSpec, env *runEnv, d time.Duration) (*result, error) {
	if spec.prepare != nil {
		if err := spec.prepare(env); err != nil {
			return nil, fmt.Errorf("prepare: %w", err)
		}
	}
	var inst instance
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		start := time.Now()
		in, err := spec.setup(env)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < setupRepeats-1 {
			in.close()
		} else {
			inst = in
		}
	}
	defer inst.close()
	fmt.Printf("setup_s runs %v\n", setups)
	if err := inst.warm(); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	var before scrape
	if env.traced {
		before = gather(inst.registry())
	}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, gc0, total0 := cpuTime(), readCPUClass(gcCPUClass), readCPUClass(totalCPUClass)
	st, elapsed := runWindow(inst, spec, d)
	cpu1, gc1, total1 := cpuTime(), readCPUClass(gcCPUClass), readCPUClass(totalCPUClass)
	runtime.ReadMemStats(&ms1)

	problems := inst.check(st)
	res := &result{Metrics: map[string]metric{}}
	for _, name := range spec.classes {
		c := st[name]
		res.Attempted += c.attempted
		res.Failed += c.failed
	}
	res.Correct = len(problems) == 0
	for i, p := range problems {
		if i == 20 {
			fmt.Printf("oracle: ... %d more\n", len(problems)-i)
			break
		}
		fmt.Printf("oracle: %s\n", p)
	}

	op, follow := st[spec.opClass], st[spec.followClass]
	ops := float64(len(op.us))
	if ops == 0 {
		return nil, fmt.Errorf("no %s completed in the window", spec.opClass)
	}
	if len(follow.us) == 0 {
		return nil, fmt.Errorf("no %s completed in the window", spec.followClass)
	}
	printClasses(spec, st, elapsed)
	e2e := map[string]metric{
		"setup_s":       {median(setups), "s"},
		"allocs_per_op": {float64(ms1.Mallocs-ms0.Mallocs) / ops, "count"},
		"op_p50_us":     {percentile(op.us, 0.50), "us"},
		"op_p90_us":     {percentile(op.us, 0.90), "us"},
		"ops_per_s":     {ops / elapsed.Seconds(), "1/s"},
		"follow_p50_us": {percentile(follow.us, 0.50), "us"},
		"follow_p90_us": {percentile(follow.us, 0.90), "us"},
	}

	var pl map[string]float64
	if env.traced {
		w := &windowInfo{ops: ops, before: before, after: gather(inst.registry())}
		pl = inst.layers(w)
		pl["store.ops_per_op"] = w.delta("ofmf_store_ops_total") / ops
		pl["runtime.cpu_us_per_op"] = (cpu1 - cpu0).Seconds() * 1e6 / ops
		if total1 > total0 {
			pl["runtime.gc_cpu_share"] = (gc1 - gc0) / (total1 - total0)
		}
		printSpans(w)
	}
	// The live heap is read once the generator has dropped what it kept
	// per operation, so heap_mib is the program's heap and does not grow
	// with the number of operations a run completes. The second GC drops
	// what the first left in sync.Pool victim caches.
	inst.release()
	for _, c := range st {
		c.us = nil
	}
	runtime.GC()
	runtime.GC()
	var msHeap runtime.MemStats
	runtime.ReadMemStats(&msHeap)
	e2e["heap_mib"] = metric{float64(msHeap.HeapAlloc) / (1 << 20), "MiB"}
	if !env.traced {
		res.Metrics = e2e
		return res, nil
	}

	// The traced run prints its own end-to-end figures for the tracing
	// overhead, and reports the per-layer metrics.
	for _, name := range sortedKeys(e2e) {
		fmt.Printf("traced %s %v %s\n", name, e2e[name].Value, e2e[name].Unit)
	}
	if err := runRungs(env, inst, pl); err != nil {
		return nil, fmt.Errorf("rungs: %w", err)
	}
	for _, l := range perLayer {
		v, ok := pl[l.name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", l.name)
		}
		res.Metrics[l.name] = metric{v, l.unit}
	}
	return res, nil
}

// runWindow drives the closed loop: each connection runs whole rounds
// until the deadline has passed, so every run attempts whole rounds of
// the same operations.
func runWindow(inst instance, spec *workloadSpec, d time.Duration) (map[string]*classStats, time.Duration) {
	deadline := time.Now().Add(d)
	return drive(inst, spec, func(int) bool { return time.Now().Before(deadline) })
}

// drive runs rounds on every connection while more(n) holds for the
// connection's next round n, and merges the outcomes.
func drive(inst instance, spec *workloadSpec, more func(n int) bool) (map[string]*classStats, time.Duration) {
	perConn := make([]map[string]*classStats, benchConns)
	for c := range perConn {
		perConn[c] = newClassMap(spec)
	}
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < benchConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for n := 0; more(n); n++ {
				inst.round(c, n, perConn[c])
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	merged := newClassMap(spec)
	for _, m := range perConn {
		for name, c := range m {
			merged[name].merge(c)
		}
	}
	return merged, elapsed
}

func newClassMap(spec *workloadSpec) map[string]*classStats {
	m := map[string]*classStats{}
	for _, name := range append(append([]string{}, spec.classes...), spec.opClass, spec.followClass) {
		if m[name] == nil {
			m[name] = &classStats{}
		}
	}
	return m
}

func printClasses(spec *workloadSpec, st map[string]*classStats, elapsed time.Duration) {
	fmt.Printf("window %.3fs\n", elapsed.Seconds())
	names := append(append([]string{}, spec.classes...), spec.followClass)
	seen := map[string]bool{}
	for _, name := range names {
		if seen[name] {
			continue
		}
		seen[name] = true
		c := st[name]
		us := append([]float64(nil), c.us...)
		fmt.Printf("class %-10s attempted %8d failed %4d completed %8d p50 %9.1fus p90 %9.1fus p99 %9.1fus\n",
			name, c.attempted, c.failed, len(c.us), percentile(us, 0.5), percentile(us, 0.9), percentile(us, 0.99))
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

const (
	gcCPUClass    = "/cpu/classes/gc/total:cpu-seconds"
	totalCPUClass = "/cpu/classes/total:cpu-seconds"
)

func readCPUClass(name string) float64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}
