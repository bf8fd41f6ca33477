package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ofmf/internal/core"
	"ofmf/internal/obsv"
	"ofmf/internal/odata"
	"ofmf/internal/redfish"
	"ofmf/internal/service"
	"ofmf/internal/store"
	"ofmf/internal/store/persist"
)

// perLayer lists the traced run's metrics. Each layer's metrics come
// from the window when the workload exercises that layer, and otherwise
// from a rung the traced run drives after its window (see README.md).
var perLayer = []struct{ name, unit string }{
	{"service.get_ns", "ns"},
	{"service.get_allocs", "count"},
	{"service.patch_ns", "ns"},
	{"service.http_floor_us", "us"},
	{"obsv.middleware_ns", "ns"},
	{"obsv.middleware_allocs", "count"},
	{"store.view_ns", "ns"},
	{"store.collection_view_ns", "ns"},
	{"store.ops_per_op", "count"},
	{"store.changes_per_compose", "count"},
	{"store.lock_wait_us", "us"},
	{"persist.commit_us", "us"},
	{"persist.records_per_flush", "count"},
	{"persist.bytes_per_write", "B"},
	{"persist.recover_s", "s"},
	{"repl.apply_lag_us", "us"},
	{"repl.bootstrap_s", "s"},
	{"events.delivery_us", "us"},
	{"events.publish_ns", "ns"},
	{"composer.compose_us", "us"},
	{"composer.decompose_us", "us"},
	{"agent.op_us", "us"},
	{"agent.ops_per_compose", "count"},
	{"runtime.cpu_us_per_op", "us"},
	{"runtime.gc_cpu_share", "ratio"},
}

// Rung sizes: fixed operation counts, so every traced run does the same
// work outside its window.
const (
	composeRungRounds = 4   // per connection, of composeRoundSize cycles
	writeRungRounds   = 8   // per connection, of 64 PATCHes
	directPasses      = 5   // handler and middleware passes over the poll round
	viewPasses        = 200 // Store.View / CollectionView passes over the tree
	composerCycles    = 100 // direct ComposeCtx + DecomposeCtx cycles
	floorRequests     = 3000
	publishCalls      = 2000
)

// timedBackend wraps the leader's persist backend (repl.Config.Inner):
// it times every commit from append until its wait returns, counts the
// records whose waits overlap — the batching group commit can do — and
// notes when each node system's update was committed. The append runs
// under the store's lock at commit; the leader's own Store.Watch fires
// only after the replica acknowledged, so replication lag is measured
// from here.
type timedBackend struct {
	inner *persist.FileBackend

	mu        sync.Mutex
	commitUS  []float64
	records   int64
	episodes  int64 // waits that began with no other wait in flight
	inFlight  int
	committed map[string][]time.Time
}

func (t *timedBackend) Shards() int  { return t.inner.Shards() }
func (t *timedBackend) Close() error { return t.inner.Close() }

func (t *timedBackend) Append(batch []store.Record) func() error {
	start := time.Now()
	return t.wrap(start, t.inner.Append(batch), batch)
}

func (t *timedBackend) AppendShard(shard int, batch []store.Record) func() error {
	start := time.Now()
	return t.wrap(start, t.inner.AppendShard(shard, batch), batch)
}

func (t *timedBackend) wrap(start time.Time, wait func() error, batch []store.Record) func() error {
	t.mu.Lock()
	if t.inFlight == 0 {
		t.episodes++
	}
	t.inFlight++
	t.records += int64(len(batch))
	if t.committed != nil {
		for _, rec := range batch {
			if rec.Op == store.OpPut && isNodeSystem(rec.ID) {
				t.committed[string(rec.ID)] = append(t.committed[string(rec.ID)], start)
			}
		}
	}
	t.mu.Unlock()
	return func() error {
		var err error
		if wait != nil {
			err = wait()
		}
		d := time.Since(start)
		t.mu.Lock()
		t.inFlight--
		t.commitUS = append(t.commitUS, float64(d.Nanoseconds())/1e3)
		t.mu.Unlock()
		return err
	}
}

// reset starts the window: counters zeroed, commit times recorded.
func (t *timedBackend) reset() {
	t.mu.Lock()
	t.commitUS, t.records, t.episodes = nil, 0, 0
	t.committed = map[string][]time.Time{}
	t.mu.Unlock()
}

// changeTimes records, per node system, when each Store.Watch update
// notification fired, once enabled.
type changeTimes struct {
	on atomic.Bool
	mu sync.Mutex
	at map[string][]time.Time
}

func watchTimes(st *store.Store) *changeTimes {
	ct := &changeTimes{at: map[string][]time.Time{}}
	st.Watch(func(c store.Change) {
		if !ct.on.Load() || c.Kind != store.Updated || !isNodeSystem(c.ID) {
			return
		}
		now := time.Now()
		ct.mu.Lock()
		ct.at[string(c.ID)] = append(ct.at[string(c.ID)], now)
		ct.mu.Unlock()
	})
	return ct
}

func (ct *changeTimes) enable() { ct.on.Store(true) }

func (ct *changeTimes) reset() {
	ct.mu.Lock()
	ct.at = map[string][]time.Time{}
	ct.mu.Unlock()
}

func (ct *changeTimes) snapshot() map[string][]time.Time {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	out := make(map[string][]time.Time, len(ct.at))
	for k, v := range ct.at {
		out[k] = append([]time.Time(nil), v...)
	}
	return out
}

func isNodeSystem(id odata.ID) bool {
	return id.Parent() == service.SystemsURI && strings.HasPrefix(id.Leaf(), "node")
}

// pairedLagUS pairs the k-th event of each system on both sides and
// returns the differences in microseconds.
func pairedLagUS(from, to map[string][]time.Time) []float64 {
	var out []float64
	for uri, ts := range to {
		fs := from[uri]
		for k, t := range ts {
			if k < len(fs) {
				out = append(out, float64(t.Sub(fs[k]).Nanoseconds())/1e3)
			}
		}
	}
	return out
}

// changeCounter counts Store.Watch notifications.
type changeCounter struct{ n atomic.Int64 }

func watchChanges(fw *core.Framework) *changeCounter {
	cc := &changeCounter{}
	fw.Service.Store().Watch(func(store.Change) { cc.n.Add(1) })
	return cc
}

// addComposeLayers reads the compose path's layers over a span of
// cycles: agent operations from ofmf_agent_op*, store notifications
// from the Store.Watch counter, write-lock waits from
// ofmf_store_lock_wait_seconds.
func addComposeLayers(pl map[string]float64, w *windowInfo, changes int64, cycles float64) {
	pl["agent.op_us"] = w.histMeanUS("ofmf_agent_op_duration_seconds")
	pl["agent.ops_per_compose"] = w.delta("ofmf_agent_ops_total") / cycles
	pl["store.changes_per_compose"] = float64(changes) / cycles
	pl["store.lock_wait_us"] = w.histMeanUS("ofmf_store_lock_wait_seconds")
}

// addWriteLayers reads the replicated write path's layers.
func (w *writeInstance) addWriteLayers(pl map[string]float64, win *windowInfo) {
	var acked int64
	for _, n := range w.acked {
		acked += n
	}
	t := w.backend
	t.mu.Lock()
	pl["persist.commit_us"] = median(t.commitUS)
	if t.episodes > 0 {
		pl["persist.records_per_flush"] = float64(t.records) / float64(t.episodes)
	}
	pl["repl.apply_lag_us"] = median(pairedLagUS(t.committed, w.replicaTimes.snapshot()))
	t.mu.Unlock()
	if size, err := dirSize(w.dir); err == nil && acked > 0 {
		pl["persist.bytes_per_write"] = float64(size-w.dirBefore) / float64(acked)
	}
	pl["persist.recover_s"] = w.recoverS
	pl["repl.bootstrap_s"] = w.bootS
	leader := w.leaderTimes.snapshot()
	var delivery []float64
	for _, s := range w.matching {
		s.mu.Lock()
		delivery = append(delivery, pairedLagUS(leader, s.recv)...)
		s.mu.Unlock()
	}
	pl["events.delivery_us"] = median(delivery)
	pl["store.lock_wait_us"] = win.histMeanUS("ofmf_store_lock_wait_seconds")
	pl["events.publish_ns"] = w.publishNS()
}

// publishNS times Bus.PublishCtx against the workload's subscription
// set, publishing updates of the node systems.
func (w *writeInstance) publishNS() float64 {
	bus := w.fw.Service.Bus()
	recs := make([]redfish.EventRecord, facilityNodes)
	for i := range recs {
		ref := odata.NewRef(service.SystemsURI.Append(core.NodeName(i)))
		recs[i] = redfish.EventRecord{EventType: redfish.EventResourceUpdated, EventID: fmt.Sprint(i),
			Severity: "OK", Message: "bench", MessageID: "Bench.1.0.Update", OriginOfCondition: &ref}
	}
	ctx := context.Background()
	start := time.Now()
	for i := 0; i < publishCalls; i++ {
		bus.PublishCtx(ctx, recs[i%len(recs)])
	}
	return float64(time.Since(start).Nanoseconds()) / publishCalls
}

func (w *writeInstance) layers(win *windowInfo) map[string]float64 {
	pl := map[string]float64{}
	w.addWriteLayers(pl, win)
	return pl
}

// runRungs measures the layers the window did not: the generator's
// floor on the workload's own listener, the direct calls into the
// service, middleware, store and composer on a fresh facility, and — for
// workloads whose window skips them — a fixed run of compose cycles and
// of replicated writes with the same wrappers as their workloads.
func runRungs(env *runEnv, inst instance, pl map[string]float64) error {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	floor, err := httpFloor(inst.baseURL())
	if err != nil {
		return fmt.Errorf("http floor: %w", err)
	}
	runtime.ReadMemStats(&ms1)
	pl["service.http_floor_us"] = floor
	fmt.Printf("floor allocs_per_request %v (client and server, no-op handler)\n",
		float64(ms1.Mallocs-ms0.Mallocs)/float64(benchConns*floorRequests))

	rungEnv := &runEnv{seed: env.seed, dir: env.dir, traced: true}
	in, err := setupCompose(rungEnv)
	if err != nil {
		return err
	}
	ci := in.(*composeInstance)
	defer ci.close()
	if err := ci.warm(); err != nil {
		return err
	}
	if _, ok := pl["agent.op_us"]; !ok {
		if err := composeRung(ci, pl); err != nil {
			return fmt.Errorf("compose rung: %w", err)
		}
	}
	if err := directRungs(ci.fw, env.seed, pl); err != nil {
		return err
	}
	if _, ok := pl["persist.commit_us"]; !ok {
		if err := writeRung(rungEnv, pl); err != nil {
			return fmt.Errorf("write rung: %w", err)
		}
	}
	return nil
}

func composeRung(ci *composeInstance, pl map[string]float64) error {
	before, changes0 := gather(ci.registry()), ci.changes.n.Load()
	st, _ := drive(ci, composeSpec, func(n int) bool { return n < composeRungRounds })
	win := &windowInfo{ops: float64(len(st["compose"].us)), before: before, after: gather(ci.registry())}
	if problems := ci.check(st); len(problems) > 0 {
		return fmt.Errorf("%s", strings.Join(problems, "; "))
	}
	addComposeLayers(pl, win, ci.changes.n.Load()-changes0, win.ops)
	return nil
}

func writeRung(env *runEnv, pl map[string]float64) error {
	if err := prepareWrite(env); err != nil {
		return err
	}
	in, err := setupWrite(env)
	if err != nil {
		return err
	}
	w := in.(*writeInstance)
	defer w.close()
	if err := w.warm(); err != nil {
		return err
	}
	before := gather(w.registry())
	st, _ := drive(w, writeSpec, func(n int) bool { return n < writeRungRounds })
	win := &windowInfo{ops: float64(len(st["write"].us)), before: before, after: gather(w.registry())}
	if problems := w.check(st); len(problems) > 0 {
		return fmt.Errorf("%s", strings.Join(problems, "; "))
	}
	w.addWriteLayers(pl, win)
	return nil
}

// discardWriter is an in-memory ResponseWriter for direct handler calls.
type discardWriter struct {
	h      http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(code int)        { w.status = code }

func (w *discardWriter) reset() {
	clear(w.h)
	w.status = http.StatusOK
}

// directRungs calls the program's public functions without a network:
// Service.Handler() over the poll round and with PATCHes,
// obsv.Middleware around a no-op handler, Store.View and
// CollectionView over the tree, and Composer.ComposeCtx/DecomposeCtx.
func directRungs(fw *core.Framework, seed int64, pl map[string]float64) error {
	st := fw.Service.Store()
	h := fw.Service.Handler()
	w := &discardWriter{h: http.Header{}}

	// Handler GET over the poll round; a first pass collects the ETags
	// the conditional reads replay.
	uris, colls := pollTargets(fw)
	ops := pollRound(uris, colls, seed)
	reqs := make([]*http.Request, len(ops))
	etags := map[string]string{}
	for i, op := range ops {
		target := op.uri
		if op.kind == getExpand {
			target += "?$expand=."
		}
		reqs[i] = httptest.NewRequest(http.MethodGet, target, nil)
		if op.kind == getPlain {
			w.reset()
			h.ServeHTTP(w, reqs[i])
			etags[op.uri] = w.h.Get("ETag")
		}
	}
	for i, op := range ops {
		if op.kind == getCond {
			reqs[i].Header.Set("If-None-Match", etags[op.uri])
		}
	}
	var err error
	pl["service.get_ns"], pl["service.get_allocs"], err = timePasses(directPasses, len(ops), func(i int) error {
		w.reset()
		h.ServeHTTP(w, reqs[i])
		want := http.StatusOK
		if ops[i].kind == getCond {
			want = http.StatusNotModified
		}
		if w.status != want {
			return fmt.Errorf("handler GET %s: status %d", ops[i].uri, w.status)
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Handler PATCH on the in-memory store.
	systems := make([]string, facilityNodes)
	for i := range systems {
		systems[i] = string(service.SystemsURI.Append(core.NodeName(i)))
	}
	n := 0
	pl["service.patch_ns"], _, err = timePasses(directPasses, len(systems), func(i int) error {
		n++
		req := httptest.NewRequest(http.MethodPatch, systems[i], strings.NewReader(fmt.Sprintf(`{"Oem":{"Bench":{"Seq":%d}}}`, n)))
		w.reset()
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			return fmt.Errorf("handler PATCH %s: status %d", systems[i], w.status)
		}
		return nil
	})
	if err != nil {
		return err
	}

	// The middleware around a no-op handler, with the service's own
	// metrics, logger and tracer.
	noop := http.HandlerFunc(func(http.ResponseWriter, *http.Request) {})
	mw := obsv.Middleware(noop, fw.Service.Metrics(), fw.Service.Logger(), service.RouteClass, fw.Service.Tracer())
	var plain []*http.Request
	for i, op := range ops {
		if op.kind == getPlain {
			plain = append(plain, reqs[i])
		}
	}
	pl["obsv.middleware_ns"], pl["obsv.middleware_allocs"], err = timePasses(directPasses, len(plain), func(i int) error {
		w.reset()
		mw.ServeHTTP(w, plain[i])
		return nil
	})
	if err != nil {
		return err
	}

	// The store's zero-copy read paths.
	var resources, collIDs []odata.ID
	for _, op := range ops {
		if op.kind != getPlain {
			continue
		}
		if colls[op.uri] {
			collIDs = append(collIDs, odata.ID(op.uri))
		} else {
			resources = append(resources, odata.ID(op.uri))
		}
	}
	pl["store.view_ns"], _, err = timePasses(viewPasses, len(resources), func(i int) error {
		return st.View(resources[i], func(json.RawMessage, string) {})
	})
	if err != nil {
		return err
	}
	pl["store.collection_view_ns"], _, err = timePasses(viewPasses, len(collIDs), func(i int) error {
		return st.CollectionView(collIDs[i], func([]byte, string) {})
	})
	if err != nil {
		return err
	}

	return composerRung(fw, seed, pl)
}

// composerRung calls ComposeCtx and DecomposeCtx directly.
func composerRung(fw *core.Framework, seed int64, pl map[string]float64) error {
	rng := rand.New(rand.NewSource(seed*31 + 7))
	ctx := context.Background()
	var composeUS, decomposeUS []float64
	for i := 0; i < composerCycles; i++ {
		req := genRequest(rng, fmt.Sprintf("rung-%d", i))
		start := time.Now()
		comp, err := fw.Composer.ComposeCtx(ctx, req)
		composeUS = append(composeUS, float64(time.Since(start).Nanoseconds())/1e3)
		if err != nil {
			return fmt.Errorf("composer rung: %w", err)
		}
		start = time.Now()
		if err := fw.Composer.DecomposeCtx(ctx, comp.ID); err != nil {
			return fmt.Errorf("composer rung: %w", err)
		}
		decomposeUS = append(decomposeUS, float64(time.Since(start).Nanoseconds())/1e3)
	}
	pl["composer.compose_us"] = median(composeUS)
	pl["composer.decompose_us"] = median(decomposeUS)
	return nil
}

// timePasses calls fn(i) for i in [0, n) in each of passes passes and
// returns the median pass's time per call in ns and the heap
// allocations per call over all passes.
func timePasses(passes, n int, fn func(i int) error) (nsPerOp, allocsPerOp float64, err error) {
	if n == 0 {
		return 0, 0, fmt.Errorf("nothing to time")
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	per := make([]float64, 0, passes)
	for p := 0; p < passes; p++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return 0, 0, err
			}
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/float64(n))
	}
	runtime.ReadMemStats(&ms1)
	return median(per), float64(ms1.Mallocs-ms0.Mallocs) / float64(passes*n), nil
}

// httpFloor is the generator's closed-loop round trip to a no-op
// handler on the workload's listener, from two connections: the part of
// a read's latency no change to the program can remove.
func httpFloor(base string) (float64, error) {
	client := newClient()
	defer client.CloseIdleConnections()
	var mu sync.Mutex
	var us []float64
	var firstErr error
	var wg sync.WaitGroup
	for c := 0; c < benchConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, _ := http.NewRequest(http.MethodGet, base+noopPath, nil)
			local := make([]float64, 0, floorRequests)
			for i := 0; i < floorRequests; i++ {
				start := time.Now()
				resp, err := client.Do(req)
				if err == nil {
					resp.Body.Close()
					if resp.StatusCode != http.StatusNoContent {
						err = fmt.Errorf("no-op handler: status %d", resp.StatusCode)
					}
				}
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				local = append(local, float64(time.Since(start).Nanoseconds())/1e3)
			}
			mu.Lock()
			us = append(us, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return 0, firstErr
	}
	return percentile(us, 0.5), nil
}
