package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ofmf/internal/core"
	"ofmf/internal/events"
	"ofmf/internal/obsv"
	"ofmf/internal/odata"
	"ofmf/internal/redfish"
	"ofmf/internal/service"
	"ofmf/internal/store"
	"ofmf/internal/store/persist"
	"ofmf/internal/store/repl"
)

// writeSpec PATCHes a WAL leader that ships to an in-process replica,
// with event subscribers: store write path, persist, repl, events.
//
// It runs on one P. Each write crosses the handler, the WAL append, the
// shipping stream, the replica's apply, four sinks and the SSE stream,
// and on two vCPUs shared with neighbours those hand-offs made the
// write rate swing by a fifth and more between runs of one commit; on
// one P the same runs agree to a few percent.
var writeSpec = &workloadSpec{
	classes:     []string{"write"},
	opClass:     "write",
	followClass: "event",
	prepare:     prepareWrite,
	setup:       setupWrite,
	procs:       1,
}

const (
	// historyRecords is the size of the seeded data dir's history: half
	// lies under its snapshot, half in the WAL tail recovery replays.
	historyRecords = 8000
	// Subscriptions on the leader's event bus: most filtered to an event
	// type the run never publishes, a few matching every write.
	nonMatchingSubs = 28
	matchingSubs    = 4
	// replLease keeps the replica from holding an election when a
	// loaded host delays a keepalive; the benchmark measures steady
	// replication, not failover.
	replLease   = 30 * time.Second
	syncTimeout = 5 * time.Second
	// hubRing is the leader's shipping backlog, repl.HubConfig.RingSize
	// left at its default. It holds every record the leader committed
	// until it passes hubRing, then drops to three quarters of it and
	// grows again, so its length depends on how many writes a run
	// completed. The backlog is filled before the window, which then
	// runs against a full backlog, and again before heap_mib is read,
	// which then reads the leader with a full backlog in every run.
	hubRing = 65536
	// warmWrites are the untimed PATCHes over HTTP before the window.
	warmWrites = 8192
)

// templateDir is where prepare writes the seeded data dir; every set-up
// recovers a fresh copy of it.
func templateDir(env *runEnv) string { return filepath.Join(env.dir, "template") }

// prepareWrite generates the seeded data dir in a child process, which
// exits without closing its backend: the directory is left as a killed
// leader leaves it, a snapshot plus a WAL tail.
func prepareWrite(env *runEnv) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(exe, "--gen-datadir", templateDir(env), "--seed", fmt.Sprint(env.seed))
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("generate data dir: %w", err)
	}
	size, err := dirSize(templateDir(env))
	if err != nil {
		return err
	}
	fmt.Printf("seeded data dir: %d history records, %d bytes\n", historyRecords, size)
	return nil
}

// generateDataDir writes a leader's data dir: the 128-node testbed tree
// and historyRecords seeded PATCHes of the systems' Oem.Bench.History,
// compacted into a snapshot halfway.
func generateDataDir(dir string, seed int64) error {
	fw, err := core.New(testbedConfig())
	if err != nil {
		return err
	}
	st := fw.Service.Store()
	b, err := persist.Open(persist.Options{Dir: dir})
	if err != nil {
		return err
	}
	stats, err := b.Recover(st)
	if err != nil {
		return err
	}
	st.AttachBackend(b, stats.LastSeq)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < historyRecords; i++ {
		if i == historyRecords/2 {
			if err := b.Compact(); err != nil {
				return err
			}
		}
		uri := service.SystemsURI.Append(core.NodeName(rng.Intn(facilityNodes)))
		patch := map[string]any{"Oem": map[string]any{"Bench": map[string]any{"History": rng.Int63()}}}
		if err := st.Patch(uri, patch, ""); err != nil {
			return err
		}
	}
	return nil
}

type writeInstance struct {
	seed     int64
	fw       *core.Framework
	dir      string
	backend  *timedBackend // nil in untraced runs
	leader   *repl.Node
	replica  *repl.Node
	replSvc  *service.Service
	srv      *httptest.Server
	replSrv  *httptest.Server
	client   *http.Client
	conns    []*writeConn
	recoverS float64
	bootS    float64
	startSeq uint64     // leader's commit sequence when its backlog started
	fillRNG  *rand.Rand // values of the backlog-filling writes

	matching    []*countingSink
	nonMatching []*countingSink
	sseCancel   context.CancelFunc
	sseDone     chan struct{}
	sseFrames   atomic.Int64

	// Traced runs: Store.Watch notification times on both nodes.
	leaderTimes  *changeTimes
	replicaTimes *changeTimes
	dirBefore    int64

	mu    sync.Mutex
	sends map[string][]time.Time // per system: when each window write was sent
	acked map[string]int64       // per system: acknowledged window writes
	last  map[string]int64       // per system: value of its last acknowledged write
	fails []string
}

// writeConn owns every system whose index is congruent to its id, so
// the writes to one system are sequential and their events, delivered
// in order, pair with them one to one.
type writeConn struct {
	id      int
	rng     *rand.Rand
	systems []string
	value   int64
	buf     bytes.Buffer
}

func setupWrite(env *runEnv) (instance, error) {
	dir, err := os.MkdirTemp(env.dir, "leader-")
	if err != nil {
		return nil, err
	}
	if err := copyDir(templateDir(env), dir); err != nil {
		return nil, err
	}
	w := &writeInstance{seed: env.seed, dir: dir, client: newClient(),
		sends: map[string][]time.Time{}, acked: map[string]int64{}, last: map[string]int64{}}
	if err := w.start(env); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

func (w *writeInstance) start(env *runEnv) error {
	fw, err := core.New(testbedConfig())
	if err != nil {
		return err
	}
	w.fw = fw
	st := fw.Service.Store()
	b, err := persist.Open(persist.Options{Dir: w.dir, Metrics: fw.Service.Metrics()})
	if err != nil {
		return err
	}
	t0 := time.Now()
	stats, err := b.Recover(st)
	if err != nil {
		b.Close()
		return err
	}
	w.recoverS = time.Since(t0).Seconds()
	// Position the commit sequence after the recovered history before
	// the replication tee takes over the backend.
	st.AttachBackend(b, stats.LastSeq)
	var inner store.Backend = b
	if env.traced {
		w.backend = &timedBackend{inner: b}
		inner = w.backend
		w.leaderTimes = watchTimes(st)
	}

	leaderMux, replMux := benchMux(), http.NewServeMux()
	w.srv = httptest.NewServer(leaderMux)
	w.replSrv = httptest.NewServer(replMux)
	w.leader, err = repl.NewNode(repl.Config{
		Store: st, Self: w.srv.URL, Peers: []string{w.replSrv.URL}, Leader: true,
		BootEpoch: stats.LastEpoch, MinSync: 0, SyncTimeout: syncTimeout, LeaseTimeout: replLease,
		Inner: inner, Logger: obsv.NopLogger(), Metrics: fw.Service.Metrics(),
	})
	if err != nil {
		return err
	}
	leaderMux.Handle("/", fw.Handler())
	leaderMux.Handle(repl.PathPrefix, w.leader.Handler())

	w.replSvc = service.New(service.Config{DirectWrites: true})
	if env.traced {
		w.replicaTimes = watchTimes(w.replSvc.Store())
	}
	w.replica, err = repl.NewNode(repl.Config{
		Store: w.replSvc.Store(), Self: w.replSrv.URL, Peers: []string{w.srv.URL},
		LeaseTimeout: replLease, Logger: obsv.NopLogger(), Metrics: w.replSvc.Metrics(),
	})
	if err != nil {
		return err
	}
	replMux.Handle("/", w.replSvc.Handler())
	replMux.Handle(repl.PathPrefix, w.replica.Handler())

	w.startSeq = st.Seq()
	w.leader.Start()
	t0 = time.Now()
	w.replica.Start()
	if err := w.caughtUp(10 * time.Second); err != nil {
		return fmt.Errorf("replica bootstrap: %w", err)
	}
	w.bootS = time.Since(t0).Seconds()
	return composeStanding(fw, standingRequests(env.seed))
}

// caughtUp waits until the replica follows the leader and has applied
// everything the leader committed.
func (w *writeInstance) caughtUp(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		ls, rs := w.leader.Status(), w.replica.Status()
		if len(ls.Followers) == 1 && rs.LastSeq >= ls.LastSeq && rs.LeaderURL != "" {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replica at seq %d, leader at %d after %s", rs.LastSeq, ls.LastSeq, timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

func (w *writeInstance) warm() error {
	for c := 0; c < benchConns; c++ {
		wc := &writeConn{id: c, rng: rand.New(rand.NewSource(w.seed*15485863 + int64(c)))}
		for i := c; i < facilityNodes; i += benchConns {
			wc.systems = append(wc.systems, string(service.SystemsURI.Append(core.NodeName(i))))
		}
		w.conns = append(w.conns, wc)
	}
	// The backlog fills first; untimed rounds then warm pools and
	// caches. The subscriptions join after both, so they see only window
	// writes.
	w.fillRNG = rand.New(rand.NewSource(w.seed))
	if err := w.fillBacklog(); err != nil {
		return err
	}
	perRound := facilityNodes / benchConns
	warm, _ := drive(w, writeSpec, func(n int) bool { return n*perRound < warmWrites/benchConns })
	if st := warm["write"]; st.failed > 0 {
		return fmt.Errorf("warm-up writes failed: %v", w.fails)
	}
	w.sends, w.acked = map[string][]time.Time{}, map[string]int64{}

	bus := w.fw.Service.Bus()
	for i := 0; i < matchingSubs+nonMatchingSubs; i++ {
		s := &countingSink{recv: map[string][]time.Time{}}
		filter := events.Filter{EventTypes: []string{redfish.EventAlert}}
		if i < matchingSubs {
			filter = events.Filter{EventTypes: []string{redfish.EventResourceUpdated},
				Origins: []odata.ID{service.SystemsURI}, Subordinate: true}
			w.matching = append(w.matching, s)
		} else {
			w.nonMatching = append(w.nonMatching, s)
		}
		if _, err := bus.Subscribe(s, filter, fmt.Sprintf("bench-%d", i)); err != nil {
			return err
		}
	}
	if err := w.openSSE(); err != nil {
		return err
	}
	if err := w.caughtUp(10 * time.Second); err != nil {
		return err
	}
	if w.backend != nil {
		w.dirBefore, _ = dirSize(w.dir)
		w.backend.reset()
		w.leaderTimes.enable()
		w.replicaTimes.enable()
	}
	return nil
}

// backlogLen is the length of the leader's shipping backlog after n
// commits of one record each since it started. A commit of several
// records can only trim the backlog earlier, so its real length is at
// most this.
func backlogLen(n int64) int64 {
	if n <= hubRing {
		return n
	}
	floor := int64(hubRing * 3 / 4)
	return floor + (n-hubRing-1)%(hubRing-floor+1)
}

// fillBacklog commits direct store PATCHes of a field the window never
// writes, one record each, until the leader's backlog is full.
func (w *writeInstance) fillBacklog() error {
	st := w.fw.Service.Store()
	for {
		need := hubRing - backlogLen(int64(st.Seq()-w.startSeq))
		if need == 0 {
			return nil
		}
		for ; need > 0; need-- {
			uri := service.SystemsURI.Append(core.NodeName(w.fillRNG.Intn(facilityNodes)))
			patch := map[string]any{"Oem": map[string]any{"Bench": map[string]any{"History": w.fillRNG.Int63()}}}
			if err := st.Patch(uri, patch, ""); err != nil {
				return fmt.Errorf("backlog fill: %w", err)
			}
		}
	}
}

// openSSE opens one SSE stream filtered to ResourceUpdated and drains
// it, counting frames.
func (w *writeInstance) openSSE() error {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.srv.URL+string(service.SSEURI)+"?EventType=ResourceUpdated", nil)
	if err != nil {
		cancel()
		return err
	}
	resp, err := newClient().Do(req)
	if err != nil {
		cancel()
		return err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return fmt.Errorf("SSE stream: status %d", resp.StatusCode)
	}
	w.sseCancel, w.sseDone = cancel, make(chan struct{})
	go func() {
		defer close(w.sseDone)
		defer resp.Body.Close()
		rd := bufio.NewReader(resp.Body)
		for {
			line, err := rd.ReadString('\n')
			if err != nil {
				return
			}
			if strings.HasPrefix(line, "data: ") {
				w.sseFrames.Add(1)
			}
		}
	}()
	return nil
}

func (w *writeInstance) round(conn, _ int, st map[string]*classStats) {
	wc := w.conns[conn]
	write := st["write"]
	for _, i := range wc.rng.Perm(len(wc.systems)) {
		uri := wc.systems[i]
		wc.value++
		body := fmt.Sprintf(`{"Oem":{"Bench":{"Seq":%d}}}`, wc.value)
		req, _ := http.NewRequest(http.MethodPatch, w.srv.URL+uri, strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		start := time.Now()
		w.mu.Lock()
		w.sends[uri] = append(w.sends[uri], start)
		w.mu.Unlock()
		resp, err := fetch(w.client, req, &wc.buf)
		d := time.Since(start)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("PATCH %s: status %d: %s", uri, resp.StatusCode, wc.buf.String())
		}
		write.observe(d, err == nil)
		w.mu.Lock()
		if err == nil {
			w.acked[uri]++
			w.last[uri] = wc.value
		} else if len(w.fails) < 20 {
			w.fails = append(w.fails, err.Error())
		}
		w.mu.Unlock()
	}
}

// countingSink is an in-process webhook subscriber: it records when
// each event for each origin arrived.
type countingSink struct {
	mu   sync.Mutex
	recv map[string][]time.Time
	n    int64
}

func (s *countingSink) Deliver(_ context.Context, ev redfish.Event) error {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, rec := range ev.Events {
		s.n++
		origin := ""
		if rec.OriginOfCondition != nil {
			origin = string(rec.OriginOfCondition.ODataID)
		}
		s.recv[origin] = append(s.recv[origin], now)
	}
	return nil
}

func (s *countingSink) total() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// quiesce waits until the event bus has delivered everything queued.
func (w *writeInstance) quiesce(timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	var last int64 = -1
	for time.Now().Before(deadline) {
		var n int64
		for _, s := range append(append([]*countingSink{}, w.matching...), w.nonMatching...) {
			n += s.total()
		}
		p := w.fw.Service.Bus().Pool()
		if n == last && p.Queued == 0 && p.Busy == 0 {
			return
		}
		last = n
		time.Sleep(20 * time.Millisecond)
	}
}

func (w *writeInstance) check(st map[string]*classStats) []string {
	problems := append([]string(nil), w.fails...)
	w.quiesce(10 * time.Second)

	// Deliveries and the subscriber-side event lag.
	var matching []map[string]int64
	var nonMatching []int64
	event := st["event"]
	for _, s := range w.matching {
		counts := map[string]int64{}
		s.mu.Lock()
		for uri, times := range s.recv {
			counts[uri] = int64(len(times))
			sends := w.sends[uri]
			for k, t := range times {
				if k < len(sends) {
					event.us = append(event.us, float64(t.Sub(sends[k]).Nanoseconds())/1e3)
				}
			}
		}
		s.mu.Unlock()
		matching = append(matching, counts)
	}
	for _, s := range w.nonMatching {
		nonMatching = append(nonMatching, s.total())
	}
	for _, n := range w.acked {
		event.attempted += n * int64(len(w.matching))
	}
	event.failed = event.attempted - int64(len(event.us))
	problems = append(problems, checkDeliveries(w.acked, matching, nonMatching)...)
	fmt.Printf("events: %d matching and %d non-matching subscriptions, %d SSE frames\n",
		len(w.matching), len(w.nonMatching), w.sseFrames.Load())

	// The leader serves the last acknowledged value of every system.
	got := map[string]int64{}
	for uri := range w.last {
		got[uri] = w.readValue(uri)
	}
	problems = append(problems, checkLastValues("leader", w.last, got)...)

	// The replica's export is byte-identical to the leader's at quiesce.
	if err := w.compareReplica(10 * time.Second); err != nil {
		problems = append(problems, err.Error())
	}

	// A fresh store recovered from a copy of the data dir, taken as a
	// kill would leave it, holds every acknowledged write.
	recovered, err := w.recoverCopy()
	if err != nil {
		problems = append(problems, "recovery: "+err.Error())
	} else {
		problems = append(problems, checkLastValues("recovered data dir", w.last, recovered)...)
	}
	return problems
}

// readValue GETs a system from the leader and returns its
// Oem.Bench.Seq (-1 when the read fails).
func (w *writeInstance) readValue(uri string) int64 {
	var buf bytes.Buffer
	req, _ := http.NewRequest(http.MethodGet, w.srv.URL+uri, nil)
	resp, err := fetch(w.client, req, &buf)
	if err != nil || resp.StatusCode != http.StatusOK {
		return -1
	}
	return benchSeq(buf.Bytes())
}

func benchSeq(raw []byte) int64 {
	var doc struct {
		Oem struct {
			Bench struct {
				Seq *int64 `json:"Seq"`
			} `json:"Bench"`
		} `json:"Oem"`
	}
	if json.Unmarshal(raw, &doc) != nil || doc.Oem.Bench.Seq == nil {
		return -1
	}
	return *doc.Oem.Bench.Seq
}

// compareReplica exports both trees once the replica has applied the
// leader's last commit. The testbed's telemetry loop may commit in
// between, so a mismatch is retried until the deadline.
func (w *writeInstance) compareReplica(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		err := w.caughtUp(time.Until(deadline))
		if err == nil {
			var le, re []byte
			if le, err = w.fw.Service.Store().Export(); err == nil {
				if re, err = w.replSvc.Store().Export(); err == nil {
					err = checkExports(le, re)
				}
			}
		}
		if err == nil || time.Now().After(deadline) {
			return err
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func (w *writeInstance) recoverCopy() (map[string]int64, error) {
	cp, err := os.MkdirTemp(filepath.Dir(w.dir), "recovered-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(cp)
	if err := copyDir(w.dir, cp); err != nil {
		return nil, err
	}
	b, err := persist.Open(persist.Options{Dir: cp})
	if err != nil {
		return nil, err
	}
	fresh := store.New()
	_, err = b.Recover(fresh)
	b.Close()
	if err != nil {
		return nil, err
	}
	got := map[string]int64{}
	for uri := range w.last {
		got[uri] = -1
		_ = fresh.View(odata.ID(uri), func(raw json.RawMessage, _ string) { got[uri] = benchSeq(raw) })
	}
	return got, nil
}

func (w *writeInstance) registry() *obsv.Registry { return w.fw.Service.Metrics().Registry() }
func (w *writeInstance) baseURL() string          { return w.srv.URL }

// release fills the leader's backlog again, so heap_mib reads the same
// backlog in every run, and drops the send and receipt times kept per
// write. The filling writes' events reach the subscribers after the
// oracles have run; release waits for them before dropping receipts.
func (w *writeInstance) release() {
	if err := w.fillBacklog(); err != nil {
		fmt.Printf("release: %v\n", err)
	}
	w.quiesce(10 * time.Second)
	w.mu.Lock()
	w.sends = nil
	w.mu.Unlock()
	for _, s := range append(append([]*countingSink{}, w.matching...), w.nonMatching...) {
		s.mu.Lock()
		s.recv = map[string][]time.Time{}
		s.mu.Unlock()
	}
	if w.backend != nil {
		w.backend.reset()
		w.leaderTimes.reset()
		w.replicaTimes.reset()
	}
}

func (w *writeInstance) close() {
	if w.sseCancel != nil {
		w.sseCancel()
		<-w.sseDone
	}
	if w.replica != nil {
		w.replica.Stop()
	}
	if w.leader != nil {
		w.leader.Stop()
	}
	if w.replSrv != nil {
		w.replSrv.CloseClientConnections()
		w.replSrv.Close()
	}
	if w.srv != nil {
		w.srv.CloseClientConnections()
		w.srv.Close()
	}
	w.client.CloseIdleConnections()
	if w.replSvc != nil {
		w.replSvc.Close()
	}
	if w.fw != nil {
		w.fw.Service.Store().Close()
		w.fw.Close()
	}
	os.RemoveAll(w.dir)
}

// copyDir copies the regular files of a data dir, one level of
// subdirectories deep (the sharded layout's shard-NN streams).
func copyDir(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	for _, e := range entries {
		s, d := filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())
		if e.IsDir() {
			if err := copyDir(s, d); err != nil {
				return err
			}
			continue
		}
		if err := copyFile(s, d); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

func dirSize(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n, err
}
