package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"ofmf/internal/composer"
	"ofmf/internal/core"
	"ofmf/internal/obsv"
)

// composeSpec composes and decomposes systems over the standing set:
// composer, agents, emulators and store.PutSubtree. It is not among the
// workloads BENCHMARK.json gates (see README.md); its code is also the
// traced run's compose rung.
var composeSpec = &workloadSpec{
	classes:     []string{"compose", "decompose"},
	opClass:     "compose",
	followClass: "decompose",
	setup:       setupCompose,
}

// composeRoundSize is the number of compose+decompose cycles in one
// round of one connection.
const composeRoundSize = 8

type composeInstance struct {
	fw       *core.Framework
	srv      *httptest.Server
	client   *http.Client
	standing ledger
	postURIs []string // the tree's URIs after set-up
	conns    []*composeConn
	changes  *changeCounter // traced runs: Store.Watch notifications
	changes0 int64          // the counter when the window began

	mu       sync.Mutex
	inFlight ledger          // requests sent and not yet decomposed
	nodes    map[string]bool // nodes the benchmark's compositions landed on
	problems []string
}

type composeConn struct {
	id    int
	round []composer.Request
	seq   int
	buf   bytes.Buffer
}

func setupCompose(env *runEnv) (instance, error) {
	standing := standingRequests(env.seed)
	fw, err := bootFacility(standing)
	if err != nil {
		return nil, err
	}
	ci := &composeInstance{fw: fw, srv: listen(fw.Handler()), client: newClient(),
		standing: sumRequests(standing), nodes: map[string]bool{}}
	for c := 0; c < benchConns; c++ {
		rng := rand.New(rand.NewSource(env.seed*104729 + int64(c)))
		cc := &composeConn{id: c}
		for i := 0; i < composeRoundSize; i++ {
			cc.round = append(cc.round, genRequest(rng, ""))
		}
		ci.conns = append(ci.conns, cc)
	}
	if env.traced {
		ci.changes = watchChanges(fw)
	}
	return ci, nil
}

func (ci *composeInstance) warm() error {
	ci.postURIs = storeURIs(ci.fw)
	if err := checkPools(composerFree(ci.fw), ci.standing, ledger{}); err != nil {
		return fmt.Errorf("after set-up: %w", err)
	}
	// One untimed cycle per connection fills pools and caches.
	st := newClassMap(composeSpec)
	for c := range ci.conns {
		ci.cycle(ci.conns[c], ci.conns[c].round[0], st)
	}
	if st["compose"].failed+st["decompose"].failed > 0 {
		return fmt.Errorf("warm-up cycle failed: %v", ci.problems)
	}
	if ci.changes != nil {
		ci.changes0 = ci.changes.n.Load()
	}
	return nil
}

func (ci *composeInstance) round(conn, _ int, st map[string]*classStats) {
	cc := ci.conns[conn]
	for _, req := range cc.round {
		ci.cycle(cc, req, st)
	}
}

// cycle composes one system through POST /redfish/v1/Systems and
// decomposes it with DELETE of its Location.
func (ci *composeInstance) cycle(cc *composeConn, req composer.Request, st map[string]*classStats) {
	cc.seq++
	req.Name = fmt.Sprintf("bench-c%d-%d", cc.id, cc.seq)
	body, _ := json.Marshal(req)
	ci.mu.Lock()
	ci.inFlight.add(req, 1)
	ci.mu.Unlock()

	post, _ := http.NewRequest(http.MethodPost, ci.srv.URL+systemsPath, bytes.NewReader(body))
	post.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := fetch(ci.client, post, &cc.buf)
	d := time.Since(start)
	loc := ""
	if err == nil {
		loc = resp.Header.Get("Location")
		switch {
		case resp.StatusCode != http.StatusCreated:
			err = fmt.Errorf("compose %s: status %d: %s", req.Name, resp.StatusCode, cc.buf.String())
		case loc != systemsPath+"/"+req.Name:
			err = fmt.Errorf("compose %s: Location %q", req.Name, loc)
		default:
			err = checkBody(cc.buf.Bytes(), loc, -1)
		}
	}
	if err == nil {
		var sys struct{ HostName string }
		if err = json.Unmarshal(cc.buf.Bytes(), &sys); err == nil {
			ci.mu.Lock()
			ci.nodes[sys.HostName] = true
			ci.mu.Unlock()
		}
	}
	if err == nil {
		// While both connections compose, free capacity must lie between
		// the standing set plus this request and the standing set plus
		// everything in flight.
		ci.mu.Lock()
		live := ci.standing
		live.add(req, 1)
		inFlight := ci.inFlight
		inFlight.add(req, -1)
		err = checkPools(composerFree(ci.fw), live, inFlight)
		ci.mu.Unlock()
	}
	st["compose"].observe(d, err == nil)
	if err != nil {
		ci.fail(err)
		if loc == "" {
			ci.settle(req)
			return
		}
	}

	del, _ := http.NewRequest(http.MethodDelete, ci.srv.URL+loc, nil)
	start = time.Now()
	resp, err = fetch(ci.client, del, &cc.buf)
	d = time.Since(start)
	if err == nil && resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("decompose %s: status %d: %s", loc, resp.StatusCode, cc.buf.String())
	}
	st["decompose"].observe(d, err == nil)
	if err != nil {
		ci.fail(err)
		return
	}
	ci.settle(req)
}

// settle removes a decomposed (or never composed) request from the
// in-flight ledger.
func (ci *composeInstance) settle(req composer.Request) {
	ci.mu.Lock()
	ci.inFlight.add(req, -1)
	ci.mu.Unlock()
}

func (ci *composeInstance) fail(err error) {
	ci.mu.Lock()
	if len(ci.problems) < 20 {
		ci.problems = append(ci.problems, err.Error())
	}
	ci.mu.Unlock()
}

// check verifies the end state: capacity back to the standing set's
// ledger and the tree's URI set equal to the post-set-up set — no
// chunk, volume, partition, zone or connection leaked.
func (ci *composeInstance) check(st map[string]*classStats) []string {
	problems := append([]string(nil), ci.problems...)
	if err := checkPools(composerFree(ci.fw), ci.standing, ledger{}); err != nil {
		problems = append(problems, "after the window: "+err.Error())
	}
	extra := map[string]bool{}
	for node := range ci.nodes {
		extra[nvmeSubsystemEndpoint(node)] = true
	}
	return append(problems, checkURISet(ci.postURIs, storeURIs(ci.fw), func(u string) bool { return extra[u] })...)
}

func (ci *composeInstance) registry() *obsv.Registry { return ci.fw.Service.Metrics().Registry() }
func (ci *composeInstance) baseURL() string          { return ci.srv.URL }

// layers reads the compose-path layers from the window: agent
// operations from ofmf_agent_op* and store change notifications per
// cycle from the traced Store.Watch counter.
func (ci *composeInstance) layers(w *windowInfo) map[string]float64 {
	pl := map[string]float64{}
	addComposeLayers(pl, w, ci.changes.n.Load()-ci.changes0, w.ops)
	return pl
}

func (ci *composeInstance) release() {}

func (ci *composeInstance) close() {
	ci.srv.Close()
	ci.client.CloseIdleConnections()
	ci.fw.Close()
}

// composerFree reads the composer's free capacity.
func composerFree(fw *core.Framework) poolState {
	s := fw.Composer.Stats()
	return poolState{memMiB: s.FreeMemoryMiB, storage: s.FreeStorageB, slices: s.FreeGPUSlices}
}

func storeURIs(fw *core.Framework) []string {
	ids := fw.Service.Store().IDs()
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = string(id)
	}
	sort.Strings(out)
	return out
}
