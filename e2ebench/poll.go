package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"time"

	"ofmf/internal/core"
	"ofmf/internal/obsv"
	"ofmf/internal/odata"
)

// pollSpec reads across the whole tree of a busy facility: the serving
// edge (service, obsv, store read path).
var pollSpec = &workloadSpec{
	classes:     []string{"get", "cond_get", "expand_get"},
	opClass:     "read",
	followClass: "cond_get",
	setup:       setupPoll,
}

// Poll read kinds.
const (
	getPlain  = iota // plain GET of a resource or collection
	getCond          // GET replaying the last ETag: the 304 path
	getExpand        // $expand=. collection read
)

var pollClass = [...]string{getPlain: "get", getCond: "cond_get", getExpand: "expand_get"}

// pollOp is one read of the round.
type pollOp struct {
	kind int
	uri  string
	want int // expected Members@odata.count, -1 where the facility fixes none
}

// pollRound lists the reads one round makes, in a fixed order each
// connection shuffles: every URI of the tree once, a seeded quarter of
// them again as conditional GETs, and the Systems collection plus a
// seeded quarter of the others as $expand reads.
func pollRound(uris []string, colls map[string]bool, seed int64) []pollOp {
	rng := rand.New(rand.NewSource(seed))
	want := func(uri string) int {
		switch uri {
		case systemsPath:
			return facilityNodes + standingSize
		case resourceBlocks:
			return standingSize
		}
		return -1
	}
	var ops []pollOp
	var collList []string
	for _, u := range uris {
		ops = append(ops, pollOp{getPlain, u, want(u)})
		if colls[u] && u != systemsPath {
			collList = append(collList, u)
		}
	}
	for _, i := range rng.Perm(len(uris))[:len(uris)/4] {
		ops = append(ops, pollOp{getCond, uris[i], -1})
	}
	ops = append(ops, pollOp{getExpand, systemsPath, want(systemsPath)})
	for _, i := range rng.Perm(len(collList))[:(len(collList)+3)/4] {
		ops = append(ops, pollOp{getExpand, collList[i], want(collList[i])})
	}
	return ops
}

// pollTargets is every resource and collection of the tree except the
// telemetry reports, which the testbed regenerates on a timer and so
// have no stable ETag. Collections are not store entries: they are
// found among the links the resources carry.
func pollTargets(fw *core.Framework) (uris []string, colls map[string]bool) {
	st := fw.Service.Store()
	colls = map[string]bool{}
	var links []string
	for _, id := range st.IDs() {
		u := string(id)
		if strings.HasPrefix(u, "/redfish/v1/TelemetryService/MetricReports/") {
			continue
		}
		uris = append(uris, u)
		_ = st.View(id, func(raw json.RawMessage, _ string) { links = collectLinks(raw, links) })
	}
	for _, l := range links {
		if !colls[l] && st.IsCollection(odata.ID(l)) {
			colls[l] = true
			uris = append(uris, l)
		}
	}
	sort.Strings(uris)
	return uris, colls
}

// collectLinks appends every @odata.id value in a JSON document.
func collectLinks(raw []byte, out []string) []string {
	var doc any
	if json.Unmarshal(raw, &doc) != nil {
		return out
	}
	var walk func(v any)
	walk = func(v any) {
		switch t := v.(type) {
		case map[string]any:
			for k, x := range t {
				if s, ok := x.(string); ok && k == "@odata.id" {
					out = append(out, s)
				} else {
					walk(x)
				}
			}
		case []any:
			for _, x := range t {
				walk(x)
			}
		}
	}
	walk(doc)
	return out
}

type pollInstance struct {
	seed   int64
	fw     *core.Framework
	srv    *httptest.Server
	client *http.Client
	ops    []pollOp
	conns  []*pollConn
}

// pollConn is one connection's state: its request objects, its own
// shuffle, and the bodies it has already validated, so a repeat read
// is checked by one byte comparison.
type pollConn struct {
	rng   *rand.Rand
	order []int
	reqs  []*http.Request
	seen  [][]byte
	buf   bytes.Buffer
	// firstErr is the first failed check, reported by check.
	firstErr error
}

func setupPoll(env *runEnv) (instance, error) {
	fw, err := bootFacility(standingRequests(env.seed))
	if err != nil {
		return nil, err
	}
	return &pollInstance{seed: env.seed, fw: fw, srv: listen(fw.Handler()), client: newClient()}, nil
}

// warm builds the round, then reads every target once per connection,
// validating each body and recording the ETags the conditional reads
// replay.
func (p *pollInstance) warm() error {
	uris, colls := pollTargets(p.fw)
	p.ops = pollRound(uris, colls, p.seed)
	counts := map[int]int{}
	for _, op := range p.ops {
		counts[op.kind]++
	}
	fmt.Printf("poll round: %d get (%d collections), %d cond_get, %d expand_get\n",
		counts[getPlain], len(colls), counts[getCond], counts[getExpand])
	for c := 0; c < benchConns; c++ {
		pc := &pollConn{rng: rand.New(rand.NewSource(p.seed*7919 + int64(c))), seen: make([][]byte, len(p.ops))}
		for i, op := range p.ops {
			pc.order = append(pc.order, i)
			url := p.srv.URL + op.uri
			if op.kind == getExpand {
				url += "?$expand=."
			}
			req, err := http.NewRequest(http.MethodGet, url, nil)
			if err != nil {
				return err
			}
			pc.reqs = append(pc.reqs, req)
		}
		p.conns = append(p.conns, pc)
		etags := map[string]string{}
		for i, op := range p.ops {
			if op.kind == getCond {
				continue
			}
			resp, err := fetch(p.client, pc.reqs[i], &pc.buf)
			if err != nil {
				return err
			}
			if op.kind == getPlain {
				if err := checkGet(resp.StatusCode, resp.Header.Get("ETag"), pc.buf.Bytes(), op.uri, op.want); err != nil {
					return err
				}
				etags[op.uri] = resp.Header.Get("ETag")
			} else if err := checkBody(pc.buf.Bytes(), op.uri, op.want); err != nil {
				return err
			}
			pc.seen[i] = append([]byte(nil), pc.buf.Bytes()...)
		}
		for i, op := range p.ops {
			if op.kind == getCond {
				pc.reqs[i].Header.Set("If-None-Match", etags[op.uri])
			}
		}
	}
	return nil
}

func (p *pollInstance) round(conn, _ int, st map[string]*classStats) {
	pc := p.conns[conn]
	pc.rng.Shuffle(len(pc.order), func(i, j int) { pc.order[i], pc.order[j] = pc.order[j], pc.order[i] })
	read, cls := st["read"], st
	for _, i := range pc.order {
		op := p.ops[i]
		start := time.Now()
		resp, err := fetch(p.client, pc.reqs[i], &pc.buf)
		d := time.Since(start)
		if err == nil {
			err = p.verify(pc, i, op, resp)
		}
		ok := err == nil
		if !ok && pc.firstErr == nil {
			pc.firstErr = err
		}
		cls[pollClass[op.kind]].observe(d, ok)
		read.observe(d, ok)
	}
}

// verify checks one read. A body equal to one this connection already
// validated for the same read passes; any other body is validated in
// full and remembered.
func (p *pollInstance) verify(pc *pollConn, i int, op pollOp, resp *http.Response) error {
	body := pc.buf.Bytes()
	if op.kind == getCond {
		return checkNotModified(resp.StatusCode, body, op.uri)
	}
	if resp.StatusCode == http.StatusOK && bytes.Equal(body, pc.seen[i]) {
		if op.kind == getPlain && resp.Header.Get("ETag") == "" {
			return fmt.Errorf("GET %s: no ETag", op.uri)
		}
		return nil
	}
	var err error
	if op.kind == getPlain {
		err = checkGet(resp.StatusCode, resp.Header.Get("ETag"), body, op.uri, op.want)
	} else if resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s?$expand=.: status %d", op.uri, resp.StatusCode)
	} else {
		err = checkBody(body, op.uri, op.want)
	}
	if err == nil {
		pc.seen[i] = append(pc.seen[i][:0], body...)
	}
	return err
}

func (p *pollInstance) check(st map[string]*classStats) []string {
	var problems []string
	for _, name := range pollSpec.classes {
		if c := st[name]; c.failed > 0 {
			problems = append(problems, fmt.Sprintf("%d of %d %s reads failed their check", c.failed, c.attempted, name))
		}
	}
	for c, pc := range p.conns {
		if pc.firstErr != nil {
			problems = append(problems, fmt.Sprintf("connection %d: first failure: %v", c, pc.firstErr))
		}
	}
	return problems
}

func (p *pollInstance) registry() *obsv.Registry { return p.fw.Service.Metrics().Registry() }
func (p *pollInstance) baseURL() string          { return p.srv.URL }

func (p *pollInstance) layers(w *windowInfo) map[string]float64 {
	return map[string]float64{}
}

// release keeps the validated bodies: they are per target, not per
// operation.
func (p *pollInstance) release() {}

func (p *pollInstance) close() {
	p.srv.Close()
	p.client.CloseIdleConnections()
	p.fw.Close()
}
