package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"

	"ofmf/internal/composer"
	"ofmf/internal/core"
	"ofmf/internal/odata"
	"ofmf/internal/redfish"
	"ofmf/internal/service"
	"ofmf/internal/store"
	"ofmf/internal/store/persist"
)

// Each test drives the real program on a small facility, shows the
// oracle passes on the healthy path, then plants one fault and shows
// the oracle fails.

func smallFacility(t *testing.T) *core.Framework {
	t.Helper()
	cfg := testbedConfig()
	cfg.Nodes = 8
	fw, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fw.Close)
	return fw
}

func get(t *testing.T, client *http.Client, url, ifNoneMatch string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	var buf bytes.Buffer
	resp, err := fetch(client, req, &buf)
	if err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestPollOraclesCatchWrongETag(t *testing.T) {
	fw := smallFacility(t)
	srv := listen(fw.Handler())
	defer srv.Close()
	client := newClient()
	uri := string(service.SystemsURI.Append("node001"))

	resp, body := get(t, client, srv.URL+uri, "")
	etag := resp.Header.Get("ETag")
	if err := checkGet(resp.StatusCode, etag, body, uri, -1); err != nil {
		t.Fatalf("healthy GET: %v", err)
	}
	resp, body = get(t, client, srv.URL+uri, etag)
	if err := checkNotModified(resp.StatusCode, body, uri); err != nil {
		t.Fatalf("replayed ETag: %v", err)
	}

	// A wrong ETag gets the full body back, which the 304 oracle rejects.
	resp, body = get(t, client, srv.URL+uri, etag+"x")
	if checkNotModified(resp.StatusCode, body, uri) == nil {
		t.Fatal("oracle accepted a conditional GET answered with a body")
	}
	if checkNotModified(http.StatusNotModified, []byte("{}"), uri) == nil {
		t.Fatal("oracle accepted a 304 carrying a body")
	}
	if checkGet(http.StatusOK, "", body, uri, -1) == nil {
		t.Fatal("oracle accepted a GET without an ETag")
	}
	// A body served for another URI.
	other := bytes.Replace(body, []byte(`"`+uri+`"`), []byte(`"/redfish/v1/Systems/node002"`), 1)
	if checkBody(other, uri, -1) == nil {
		t.Fatal("oracle accepted a body whose @odata.id is another resource")
	}
}

func TestPollOracleCatchesWrongCollectionCount(t *testing.T) {
	fw := smallFacility(t)
	srv := listen(fw.Handler())
	defer srv.Close()
	client := newClient()

	resp, body := get(t, client, srv.URL+systemsPath, "")
	if err := checkGet(resp.StatusCode, resp.Header.Get("ETag"), body, systemsPath, 8); err != nil {
		t.Fatalf("healthy collection: %v", err)
	}
	_, body = get(t, client, srv.URL+systemsPath+"?$expand=.", "")
	if err := checkBody(body, systemsPath, 8); err != nil {
		t.Fatalf("healthy $expand: %v", err)
	}
	if checkBody(body, systemsPath, 9) == nil {
		t.Fatal("oracle accepted a collection missing a member")
	}
	var doc map[string]any
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	doc["Members"] = doc["Members"].([]any)[1:]
	short, _ := json.Marshal(doc)
	if checkBody(short, systemsPath, -1) == nil {
		t.Fatal("oracle accepted Members@odata.count disagreeing with Members")
	}
}

func TestComposeOraclesCatchLeakedConnection(t *testing.T) {
	fw := smallFacility(t)
	ctx := context.Background()
	post := storeURIs(fw)
	req := composer.Request{Name: "probe", Cores: 2, FabricMemoryMiB: 2048, StorageBytes: storageStepBytes, GPUSlices: 1}

	comp, err := fw.Composer.ComposeCtx(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkPools(composerFree(fw), sumRequests([]composer.Request{req}), ledger{}); err != nil {
		t.Fatalf("live composition: %v", err)
	}
	if err := fw.Composer.DecomposeCtx(ctx, comp.ID); err != nil {
		t.Fatal(err)
	}
	extra := func(u string) bool { return u == nvmeSubsystemEndpoint(comp.Node) }
	if p := checkURISet(post, storeURIs(fw), extra); len(p) != 0 {
		t.Fatalf("healthy cycle: %v", p)
	}
	if err := checkPools(composerFree(fw), ledger{}, ledger{}); err != nil {
		t.Fatalf("after decompose: %v", err)
	}

	// A connection nobody tore down.
	leak := odata.ID("/redfish/v1/Fabrics/CXL/Connections/leaked")
	if err := fw.Service.Store().Put(leak, redfish.Connection{
		Resource: odata.NewResource(leak, redfish.TypeConnection, "leaked")}); err != nil {
		t.Fatal(err)
	}
	if p := checkURISet(post, storeURIs(fw), extra); len(p) != 1 {
		t.Fatalf("leaked connection: got %v", p)
	}
	// The subsystem endpoint is admitted only for nodes the benchmark used.
	if p := checkURISet(post, storeURIs(fw), func(string) bool { return false }); len(p) == 0 {
		t.Fatal("oracle admitted a subsystem endpoint it was not told about")
	}

	// Capacity the ledger says is free but the composer still holds.
	held, err := fw.Composer.ComposeCtx(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if checkPools(composerFree(fw), ledger{}, ledger{}) == nil {
		t.Fatal("oracle missed capacity held by a composition the ledger released")
	}
	if err := fw.Composer.DecomposeCtx(ctx, held.ID); err != nil {
		t.Fatal(err)
	}
}

func TestWriteOraclesCatchDroppedWrite(t *testing.T) {
	dir := t.TempDir()
	st := store.New()
	uris := []string{"/redfish/v1/Systems/a", "/redfish/v1/Systems/b"}
	for _, u := range uris {
		if err := st.Put(odata.ID(u), map[string]any{"@odata.id": u}); err != nil {
			t.Fatal(err)
		}
	}
	b, err := persist.Open(persist.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := b.Recover(st)
	if err != nil {
		t.Fatal(err)
	}
	st.AttachBackend(b, stats.LastSeq)
	last := map[string]int64{}
	for i := int64(1); i <= 3; i++ {
		for _, u := range uris {
			patch := map[string]any{"Oem": map[string]any{"Bench": map[string]any{"Seq": i}}}
			if err := st.Patch(odata.ID(u), patch, ""); err != nil {
				t.Fatal(err)
			}
			last[u] = i
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	read := func() map[string]int64 {
		fresh := store.New()
		b, err := persist.Open(persist.Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		if _, err := b.Recover(fresh); err != nil {
			t.Fatal(err)
		}
		got := map[string]int64{}
		for _, u := range uris {
			_ = fresh.View(odata.ID(u), func(raw json.RawMessage, _ string) { got[u] = benchSeq(raw) })
		}
		return got
	}
	if p := checkLastValues("recovered", last, read()); len(p) != 0 {
		t.Fatalf("healthy recovery: %v", p)
	}
	// A write acknowledged to the client but never made durable.
	last[uris[1]] = 4
	if p := checkLastValues("recovered", last, read()); len(p) != 1 {
		t.Fatalf("dropped write: got %v", p)
	}
}

func TestReplicaAndDeliveryOracles(t *testing.T) {
	if err := checkExports([]byte(`{"a":1}`), []byte(`{"a":1}`)); err != nil {
		t.Fatal(err)
	}
	if checkExports([]byte(`{"a":1}`), []byte(`{"a":2}`)) == nil {
		t.Fatal("oracle accepted a diverged replica")
	}
	acked := map[string]int64{"/s/a": 2, "/s/b": 1}
	healthy := []map[string]int64{{"/s/a": 2, "/s/b": 1}}
	if p := checkDeliveries(acked, healthy, []int64{0}); len(p) != 0 {
		t.Fatalf("healthy deliveries: %v", p)
	}
	if p := checkDeliveries(acked, []map[string]int64{{"/s/a": 1, "/s/b": 1}}, []int64{0}); len(p) == 0 {
		t.Fatal("oracle missed a lost event")
	}
	if p := checkDeliveries(acked, []map[string]int64{{"/s/a": 3, "/s/b": 1}}, []int64{0}); len(p) == 0 {
		t.Fatal("oracle missed a duplicated event")
	}
	if p := checkDeliveries(acked, healthy, []int64{1}); len(p) == 0 {
		t.Fatal("oracle missed an event delivered to a non-matching subscription")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
	if p := percentile([]float64{5, 1, 4, 2, 3}, 0.5); p != 3 {
		t.Fatalf("p50 = %v", p)
	}
}
