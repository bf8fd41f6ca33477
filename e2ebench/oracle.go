package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
)

// The oracles are pure functions of what the benchmark observed and
// what it computed itself, so oracle_test.go can plant a fault against
// each one and watch it fail.

// resourceDoc is what the oracles read from a Redfish body.
type resourceDoc struct {
	ID      string  `json:"@odata.id"`
	Count   *int    `json:"Members@odata.count"`
	Members []idDoc `json:"Members"`
}

type idDoc struct {
	ID string `json:"@odata.id"`
}

// checkBody verifies a 200 response: a JSON object whose @odata.id is
// the requested URI. A collection's Members@odata.count must equal its
// member list, every member must carry an @odata.id, and when want is
// not negative the count must equal it.
func checkBody(body []byte, uri string, want int) error {
	var doc resourceDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		return fmt.Errorf("%s: body is not JSON: %v", uri, err)
	}
	if doc.ID != uri {
		return fmt.Errorf("%s: @odata.id is %q", uri, doc.ID)
	}
	if doc.Count != nil {
		if *doc.Count != len(doc.Members) {
			return fmt.Errorf("%s: Members@odata.count %d but %d members", uri, *doc.Count, len(doc.Members))
		}
		for i, m := range doc.Members {
			if m.ID == "" {
				return fmt.Errorf("%s: member %d has no @odata.id", uri, i)
			}
		}
	}
	if want >= 0 && (doc.Count == nil || *doc.Count != want) {
		got := -1
		if doc.Count != nil {
			got = *doc.Count
		}
		return fmt.Errorf("%s: %d members, the facility has %d", uri, got, want)
	}
	return nil
}

// checkGet verifies a plain GET's status, entity tag and body.
func checkGet(status int, etag string, body []byte, uri string, want int) error {
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", uri, status)
	}
	if etag == "" {
		return fmt.Errorf("GET %s: no ETag", uri)
	}
	return checkBody(body, uri, want)
}

// checkNotModified verifies a conditional GET that replayed the
// resource's last ETag: 304 with no body.
func checkNotModified(status int, body []byte, uri string) error {
	if status != http.StatusNotModified {
		return fmt.Errorf("GET %s If-None-Match: status %d, want 304", uri, status)
	}
	if len(body) != 0 {
		return fmt.Errorf("GET %s If-None-Match: 304 carried %d body bytes", uri, len(body))
	}
	return nil
}

// poolState is the composer's free capacity as it reports it.
type poolState struct {
	memMiB  int64
	storage int64
	slices  int
}

// checkPools verifies the composer's free capacity against the pool
// sizes minus the benchmark's own ledger of live requests. inFlight
// widens the check while requests may be half-composed: free capacity
// must then lie between the two.
func checkPools(free poolState, live, inFlight ledger) error {
	wantMem := int64(poolMemoryMiB) - live.memMiB
	wantSto := int64(nvmePoolBytes) - live.storage
	wantGPU := poolGPUSlices - live.slices
	if free.memMiB > wantMem || free.memMiB < wantMem-inFlight.memMiB {
		return fmt.Errorf("free memory %d MiB, want %d (−%d in flight)", free.memMiB, wantMem, inFlight.memMiB)
	}
	if free.storage > wantSto || free.storage < wantSto-inFlight.storage {
		return fmt.Errorf("free storage %d B, want %d (−%d in flight)", free.storage, wantSto, inFlight.storage)
	}
	if free.slices > wantGPU || free.slices < wantGPU-inFlight.slices {
		return fmt.Errorf("free GPU slices %d, want %d (−%d in flight)", free.slices, wantGPU, inFlight.slices)
	}
	return nil
}

// checkURISet verifies the tree holds exactly the URIs it held after
// set-up: nothing a compose created outlived its decompose. URIs that
// extra admits may have been added (see nvmeSubsystemEndpoint).
func checkURISet(want, got []string, extra func(uri string) bool) []string {
	inWant := make(map[string]bool, len(want))
	for _, u := range want {
		inWant[u] = true
	}
	inGot := make(map[string]bool, len(got))
	var problems []string
	for _, u := range got {
		inGot[u] = true
		if !inWant[u] && !extra(u) {
			problems = append(problems, "leaked resource "+u)
		}
	}
	for _, u := range want {
		if !inGot[u] {
			problems = append(problems, "lost resource "+u)
		}
	}
	return problems
}

// nvmeSubsystemEndpoint is the fabric endpoint of a host's NVMe-oF
// subsystem. The NVMe agent creates it on the host's first volume
// connection and keeps it after the last one is gone, so a compose on a
// node no earlier composition used adds it for good.
func nvmeSubsystemEndpoint(node string) string {
	return "/redfish/v1/Fabrics/NVMe/Endpoints/nqn.2023-05.org.ofmf_subsys_" + node
}

// checkLastValues verifies that every system holds the value of its
// last acknowledged write. got maps a system URI to the value read back
// (-1 when the read failed); where names the copy being checked.
func checkLastValues(where string, want, got map[string]int64) []string {
	var problems []string
	for _, uri := range sortedKeys(want) {
		if got[uri] != want[uri] {
			problems = append(problems, fmt.Sprintf("%s: %s holds %d, last acknowledged write was %d",
				where, uri, got[uri], want[uri]))
		}
	}
	return problems
}

// checkExports verifies the replica's export is byte-identical to the
// leader's.
func checkExports(leader, replica []byte) error {
	if !bytes.Equal(leader, replica) {
		return fmt.Errorf("replica export (%d bytes) differs from the leader's (%d bytes)", len(replica), len(leader))
	}
	return nil
}

// checkDeliveries verifies event fan-out: every matching subscription
// received exactly one ResourceUpdated per acknowledged write to each
// system, and no non-matching subscription received anything.
func checkDeliveries(acked map[string]int64, matching []map[string]int64, nonMatching []int64) []string {
	var problems []string
	for i, got := range matching {
		for _, uri := range sortedKeys(acked) {
			if got[uri] != acked[uri] {
				problems = append(problems, fmt.Sprintf("matching subscription %d: %d events for %s, %d acknowledged writes",
					i, got[uri], uri, acked[uri]))
			}
		}
		for uri, n := range got {
			if _, ok := acked[uri]; !ok {
				problems = append(problems, fmt.Sprintf("matching subscription %d: %d events for unwritten %s", i, n, uri))
			}
		}
	}
	for i, n := range nonMatching {
		if n != 0 {
			problems = append(problems, fmt.Sprintf("non-matching subscription %d received %d events", i, n))
		}
	}
	return problems
}
