package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"

	"ofmf/internal/composer"
	"ofmf/internal/core"
)

// The facility every workload runs against: the paper's 128-node
// composable system with the testbed's pools spelled out, so the
// oracles compute capacity from these constants and not from the
// program under test.
const (
	facilityNodes    = 128
	cxlDevices       = 4
	cxlDeviceMiB     = 256 * 1024
	nvmePoolBytes    = 16 << 40
	gpus             = 8
	slicesPerGPU     = 7
	poolMemoryMiB    = cxlDevices * cxlDeviceMiB
	poolGPUSlices    = gpus * slicesPerGPU
	standingSize     = 48 // live compositions held through every window
	benchConns       = 2  // closed-loop connections: nproc on the reference host
	setupRepeats     = 5  // set-ups per run; setup_s is their median
	noopPath         = "/bench/noop"
	systemsPath      = "/redfish/v1/Systems"
	resourceBlocks   = "/redfish/v1/CompositionService/ResourceBlocks"
	storageStepBytes = 16 << 30
)

func testbedConfig() core.Config {
	return core.Config{
		Nodes:         facilityNodes,
		CoresPerNode:  56,
		NodeMemoryMiB: 128 * 1024,
		CXLDevices:    cxlDevices,
		CXLDeviceMiB:  cxlDeviceMiB,
		NVMePoolBytes: nvmePoolBytes,
		GPUs:          gpus,
		SlicesPerGPU:  slicesPerGPU,
	}
}

// genRequest draws one composition request: cores, CXL memory, an NVMe
// volume and one GPU slice. The GPU pool (8×7 slices) binds first: the
// standing set plus one in-flight request per connection stays under
// it, and memory and storage stay far under theirs, so no compose fails
// for capacity.
func genRequest(rng *rand.Rand, name string) composer.Request {
	return composer.Request{
		Name:            name,
		Cores:           1 + rng.Intn(4),
		FabricMemoryMiB: int64(1+rng.Intn(8)) * 1024,
		StorageBytes:    int64(1+rng.Intn(16)) * storageStepBytes,
		GPUSlices:       1,
	}
}

// standingRequests is the seeded standing set of live compositions.
func standingRequests(seed int64) []composer.Request {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]composer.Request, standingSize)
	for i := range reqs {
		reqs[i] = genRequest(rng, fmt.Sprintf("standing-%02d", i))
	}
	return reqs
}

// ledger sums what a set of requests takes from the pools.
type ledger struct {
	memMiB  int64
	storage int64
	slices  int
}

func (l *ledger) add(r composer.Request, sign int) {
	l.memMiB += int64(sign) * r.FabricMemoryMiB
	l.storage += int64(sign) * r.StorageBytes
	l.slices += sign * r.GPUSlices
}

func sumRequests(reqs []composer.Request) ledger {
	var l ledger
	for _, r := range reqs {
		l.add(r, 1)
	}
	return l
}

// composeStanding realizes the standing set through the composer.
func composeStanding(fw *core.Framework, reqs []composer.Request) error {
	for _, r := range reqs {
		if _, err := fw.Composer.ComposeCtx(context.Background(), r); err != nil {
			return fmt.Errorf("standing composition %s: %w", r.Name, err)
		}
	}
	return nil
}

// bootFacility assembles the testbed and its standing set.
func bootFacility(standing []composer.Request) (*core.Framework, error) {
	fw, err := core.New(testbedConfig())
	if err != nil {
		return nil, fmt.Errorf("testbed: %w", err)
	}
	if err := composeStanding(fw, standing); err != nil {
		fw.Close()
		return nil, err
	}
	return fw, nil
}

// benchMux is a listener's mux with the no-op handler the traced run
// uses to measure the generator's own round-trip floor.
func benchMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc(noopPath, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	})
	return mux
}

// listen serves h on a loopback listener, next to the no-op handler.
func listen(h http.Handler) *httptest.Server {
	mux := benchMux()
	mux.Handle("/", h)
	return httptest.NewServer(mux)
}

// newClient returns the load generator's client: one keep-alive
// connection per closed-loop worker.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: benchConns,
		DisableCompression:  true,
	}}
}

// fetch issues req and reads the whole response body into buf.
func fetch(client *http.Client, req *http.Request, buf *bytes.Buffer) (*http.Response, error) {
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp, err
}
