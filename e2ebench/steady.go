package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the steadiness mode reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steadinessMode runs two sets of n runs of each workload BENCHMARK.json
// gates, alternating which set runs first, and prints for every
// end-to-end metric each set's median and quartiles, its spread
// (interquartile distance over median), the spread of both sets
// together, and whether the sets agree within the metric's bound.
func steadinessMode(n, seconds int, workdir string) error {
	var bf benchmarkFile
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("read BENCHMARK.json (run from the repository root): %w", err)
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		return fmt.Errorf("parse BENCHMARK.json: %w", err)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	allAgree := true
	for _, w := range bf.Workloads {
		wl := w.Name
		if _, ok := specs[wl]; !ok {
			return fmt.Errorf("BENCHMARK.json names unknown workload %q", wl)
		}
		sets := [2][]map[string]float64{}
		var failShare [2][]float64
		for i := 0; i < n; i++ {
			order := []int{0, 1}
			if i%2 == 1 {
				order = []int{1, 0}
			}
			for _, set := range order {
				seed := int64(1 + i + 1000*set)
				res, err := runChild(exe, workdir, wl, seed, seconds)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", wl, seed, err)
				}
				vals := map[string]float64{}
				for k, m := range res.Metrics {
					vals[k] = m.Value
				}
				sets[set] = append(sets[set], vals)
				failShare[set] = append(failShare[set], float64(res.Failed)/float64(res.Attempted))
				fmt.Fprintf(os.Stderr, "steadiness %s set %c seed %d done\n", wl, 'A'+set, seed)
			}
		}
		fmt.Printf("workload %s: %d runs per set, failed share A %v B %v\n", wl, n, failShare[0], failShare[1])
		fmt.Printf("%-16s %12s %12s %12s %8s %12s %8s %8s %8s %6s %s\n",
			"metric", "A q1", "A median", "A q3", "A spread", "B median", "B spread", "B vs A", "all", "bound", "agree")
		for _, m := range bf.EndToEnd {
			var a, b []float64
			for _, v := range sets[0] {
				a = append(a, v[m.Name])
			}
			for _, v := range sets[1] {
				b = append(b, v[m.Name])
			}
			a1, am, a3 := quartiles(a)
			b1, bm, b3 := quartiles(b)
			c1, cm, c3 := quartiles(append(append([]float64{}, a...), b...))
			spreadA, spreadB := (a3-a1)/am, (b3-b1)/bm
			worse := (bm - am) / am
			if m.Better == "higher" {
				worse = -worse
			}
			agree := math.Abs(bm-am)/am <= m.Bound && (m.Name == "setup_s" || spreadA <= m.Bound && spreadB <= m.Bound)
			allAgree = allAgree && agree
			fmt.Printf("%-16s %12.6g %12.6g %12.6g %8.4f %12.6g %8.4f %+8.4f %8.4f %6.3f %v\n",
				m.Name, a1, am, a3, spreadA, bm, spreadB, worse, (c3-c1)/cm, m.Bound, agree)
		}
	}
	if !allAgree {
		return fmt.Errorf("the two sets disagree beyond a bound")
	}
	return nil
}

// runChild runs one untraced run of this benchmark and parses its last
// output line.
func runChild(exe, workdir, workload string, seed int64, seconds int) (*result, error) {
	cmd := exec.Command(exe, "--workdir", workdir, "--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", "0")
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%v: %s", err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("parse result: %w", err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("run reported incorrect outputs: %s", out.String())
	}
	return &res, nil
}
