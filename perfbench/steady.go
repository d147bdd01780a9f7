package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// runSteady runs each workload n times as a child process of this
// binary, seeds seed..seed+n-1, and prints every end-to-end metric's
// median, quartiles and spread (interquartile range over median). When
// BENCHMARK.json is in the working directory, each spread is shown
// against its metric's bound.
func runSteady(names string, seed uint64, seconds, n int) error {
	if n < 2 {
		return fmt.Errorf("--steady needs at least 2 runs, got %d", n)
	}
	list := strings.Split(names, ",")
	if names == "all" {
		list = []string{"paper", "contended", "koalad"}
	}
	bounds := readBounds()
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	for _, w := range list {
		if _, ok := workloads[w]; !ok {
			return fmt.Errorf("unknown workload %q", w)
		}
		values := map[string][]float64{}
		for i := 0; i < n; i++ {
			s := strconv.FormatUint(seed+uint64(i), 10)
			cmd := exec.Command(exe, "--workload", w, "--seed", s, "--seconds", strconv.Itoa(seconds), "--trace", "0")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %s: %w", w, s, err)
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return fmt.Errorf("%s seed %s: result line: %w", w, s, err)
			}
			if !res.Correct || res.Failed > 0 {
				return fmt.Errorf("%s seed %s: correct=%v failed=%d", w, s, res.Correct, res.Failed)
			}
			for k, v := range res.Metrics {
				values[k] = append(values[k], v.Value)
			}
		}
		fmt.Printf("%s: %d runs, --seconds %d\n", w, n, seconds)
		keys := make([]string, 0, len(values))
		for k := range values {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			q1, q2, q3 := quartiles(values[k])
			spread := (q3 - q1) / q2
			line := fmt.Sprintf("  %-20s median %12.6g  q1 %12.6g  q3 %12.6g  spread %6.3f", k, q2, q1, q3, spread)
			if b, ok := bounds[k]; ok {
				verdict := "ok"
				if spread > b/3 {
					verdict = "above bound/3"
				}
				line += fmt.Sprintf("  bound %.2f %s", b, verdict)
			}
			fmt.Println(line)
		}
	}
	return nil
}

// readBounds returns each end-to-end metric's bound from BENCHMARK.json
// in the working directory, or nil when there is none.
func readBounds() map[string]float64 {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if json.Unmarshal(b, &spec) != nil {
		return nil
	}
	out := map[string]float64{}
	for _, m := range spec.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out
}
