package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"
)

// benchmarkMetrics reads the metric names BENCHMARK.json declares.
func benchmarkMetrics(t *testing.T, section string) []string {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var ms []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	if err := json.Unmarshal(spec[section], &ms); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range ms {
		if !validName(m.Name) || !validUnit(m.Unit) {
			t.Errorf("BENCHMARK.json %s: invalid metric %q unit %q", section, m.Name, m.Unit)
		}
		names = append(names, m.Name+" "+m.Unit)
	}
	sort.Strings(names)
	return names
}

func resultMetrics(res *result) []string {
	var names []string
	for k, m := range res.Metrics {
		names = append(names, k+" "+m.Unit)
	}
	sort.Strings(names)
	return names
}

// TestRunSmoke runs short end-to-end and traced runs: every output check
// passes at these sizes, and each run reports exactly the metrics
// BENCHMARK.json declares. Under -race it covers the open loop's and the
// live sessions' goroutines.
func TestRunSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark for several seconds")
	}
	for _, c := range []struct {
		workload string
		traced   bool
		section  string
	}{
		{"daemon-mix", false, "end_to_end"},
		{"fd4-archive", true, "per_layer"},
	} {
		res, err := run(t.TempDir(), workloadSpecs[c.workload], 5, 2*time.Second, c.traced)
		if err != nil {
			t.Fatalf("%s: %v", c.workload, err)
		}
		// The traced run's accounting check is a measurement, too noisy
		// at two seconds to assert; every other check must pass.
		if res.Attempted == 0 || (!c.traced && res.Failed != 0) || res.Failed > 1 {
			t.Errorf("%s: attempted %d, failed %d", c.workload, res.Attempted, res.Failed)
		}
		want, got := benchmarkMetrics(t, c.section), resultMetrics(res)
		if len(want) != len(got) {
			t.Fatalf("%s reports %v, BENCHMARK.json declares %v", c.workload, got, want)
		}
		for i := range want {
			if want[i] != got[i] {
				t.Errorf("%s reports %q, BENCHMARK.json declares %q", c.workload, got[i], want[i])
			}
		}
	}
}
