package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
	"time"
)

func TestOpenLoop(t *testing.T) {
	a := openLoop(forkTraffic(7), 1000, 10_000)
	b := openLoop(forkTraffic(7), 1000, 10_000)
	if a.Len() != 1000 {
		t.Fatalf("len = %d, want 1000", a.Len())
	}
	for i := range a.Events {
		if want := time.Duration(i) * 100 * time.Microsecond; time.Duration(a.Events[i].At) != want {
			t.Fatalf("event %d at %v, want %v", i, time.Duration(a.Events[i].At), want)
		}
		if *a.Events[i].Pkt != *b.Events[i].Pkt {
			t.Fatalf("event %d differs between two traces of one seed", i)
		}
	}
}

func TestIQM(t *testing.T) {
	for _, c := range []struct {
		vals []float64
		want float64
	}{
		{[]float64{5}, 5},
		{[]float64{1, 3}, 2},
		{[]float64{100, 1, 2, 3}, 2.5},               // drops one value at each end
		{[]float64{9, 1, 1, 2, 2, 2, 2, 1, 50}, 1.8}, // 1 2 2 2 2 of 1 1 1 2 2 2 2 9 50
	} {
		if got := iqm(c.vals); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("iqm(%v) = %v, want %v", c.vals, got, c.want)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json at the repository root in step
// with the workloads and metrics this program prints.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	type entry struct{ Name, Unit string }
	var b struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var wls, e2e, layers []entry
	for _, w := range workloads {
		wls = append(wls, entry{Name: w.name})
	}
	for _, m := range endToEnd {
		e2e = append(e2e, entry{m.name, m.unit})
	}
	e2e = append(e2e, entry{"setup_s", "s"})
	for _, m := range perLayerMetrics() {
		layers = append(layers, entry{m.name, m.unit})
	}
	for _, c := range []struct {
		what      string
		got, want []entry
	}{{"workloads", b.Workloads, wls}, {"end_to_end", b.EndToEnd, e2e}, {"per_layer", b.PerLayer, layers}} {
		if !slices.Equal(c.got, c.want) {
			t.Errorf("BENCHMARK.json %s = %v, program prints %v", c.what, c.got, c.want)
		}
	}
}
