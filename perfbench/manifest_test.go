package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"

	"colocmodel/internal/stats"
)

// TestCatalogMatchesManifest keeps BENCHMARK.json and the metrics the
// benchmark prints in step: same names, units and order.
func TestCatalogMatchesManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		layer bool
		got   []struct{ Name, Unit string }
	}{{false, m.EndToEnd}, {true, m.PerLayer}} {
		want := metricsFor(tc.layer)
		if len(want) != len(tc.got) {
			t.Fatalf("layer=%v: manifest lists %d metrics, catalog %d", tc.layer, len(tc.got), len(want))
		}
		for i, d := range want {
			if tc.got[i].Name != d.name || tc.got[i].Unit != d.unit {
				t.Errorf("layer=%v metric %d: manifest %s [%s], catalog %s [%s]",
					tc.layer, i, tc.got[i].Name, tc.got[i].Unit, d.name, d.unit)
			}
		}
	}
}

func TestMixedSpace(t *testing.T) {
	apps := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k"}
	if n := len(multisets(apps, maxCoRunners)); n != 4368 {
		t.Errorf("%d co-runner multisets, want C(16,5) = 4368", n)
	}
	if n := newMixedGen(apps, 6, 1).size(); n != 288288 {
		t.Errorf("mixed space has %d scenarios, want 11 x 4368 x 6 = 288288", n)
	}
}

// TestLatencyHistQuantile checks the fixed-memory histogram against
// exact order statistics: within one bucket (0.54%) of the interpolated
// sample quantile, exact at the extremes, and exact for few values.
func TestLatencyHistQuantile(t *testing.T) {
	var h latencyHist
	xs := make([]float64, 0, 10000)
	for i := 0; i < 10000; i++ {
		v := 10 + float64(i%997)*0.37 + float64(i%13)
		xs = append(xs, v)
		h.record(v)
	}
	for _, q := range []float64{0.5, 0.95} {
		want := stats.Quantile(xs, q)
		if got := h.quantile(q); math.Abs(got/want-1) > 0.006 {
			t.Errorf("q%.2f = %v, want %v within 0.6%%", q, got, want)
		}
	}
	if got, want := h.quantile(1), stats.Quantile(xs, 1); got != want {
		t.Errorf("max = %v, want %v", got, want)
	}
	var empty latencyHist
	if got := empty.quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", got)
	}
	var few latencyHist
	for _, v := range xs[:11] {
		few.record(v)
	}
	if got, want := few.quantile(0.5), stats.Quantile(xs[:11], 0.5); got != want {
		t.Errorf("median of 11 values = %v, want exactly %v", got, want)
	}
}

func TestRunCheckRejectsVacuousCheck(t *testing.T) {
	pass := func() error { return nil }
	if c := runCheck("always", 1, pass, pass); c.Passed && c.PerturbedFailed {
		t.Error("a check that accepts a perturbed output must not count")
	}
	if c := runCheck("empty", 0, pass, func() error { return fmt.Errorf("bad") }); c.Passed {
		t.Error("a check with no samples must not pass")
	}
}

// TestSamplerKeepsBoundedSpread checks that the sampler's memory does
// not grow with the number of operations while its samples still span
// the whole stream.
func TestSamplerKeepsBoundedSpread(t *testing.T) {
	s := newSampler(1, 8)
	o := &op{kind: "predict"}
	for i := 0; i < 10000; i++ {
		s.offer(0, o, []byte("{}"), "", true, 0)
	}
	kept := s.kept("predict")
	if len(kept) < 4 || len(kept) > 8 {
		t.Fatalf("kept %d samples, want 4-8", len(kept))
	}
	if last := kept[len(kept)-1].n; last < 5000 {
		t.Errorf("last kept sample is op %d of 10000: the sample does not span the stream", last)
	}
	obs := &op{kind: "observe", idx: 2}
	for i := 0; i < 3; i++ {
		s.offer(0, obs, nil, "b1", true, 4)
	}
	s.offer(0, obs, nil, "b1", false, 4)
	if got := s.acks()["b1"]; len(got) != 4 || got[2] != 3 {
		t.Errorf("acks = %v, want 3 acknowledgements of observation 2", got)
	}
	s.verify = map[string]func(*op, []byte) error{"placement": func(_ *op, body []byte) error {
		if string(body) == "bad" {
			return fmt.Errorf("bad plan")
		}
		return nil
	}}
	pl := &op{kind: "placement"}
	for _, body := range []string{"ok", "bad", "ok"} {
		s.offer(0, pl, []byte(body), "", true, 0)
	}
	s.offer(0, pl, []byte("bad"), "", false, 0) // failed ops are counted as failed, not verified
	if n, err := s.verified("placement"); n != 3 || err == nil {
		t.Errorf("verified %d placements (first error %v), want 3 and the bad plan's error", n, err)
	}
}
