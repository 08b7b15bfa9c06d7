package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"time"

	"colocmodel/internal/fleetobs"
	"colocmodel/internal/loadgen"
	"colocmodel/internal/obs"
	"colocmodel/internal/serve"
	"colocmodel/internal/stats"
	"colocmodel/internal/xrand"
)

const (
	hotZipf       = 1.1
	hotBatchPool  = 4096 // pre-encoded batches drawn from the Zipf stream
	hotSetupReps  = 41
	hotSampleCap  = 512 // kept responses per kind and client
	hotTraceEvery = 16  // 55-80k ops/s in process: trace one op in 16
)

// hotServer is one serve.Server reached through Handler() in process.
type hotServer struct {
	tap *tap
}

// startHot is serve-hot's set-up: artefact load and compile, server
// construction, and a first probe (health plus one predict).
func startHot(a *artefact, probe []byte) (*hotServer, error) {
	reg, err := a.loadRegistry()
	if err != nil {
		return nil, err
	}
	srv := serve.New(reg, serve.Config{})
	hs := &hotServer{tap: &tap{name: "serve", parent: "client", h: srv.Handler()}}
	for _, p := range []struct {
		method, path string
		body         []byte
	}{{http.MethodGet, "/healthz", nil}, {http.MethodPost, "/v1/predict", probe}} {
		status, _, body := hs.call(p.method, p.path, p.body, nil)
		if status != http.StatusOK {
			return nil, fmt.Errorf("probe %s answered %d: %s", p.path, status, body)
		}
	}
	return hs, nil
}

func (h *hotServer) call(method, path string, body []byte, hdr map[string]string) (int, http.Header, []byte) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.tap.ServeHTTP(rec, req)
	return rec.Code, rec.Header(), rec.Body.Bytes()
}

func (h *hotServer) do(o *op, reqID string, n uint64) (int, http.Header, []byte, error) {
	var hdr map[string]string
	if reqID != "" {
		hdr = map[string]string{"X-Request-ID": reqID, obs.TraceparentHeader: sampledTraceparent(n)}
	}
	status, header, body := h.call(http.MethodPost, o.path, o.body, hdr)
	return status, header, body, nil
}

func (h *hotServer) scrape() (scrape, error) {
	status, _, body := h.call(http.MethodGet, "/metrics", nil, nil)
	if status != http.StatusOK {
		return nil, fmt.Errorf("/metrics answered %d", status)
	}
	d, err := fleetobs.Parse(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	return scrape{d}, nil
}

func runServeHot(cfg config) (*outcome, error) {
	art, err := buildArtefact()
	if err != nil {
		return nil, err
	}
	// The op shares are the predict:batch weights of the repository's
	// "mixed" load preset (8:1); its observations and reloads are left
	// out, so that only the handler's read path is measured.
	mix, err := loadgen.MixPreset("mixed")
	if err != nil {
		return nil, err
	}
	batchShare := mix.BatchWeight / (mix.PredictWeight + mix.BatchWeight)
	// Zipf rank r maps to space[perm[r]]. The seed relabels the
	// applications, so which scenarios are hot changes with it while the
	// shape of the head (how many co-runners the hottest scenarios
	// carry, hence request and response size) stays fixed. With a
	// seed-drawn permutation instead, throughput ranged 48-58k ops/s
	// over four seeds, against 46-49k with relabelling (30 s runs, two
	// cores of a Xeon VM).
	apps := append([]string(nil), art.apps...)
	rs := xrand.New(cfg.seed)
	rs.Shuffle(len(apps), func(i, j int) { apps[i], apps[j] = apps[j], apps[i] })
	homog, err := loadgen.NewSpace(apps, art.pstates, maxCoRunners)
	if err != nil {
		return nil, err
	}
	space := make([]serve.ScenarioRequest, homog.Size())
	for i := range space {
		space[i] = homog.Scenario(i)
	}
	perm := xrand.New(0x9e3779b97f4a7c15).Perm(len(space))
	predicts := make([]*op, len(space))
	for i, sc := range space {
		predicts[i] = &op{kind: "predict", path: "/v1/predict", scs: []serve.ScenarioRequest{sc}, ids: []int{i},
			body: mustJSON(serve.PredictRequest{ScenarioRequest: sc})}
	}
	bsrc := xrand.New(cfg.seed + 1)
	bz := xrand.NewZipf(bsrc, hotZipf, len(space))
	batches := make([]*op, hotBatchPool)
	for i := range batches {
		o := &op{kind: "batch", path: "/v1/predict/batch"}
		for j := 0; j < batchSize; j++ {
			k := perm[bz.Next()]
			o.scs = append(o.scs, space[k])
			o.ids = append(o.ids, k)
		}
		o.body = mustJSON(serve.BatchRequest{Scenarios: o.scs})
		batches[i] = o
	}
	gens := make([]func() *op, clients())
	for c := range gens {
		src := xrand.New(cfg.seed*1000003 + uint64(c) + 11)
		z := xrand.NewZipf(src, hotZipf, len(space))
		gens[c] = func() *op {
			if src.Bool(batchShare) {
				return batches[src.Intn(len(batches))]
			}
			return predicts[perm[z.Next()]]
		}
	}
	// Accuracy over the whole served space: a Zipf-drawn sample is
	// dominated by a few head scenarios and varied 1.3-1.8% across seeds.
	measured, err := simulate(space, cfg.seed+3)
	if err != nil {
		return nil, err
	}

	out := newOutcome()
	out.info["scenario_space"] = len(space)
	out.info["batch_share"] = batchShare
	var hs *hotServer
	setups := make([]float64, hotSetupReps)
	for i := range setups {
		// Every set-up starts like a fresh process: garbage collected
		// and free memory returned to the OS.
		debug.FreeOSMemory()
		t := time.Now()
		if hs, err = startHot(art, predicts[0].body); err != nil {
			return nil, err
		}
		setups[i] = time.Since(t).Seconds()
	}

	sm := newSampler(clients(), hotSampleCap)
	lp := &loop{do: hs.do, gens: gens, sampler: sm, traceEvery: hotTraceEvery}
	warm := time.Duration(min(2, cfg.seconds/4) * float64(time.Second))
	lp.run(warm)
	half := time.Duration(cfg.seconds / 2 * float64(time.Second))
	if !cfg.trace {
		out.info["max_rss_mb_before_measure"] = maxRSSMB()
		seg := lp.run(time.Duration(cfg.seconds * float64(time.Second)))
		out.values["setup_s"] = stats.Median(setups)
		if out.values["nn_f_test_mpe_pct"], err = servedMPE(hs.do, space, measured); err != nil {
			return nil, err
		}
		putEndToEnd(out, seg)
		out.attempted, out.failed, _ = seg.totals()
	} else {
		zeroLayers(out)
		untraced := lp.run(half)
		rec := newRecorder()
		before, err := hs.scrape()
		if err != nil {
			return nil, err
		}
		lp.rec, lp.ids = rec, map[int]struct{}{}
		hs.tap.rec.Store(rec)
		traced := lp.run(half)
		hs.tap.rec.Store(nil)
		after, err := hs.scrape()
		if err != nil {
			return nil, err
		}
		putWorkCounts(out, untraced, traced)
		putServeLayers(out, rec, "serve")
		if err := putCacheRatio(out, before, after); err != nil {
			return nil, err
		}
		out.values["work.distinct_scenarios"] = float64(len(lp.ids))
		if out.values["core.compiled_eval_ns"], err = compiledEvalNS(art.ref, toFeatures(space)); err != nil {
			return nil, err
		}
		out.spans = rec.spans
	}
	out.checks = predictChecks(art, sm)
	return out, nil
}

// putCacheRatio is the prediction cache's hit ratio over a segment, from
// the serve tier's /metrics counters (summed over backends).
func putCacheRatio(out *outcome, before, after scrape) error {
	d, err := deltas(before, after, [2]string{"coloserve_cache_hits_total", ""}, [2]string{"coloserve_cache_misses_total", ""})
	if err != nil {
		return err
	}
	hits, misses := d[0], d[1]
	if hits+misses > 0 {
		out.values["serve.cache_hit_ratio"] = hits / (hits + misses)
	}
	out.info["cache_lookups"] = hits + misses
	return nil
}
