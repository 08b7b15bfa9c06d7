package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"colocmodel/internal/cluster"
	"colocmodel/internal/drift"
	"colocmodel/internal/feedback"
	"colocmodel/internal/fleetobs"
	"colocmodel/internal/loadgen"
	"colocmodel/internal/obs"
	"colocmodel/internal/placement"
	"colocmodel/internal/serve"
	"colocmodel/internal/simproc"
	"colocmodel/internal/stats"
	"colocmodel/internal/xrand"
)

const (
	fleetBackends   = 3
	fleetReplicas   = 2
	fleetSetupReps  = 15
	fleetSampleCap  = 512 // kept responses per kind and client
	fleetTraceEvery = 2   // ~4k ops/s: trace one op in 2
	// fleetPlacementWeight is the placement weight of the repository's
	// cluster soak (TestClusterSoak), whose blend is the "mixed" preset's
	// 8:1:2 predict:batch:observe plus 0.5 placements.
	fleetPlacementWeight = 0.5
	// mpeSample is how many mixed scenarios are simulated for the
	// observations and for the accuracy metric.
	mpeSample = 1024
	// placementPool is how many distinct placement problems the clients
	// draw from: enough that the mean problem size (3-6 apps) hardly
	// varies with the seed.
	placementPool = 256
)

// backend is one coloserve replica: its durable observation log (fsync
// per group commit), the timing tap in front of its handler and its
// loopback listener.
type backend struct {
	name  string
	store feedback.Store
	tap   *tap
	hs    *http.Server
	url   string
}

// fleet is colorouter in front of the backends, all on loopback HTTP.
type fleet struct {
	backends []*backend
	router   *cluster.Router
	rtap     *tap
	hs       *http.Server
	url      string
	client   *http.Client
	cancel   context.CancelFunc
	serving  sync.WaitGroup
	dir      string
}

// serveOn starts an HTTP server for h on a fresh loopback port.
func (f *fleet) serveOn(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: h}
	f.serving.Add(1)
	go func() {
		defer f.serving.Done()
		if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
		}
	}()
	return hs, "http://" + ln.Addr().String(), nil
}

// startFleet is fleet-mixed's set-up: three backends each load and
// compile the artefact and open a durable log, the router joins them and
// probes them, and a first probe goes through the router.
func startFleet(a *artefact, dir string, probe []byte) (*fleet, error) {
	ctx, cancel := context.WithCancel(context.Background())
	f := &fleet{cancel: cancel, dir: dir,
		router: cluster.New(cluster.Config{Replicas: fleetReplicas}),
		client: &http.Client{Timeout: 30 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: clients(), MaxIdleConnsPerHost: clients()}}}
	if err := f.build(ctx, a, probe); err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

func (f *fleet) build(ctx context.Context, a *artefact, probe []byte) error {
	for i := 0; i < fleetBackends; i++ {
		b := &backend{name: fmt.Sprintf("b%d", i)}
		reg, err := a.loadRegistry()
		if err != nil {
			return err
		}
		srv := serve.New(reg, serve.Config{})
		if b.store, err = feedback.Open(feedback.Config{Dir: filepath.Join(f.dir, b.name), Sync: true}); err != nil {
			return err
		}
		f.backends = append(f.backends, b)
		if err := srv.EnableAdaptation(serve.Adaptation{Log: b.store, Monitor: drift.NewMonitor(drift.Config{})}); err != nil {
			return err
		}
		b.tap = &tap{name: "backend." + b.name, parent: "router", h: srv.Handler()}
		if b.hs, b.url, err = f.serveOn(b.tap); err != nil {
			return err
		}
		if err := f.router.Pool().Add(b.name, b.url); err != nil {
			return err
		}
	}
	f.router.Start(ctx)
	f.rtap = &tap{name: "router", parent: "client", h: f.router.Handler()}
	var err error
	if f.hs, f.url, err = f.serveOn(f.rtap); err != nil {
		return err
	}
	for _, p := range []struct {
		method, path string
		body         []byte
	}{{http.MethodGet, "/healthz", nil}, {http.MethodPost, "/v1/predict", probe}} {
		status, _, body, err := f.call(f.url, p.method, p.path, p.body, "", 0)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("probe %s answered %d: %s", p.path, status, body)
		}
	}
	return nil
}

// stop shuts every server down, waits for them, closes the logs and
// removes their directory.
func (f *fleet) stop() {
	f.cancel()
	if f.hs != nil {
		f.hs.Close()
	}
	for _, b := range f.backends {
		if b.hs != nil {
			b.hs.Close()
		}
	}
	f.serving.Wait()
	for _, b := range f.backends {
		if err := b.store.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: closing log:", err)
		}
	}
	f.client.CloseIdleConnections()
	if err := os.RemoveAll(f.dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
}

func (f *fleet) call(base, method, path string, body []byte, reqID string, n uint64) (int, http.Header, []byte, error) {
	req, err := http.NewRequest(method, base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if reqID != "" {
		req.Header.Set("X-Request-ID", reqID)
		req.Header.Set(obs.TraceparentHeader, sampledTraceparent(n))
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, b, err
}

func (f *fleet) do(o *op, reqID string, n uint64) (int, http.Header, []byte, error) {
	return f.call(f.url, http.MethodPost, o.path, o.body, reqID, n)
}

// scrape reads the router's and every backend's /metrics.
func (f *fleet) scrape() (scrape, error) {
	var all scrape
	urls := []string{f.url}
	for _, b := range f.backends {
		urls = append(urls, b.url)
	}
	for _, u := range urls {
		status, _, body, err := f.call(u, http.MethodGet, "/metrics", nil, "", 0)
		if err != nil {
			return nil, err
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("%s/metrics answered %d", u, status)
		}
		d, err := fleetobs.Parse(bytes.NewReader(body))
		if err != nil {
			return nil, fmt.Errorf("%s/metrics: %w", u, err)
		}
		all = append(all, d)
	}
	return all, nil
}

// mixedGen covers every target x co-runner multiset of 0-5 apps x
// P-state: 11 x 4368 x 6 = 288288 scenarios. Requests sweep a seeded
// permutation of the whole space, shared by the clients, so every
// scenario is equally likely and none repeats until the sweep wraps.
// Each backend owns about a third of the space, more than its
// 65536-entry cache holds, so a wrapped sweep misses too. Independent
// uniform draws instead repeated enough for a 65% hit ratio within a
// 30 s run, which would not bypass the cache.
type mixedGen struct {
	apps    []string
	sets    [][]string
	pstates int
	order   []int
	next    atomic.Uint64
}

func newMixedGen(apps []string, pstates int, seed uint64) *mixedGen {
	g := &mixedGen{apps: apps, sets: multisets(apps, maxCoRunners), pstates: pstates}
	g.order = xrand.New(seed).Perm(g.size())
	return g
}

func (g *mixedGen) size() int { return len(g.apps) * len(g.sets) * g.pstates }

func (g *mixedGen) scenario(id int) serve.ScenarioRequest {
	ps := id % g.pstates
	s := id / g.pstates % len(g.sets)
	t := id / g.pstates / len(g.sets)
	return serve.ScenarioRequest{Target: g.apps[t], CoApps: g.sets[s], PState: ps}
}

// draw picks a scenario at random (observation and accuracy samples).
func (g *mixedGen) draw(src *xrand.Source) serve.ScenarioRequest {
	return g.scenario(src.Intn(g.size()))
}

// sweep returns the next scenario of the shared sweep.
func (g *mixedGen) sweep() (serve.ScenarioRequest, int) {
	id := g.order[int((g.next.Add(1)-1)%uint64(len(g.order)))]
	return g.scenario(id), id
}

func runFleetMixed(cfg config) (*outcome, error) {
	art, err := buildArtefact()
	if err != nil {
		return nil, err
	}
	g := newMixedGen(art.apps, art.pstates, cfg.seed+4)

	// Observations report simulated runs of mixed scenarios; the same
	// scenarios, sent through the router after the measured segment, give
	// the served model's MPE against simulated truth.
	osrc := xrand.New(cfg.seed + 5)
	oscs := make([]serve.ScenarioRequest, mpeSample)
	for i := range oscs {
		oscs[i] = g.draw(osrc)
	}
	measured, err := simulate(oscs, cfg.seed+6)
	if err != nil {
		return nil, err
	}
	observes := make([]*op, len(oscs))
	for i, sc := range oscs {
		pred, _, err := art.reference(sc)
		if err != nil {
			return nil, err
		}
		or := serve.ObservationRequest{Target: sc.Target, CoApps: sc.CoApps, PState: sc.PState,
			PredictedSeconds: pred, MeasuredSeconds: measured[i]}
		observes[i] = &op{kind: "observe", path: "/v1/observations", obs: &or, idx: i,
			body: mustJSON(serve.ObservationsRequest{ObservationRequest: or})}
	}
	// Placement problems are sized as the load generator sizes its
	// placement op: a two-machine fleet of the model's training machine,
	// 3-6 pending apps, QoS bound 2.5 on predicted slowdown, beam 4.
	psrc := xrand.New(cfg.seed + 7)
	placements := make([]*op, placementPool)
	for i := range placements {
		pr := serve.PlacementsRequest{
			Machines:    []serve.PlacementMachineRequest{{Count: 2}},
			Apps:        make([]string, 3+psrc.Intn(4)),
			MaxSlowdown: 2.5, Seed: psrc.Uint64(), Beam: 4,
		}
		for j := range pr.Apps {
			pr.Apps[j] = art.apps[psrc.Intn(len(art.apps))]
		}
		placements[i] = &op{kind: "placement", path: "/v1/placements", plan: &pr, body: mustJSON(pr)}
	}
	// Op shares: the "mixed" preset's predict, batch and observe weights
	// (its reloads are left out: a reload re-reads the artefact and
	// empties the caches, which the workload does not study) plus the
	// cluster soak's placement weight.
	mix, err := loadgen.MixPreset("mixed")
	if err != nil {
		return nil, err
	}
	weights := []float64{mix.PredictWeight, mix.BatchWeight, mix.ObserveWeight, fleetPlacementWeight}
	gens := make([]func() *op, clients())
	for c := range gens {
		src := xrand.New(cfg.seed*1000003 + uint64(c) + 13)
		kinds := xrand.NewWeighted(src, weights)
		gens[c] = func() *op {
			switch kinds.Next() {
			case 1:
				o := &op{kind: "batch", path: "/v1/predict/batch"}
				for j := 0; j < batchSize; j++ {
					sc, id := g.sweep()
					o.scs, o.ids = append(o.scs, sc), append(o.ids, id)
				}
				o.body = mustJSON(serve.BatchRequest{Scenarios: o.scs})
				return o
			case 2:
				return observes[src.Intn(len(observes))]
			case 3:
				return placements[src.Intn(len(placements))]
			}
			sc, id := g.sweep()
			return &op{kind: "predict", path: "/v1/predict", scs: []serve.ScenarioRequest{sc}, ids: []int{id},
				body: mustJSON(serve.PredictRequest{ScenarioRequest: sc})}
		}
	}

	out := newOutcome()
	out.info["scenario_space"] = g.size()
	out.info["op_weights_predict_batch_observe_placement"] = weights
	var f *fleet
	setups := make([]float64, fleetSetupReps)
	for i := range setups {
		if f != nil {
			f.stop()
		}
		dir := filepath.Join(cfg.outDir, fmt.Sprintf("fleet-logs-%d-%d", cfg.seed, i))
		// Every set-up starts like a fresh process: garbage collected
		// and free memory returned to the OS.
		debug.FreeOSMemory()
		t := time.Now()
		if f, err = startFleet(art, dir, mustJSON(serve.PredictRequest{ScenarioRequest: oscs[0]})); err != nil {
			return nil, err
		}
		setups[i] = time.Since(t).Seconds()
	}
	defer f.stop()

	sm := newSampler(clients(), fleetSampleCap)
	sm.verify = map[string]func(*op, []byte) error{"placement": planValid}
	lp := &loop{do: f.do, gens: gens, sampler: sm, observations: len(observes), traceEvery: fleetTraceEvery}
	lp.run(time.Duration(min(2, cfg.seconds/4) * float64(time.Second)))
	half := time.Duration(cfg.seconds / 2 * float64(time.Second))
	if !cfg.trace {
		out.info["max_rss_mb_before_measure"] = maxRSSMB()
		seg := lp.run(time.Duration(cfg.seconds * float64(time.Second)))
		out.values["setup_s"] = stats.Median(setups)
		if out.values["nn_f_test_mpe_pct"], err = servedMPE(f.do, oscs, measured); err != nil {
			return nil, err
		}
		putEndToEnd(out, seg)
		out.attempted, out.failed, _ = seg.totals()
	} else {
		zeroLayers(out)
		untraced := lp.run(half)
		before, err := f.scrape()
		if err != nil {
			return nil, err
		}
		rec := newRecorder()
		lp.rec, lp.ids = rec, map[int]struct{}{}
		f.rtap.rec.Store(rec)
		for _, b := range f.backends {
			b.tap.rec.Store(rec)
		}
		traced := lp.run(half)
		f.rtap.rec.Store(nil)
		for _, b := range f.backends {
			b.tap.rec.Store(nil)
		}
		after, err := f.scrape()
		if err != nil {
			return nil, err
		}
		putWorkCounts(out, untraced, traced)
		putServeLayers(out, rec, "router")
		if err := putCacheRatio(out, before, after); err != nil {
			return nil, err
		}
		d, err := deltas(before, after,
			[2]string{"colorouter_backend_requests_total", ""},
			[2]string{"colorouter_hedges_total", ""},
			[2]string{"coloserve_obs_commit_batch_records", "coloserve_obs_commit_batch_records_sum"},
			[2]string{"coloserve_obs_commit_batch_records", "coloserve_obs_commit_batch_records_count"},
			[2]string{"coloserve_obs_fsync_duration_seconds", "coloserve_obs_fsync_duration_seconds_sum"},
			[2]string{"coloserve_obs_fsync_duration_seconds", "coloserve_obs_fsync_duration_seconds_count"})
		if err != nil {
			return nil, err
		}
		calls, hedges, records, commits, fsyncS, fsyncs := d[0], d[1], d[2], d[3], d[4], d[5]
		_, _, ok := traced.totals()
		if ok > 0 {
			out.values["cluster.backend_calls_per_op"] = calls / float64(ok)
		}
		if calls > 0 {
			out.values["cluster.hedge_share"] = hedges / calls
		}
		if commits > 0 {
			out.values["feedback.obs_per_commit"] = records / commits
		}
		if fsyncs > 0 {
			out.values["feedback.fsync_us"] = 1e6 * fsyncS / fsyncs
		}
		out.values["work.distinct_scenarios"] = float64(len(lp.ids))
		if out.values["core.compiled_eval_ns"], err = compiledEvalNS(art.ref, toFeatures(oscs)); err != nil {
			return nil, err
		}
		out.spans = rec.spans
	}
	out.checks = predictChecks(art, sm)
	rb, err := readbackCheck(f, sm.acks(), observes)
	if err != nil {
		return nil, err
	}
	out.checks = append(out.checks, rb, placementCheck(art, sm))
	return out, nil
}

// obsKey identifies an observation by everything the client sent.
func obsKey(target string, co []string, ps int, pred, meas float64) string {
	return fmt.Sprintf("%s|%s|%d|%x|%x", target, strings.Join(co, ","), ps,
		math.Float64bits(pred), math.Float64bits(meas))
}

// readbackCheck requires every acknowledged observation to be readable
// through the Store of the backend that acknowledged it: a backend that
// acknowledged pool entry i k times must hold at least k copies of it.
func readbackCheck(f *fleet, acks map[string][]int, pool []*op) (checkResult, error) {
	stored := map[string]map[string]int{}
	for _, b := range f.backends {
		all, err := b.store.All()
		if err != nil {
			return checkResult{}, fmt.Errorf("reading back %s: %w", b.name, err)
		}
		m := map[string]int{}
		for _, o := range all {
			m[obsKey(o.Target, o.CoApps, o.PState, o.PredictedSeconds, o.MeasuredSeconds)]++
		}
		stored[b.name] = m
	}
	keys := make([]string, len(pool))
	for i, o := range pool {
		keys[i] = obsKey(o.obs.Target, o.obs.CoApps, o.obs.PState, o.obs.PredictedSeconds, o.obs.MeasuredSeconds)
	}
	total := 0
	var last struct {
		backend string
		key     string
	}
	for b, counts := range acks {
		for i, n := range counts {
			total += n
			if n > 0 {
				last.backend, last.key = b, keys[i]
			}
		}
	}
	check := func(st map[string]map[string]int) error {
		for b, counts := range acks {
			for i, n := range counts {
				if got := st[b][keys[i]]; got < n {
					return fmt.Errorf("observation %s acknowledged %d times by %q, %d in its store", keys[i], n, b, got)
				}
			}
		}
		return nil
	}
	return runCheck("observe.readback", total, func() error { return check(stored) }, func() error {
		// Lose every stored copy of one acknowledged observation.
		cp := map[string]map[string]int{}
		for b, m := range stored {
			cp[b] = m
		}
		lost := map[string]int{}
		for k, v := range stored[last.backend] {
			lost[k] = v
		}
		lost[last.key] = 0
		cp[last.backend] = lost
		return check(cp)
	}), nil
}

// ackedOnly keeps the acknowledged samples.
func ackedOnly(kept []sample) []sample {
	var out []sample
	for _, s := range kept {
		if s.ok {
			out = append(out, s)
		}
	}
	return out
}

// decodePlan reads the plan of a placement response.
func decodePlan(body []byte) (*placement.Plan, error) {
	var pr serve.PlacementsResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		return nil, fmt.Errorf("decoding placement response: %w", err)
	}
	if pr.Plan == nil {
		return nil, fmt.Errorf("placement response has no plan")
	}
	return pr.Plan, nil
}

// planCores is every machine's core count: the requests name no machine,
// so each is the model's training machine, the 6-core Xeon E5649.
var planCores = simproc.XeonE5649().Cores

// planValid requires a plan to place each requested app exactly once,
// in request order, within machine capacity, with no QoS violation and
// every app's slowdown within the bound. It runs on every acknowledged
// placement, inside the client loop, so no plan needs to be kept.
func planValid(o *op, body []byte) error {
	pl, err := decodePlan(body)
	if err != nil {
		return err
	}
	req := o.plan
	if len(pl.Apps) != len(req.Apps) {
		return fmt.Errorf("plan reports %d apps for %d requested", len(pl.Apps), len(req.Apps))
	}
	var placed []string
	for _, as := range pl.Assignments {
		if len(as) > planCores {
			return fmt.Errorf("machine holds %d apps on %d cores", len(as), planCores)
		}
		placed = append(placed, as...)
	}
	want := append([]string(nil), req.Apps...)
	sort.Strings(placed)
	sort.Strings(want)
	if strings.Join(placed, ",") != strings.Join(want, ",") {
		return fmt.Errorf("plan places %v, requested %v", placed, want)
	}
	if pl.QoSViolations != 0 {
		return fmt.Errorf("plan has %d QoS violations", pl.QoSViolations)
	}
	for i, ap := range pl.Apps {
		if ap.App != req.Apps[i] {
			return fmt.Errorf("plan app %d is %s, requested %s", i, ap.App, req.Apps[i])
		}
		if !(ap.Slowdown <= req.MaxSlowdown) {
			return fmt.Errorf("%s slowdown %v exceeds the bound %v", ap.App, ap.Slowdown, req.MaxSlowdown)
		}
	}
	return nil
}

// placementCheck passes when every acknowledged plan was valid
// (planValid, run by the sampler) and each sampled plan's per-app
// predictions equal the interpreted model on the plan's own co-runners.
// Its self-test feeds one sampled plan with a slowdown over the bound to
// planValid and one with a prediction one ulp off to the prediction
// check; both must be rejected.
func placementCheck(a *artefact, sm *sampler) checkResult {
	n, invalid := sm.verified("placement")
	type plan struct {
		o  *op
		pl *placement.Plan
	}
	var plans []plan
	for _, s := range ackedOnly(sm.kept("placement")) {
		pl, err := decodePlan(s.body)
		if err != nil {
			return checkResult{Name: "placement.plans", Detail: err.Error()}
		}
		plans = append(plans, plan{s.op, pl})
	}
	predictions := func(ps []plan) error {
		for _, p := range ps {
			for _, ap := range p.pl.Apps {
				// The optimizer scores each machine's residents in sorted
				// order, so the co-runners are the sorted residents minus one
				// copy of this app; a lone resident runs at its baseline by
				// the scheduling convention.
				co := append([]string(nil), p.pl.Assignments[ap.Machine]...)
				sort.Strings(co)
				for j, c := range co {
					if c == ap.App {
						co = append(co[:j], co[j+1:]...)
						break
					}
				}
				var sec float64
				var err error
				if len(co) == 0 {
					sec, err = a.ref.BaselineSeconds(ap.App, ap.PState)
				} else {
					sec, _, err = a.reference(serve.ScenarioRequest{Target: ap.App, CoApps: co, PState: ap.PState})
				}
				if err != nil {
					return err
				}
				if !sameBits(sec, ap.PredictedSeconds) {
					return fmt.Errorf("%s on machine %d predicted %v, interpreted %v", ap.App, ap.Machine, ap.PredictedSeconds, sec)
				}
			}
		}
		return nil
	}
	if len(plans) == 0 {
		return checkResult{Name: "placement.plans", Samples: int(n), Detail: "no sampled plan"}
	}
	return runCheck("placement.plans", int(n), func() error {
		if invalid != nil {
			return invalid
		}
		return predictions(plans)
	}, func() error {
		p := plans[len(plans)/2]
		pl := *p.pl
		pl.Apps = append([]placement.AppPlacement(nil), pl.Apps...)
		pl.Apps[0].Slowdown = nextUp(p.o.plan.MaxSlowdown)
		if err := planValid(p.o, mustJSON(serve.PlacementsResponse{Plan: &pl})); err == nil {
			return nil
		}
		pl.Apps[0].Slowdown = p.pl.Apps[0].Slowdown
		pl.Apps[0].PredictedSeconds = nextUp(pl.Apps[0].PredictedSeconds)
		cp := append([]plan{}, plans...)
		cp[len(cp)/2] = plan{p.o, &pl}
		return predictions(cp)
	})
}
