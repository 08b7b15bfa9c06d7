package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"colocmodel/internal/core"
	"colocmodel/internal/features"
	"colocmodel/internal/harness"
	"colocmodel/internal/obs"
	"colocmodel/internal/serve"
	"colocmodel/internal/simproc"
	"colocmodel/internal/stats"
	"colocmodel/internal/workload"
	"colocmodel/internal/xrand"
)

// Shared by both serving workloads: the served artefact, the scenario
// spaces, the closed-loop driver and the predict/batch output checks.

const (
	maxCoRunners = 5  // the 6-core machine leaves five cores beside the target
	batchSize    = 16 // scenarios per batch request
)

// artefactSeed fixes the served model. Both serving workloads serve the
// same neural-net-F artefact for every workload seed, which drives only
// the traffic: across artefact seeds the served model's MPE on mixed
// co-runner sets ranged 1.7-2.9% (IQR 38% of the median over 5 seeds),
// a model property the pipeline workload already varies.
const artefactSeed = 1

// artefact is the served model: neural-net-F trained on the Table V
// campaign, saved as the JSON artefact coloserve loads. ref is loaded
// from the same bytes and used only through the interpreted reference
// path.
type artefact struct {
	raw     []byte
	ref     *core.Model
	apps    []string
	pstates int
}

func buildArtefact() (*artefact, error) {
	seed := uint64(artefactSeed)
	ds, err := harness.Collect(harness.DefaultPlan(simproc.XeonE5649(), seed))
	if err != nil {
		return nil, err
	}
	setF, err := features.SetByName("F")
	if err != nil {
		return nil, err
	}
	m, err := core.Train(core.Spec{Technique: core.NeuralNet, FeatureSet: setF, Seed: seed}, ds, ds.Records)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return nil, err
	}
	ref, err := core.LoadModel(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return nil, err
	}
	return &artefact{raw: buf.Bytes(), ref: ref, apps: ref.Apps(), pstates: ref.PStates()}, nil
}

// loadRegistry is the serve tier's artefact load: parse, compile and
// register the model as the default entry.
func (a *artefact) loadRegistry() (*serve.Registry, error) {
	m, err := core.LoadModel(bytes.NewReader(a.raw))
	if err != nil {
		return nil, err
	}
	reg := serve.NewRegistry()
	if err := reg.Add("nnf", "artefact", m); err != nil {
		return nil, err
	}
	return reg, nil
}

func toFeatures(scs []serve.ScenarioRequest) []features.Scenario {
	out := make([]features.Scenario, len(scs))
	for i, sc := range scs {
		out[i] = features.Scenario{Target: sc.Target, CoApps: sc.CoApps, PState: sc.PState}
	}
	return out
}

// reference is the interpreted prediction and slowdown for a scenario.
func (a *artefact) reference(sc serve.ScenarioRequest) (seconds, slowdown float64, err error) {
	seconds, err = a.ref.PredictInterpreted(features.Scenario{Target: sc.Target, CoApps: sc.CoApps, PState: sc.PState})
	if err != nil {
		return 0, 0, err
	}
	base, err := a.ref.BaselineSeconds(sc.Target, sc.PState)
	if err != nil {
		return 0, 0, err
	}
	return seconds, seconds / base, nil
}

// simulate runs each scenario on the simulated 6-core machine with the
// campaign's 1% measurement noise and returns the measured times.
func simulate(scs []serve.ScenarioRequest, seed uint64) ([]float64, error) {
	proc, err := simproc.New(simproc.XeonE5649())
	if err != nil {
		return nil, err
	}
	hs := make([]harness.Scenario, len(scs))
	for i, sc := range scs {
		if hs[i], err = harnessScenario(sc); err != nil {
			return nil, err
		}
	}
	recs, err := harness.CollectScenarios(proc, hs, 0.01, xrand.New(seed))
	if err != nil {
		return nil, err
	}
	measured := make([]float64, len(recs))
	for i, r := range recs {
		measured[i] = r.Seconds
	}
	return measured, nil
}

// servedMPE sends the scenarios through the running server as batches
// and returns the MPE (Eq. 2) of the served predictions against the
// measured times.
func servedMPE(do doer, scs []serve.ScenarioRequest, measured []float64) (float64, error) {
	pred := make([]float64, 0, len(scs))
	for i := 0; i < len(scs); i += batchSize {
		chunk := scs[i:min(i+batchSize, len(scs))]
		o := &op{kind: "batch", path: "/v1/predict/batch", scs: chunk, body: mustJSON(serve.BatchRequest{Scenarios: chunk})}
		status, _, body, err := do(o, "", 0)
		if err != nil {
			return 0, err
		}
		if status != http.StatusOK {
			return 0, fmt.Errorf("accuracy batch answered %d: %s", status, body)
		}
		var br serve.BatchResponse
		if err := json.Unmarshal(body, &br); err != nil {
			return 0, fmt.Errorf("decoding accuracy batch: %w", err)
		}
		if len(br.Results) != len(chunk) {
			return 0, fmt.Errorf("accuracy batch answered %d slots for %d scenarios", len(br.Results), len(chunk))
		}
		for _, it := range br.Results {
			if it.Result == nil {
				return 0, fmt.Errorf("accuracy batch slot failed: %+v", it.Error)
			}
			pred = append(pred, it.Result.PredictedSeconds)
		}
	}
	return stats.MPE(pred, measured)
}

func harnessScenario(sc serve.ScenarioRequest) (harness.Scenario, error) {
	t, err := workload.ByName(sc.Target)
	if err != nil {
		return harness.Scenario{}, err
	}
	hs := harness.Scenario{Target: t, PState: sc.PState}
	for _, c := range sc.CoApps {
		a, err := workload.ByName(c)
		if err != nil {
			return harness.Scenario{}, err
		}
		hs.CoApps = append(hs.CoApps, a)
	}
	return hs, nil
}

// multisets enumerates every multiset of 0..maxCo apps (non-decreasing
// index order): C(11+5, 5) = 4368 co-runner sets for 11 apps.
func multisets(apps []string, maxCo int) [][]string {
	var out [][]string
	var rec func(start int, cur []string)
	rec = func(start int, cur []string) {
		out = append(out, append([]string(nil), cur...))
		if len(cur) == maxCo {
			return
		}
		for i := start; i < len(apps); i++ {
			rec(i, append(cur, apps[i]))
		}
	}
	rec(0, nil)
	return out
}

// op is one generated request. scs are the scenarios it asks about
// (predict: one, batch: 16); ids identify them within the workload's
// scenario space for the distinct-scenario count.
type op struct {
	kind string
	path string
	body []byte
	scs  []serve.ScenarioRequest
	ids  []int
	obs  *serve.ObservationRequest
	idx  int // observations: index into the workload's observation pool
	plan *serve.PlacementsRequest
}

// sample is a kept request/response pair for the output checks.
type sample struct {
	n       int64 // the op's position in its client's stream of this kind
	op      *op
	body    []byte
	backend string
	ok      bool
}

// sampler keeps, per client, what the output checks need in memory that
// does not grow with the number of operations: for predicts, batches and
// placements a deterministic sample of at most cap responses per kind,
// spread evenly over the whole run; for observations the count of
// acknowledgements per backend and pool index, with no bodies.
type sampler struct {
	cap     int
	clients []*clientSample
	// verify holds, per kind, a check run on every acknowledged response
	// as it arrives, for contracts that cover every response; set before
	// the loop starts.
	verify map[string]func(o *op, body []byte) error
}

type clientSample struct {
	kept     map[string]*keptKind
	acks     map[string][]int // backend -> acknowledgements per observation
	verified map[string]int64 // kind -> responses verify checked
	invalid  map[string]error // kind -> first response verify rejected
}

// keptKind holds every step-th response of a kind. When cap responses
// are kept, every other one is dropped and the step doubles.
type keptKind struct {
	seen, step int64
	samples    []sample
}

func newSampler(clients, cap int) *sampler {
	s := &sampler{cap: cap}
	for range clients {
		s.clients = append(s.clients, &clientSample{kept: map[string]*keptKind{}, acks: map[string][]int{},
			verified: map[string]int64{}, invalid: map[string]error{}})
	}
	return s
}

// offer is called by client c, and only by it, for every completed op.
func (s *sampler) offer(c int, o *op, body []byte, backend string, ok bool, observations int) {
	cs := s.clients[c]
	if v := s.verify[o.kind]; v != nil && ok {
		cs.verified[o.kind]++
		if err := v(o, body); err != nil && cs.invalid[o.kind] == nil {
			cs.invalid[o.kind] = err
		}
	}
	if o.kind == "observe" {
		if ok {
			if cs.acks[backend] == nil {
				cs.acks[backend] = make([]int, observations)
			}
			cs.acks[backend][o.idx]++
		}
		return
	}
	k := cs.kept[o.kind]
	if k == nil {
		k = &keptKind{step: 1}
		cs.kept[o.kind] = k
	}
	n := k.seen
	k.seen++
	if n%k.step != 0 {
		return
	}
	k.samples = append(k.samples, sample{n: n, op: o, body: append([]byte(nil), body...), backend: backend, ok: ok})
	if len(k.samples) == s.cap {
		k.step *= 2
		j := 0
		for _, sm := range k.samples {
			if sm.n%k.step == 0 {
				k.samples[j] = sm
				j++
			}
		}
		clear(k.samples[j:])
		k.samples = k.samples[:j]
	}
}

// kept returns every client's samples of a kind.
func (s *sampler) kept(kind string) []sample {
	var out []sample
	for _, cs := range s.clients {
		if k := cs.kept[kind]; k != nil {
			out = append(out, k.samples...)
		}
	}
	return out
}

// verified returns how many responses of a kind verify checked and the
// first it rejected.
func (s *sampler) verified(kind string) (int64, error) {
	var n int64
	var invalid error
	for _, cs := range s.clients {
		n += cs.verified[kind]
		if invalid == nil {
			invalid = cs.invalid[kind]
		}
	}
	return n, invalid
}

// acks sums the clients' acknowledgement counts per backend.
func (s *sampler) acks() map[string][]int {
	out := map[string][]int{}
	for _, cs := range s.clients {
		for b, counts := range cs.acks {
			if out[b] == nil {
				out[b] = make([]int, len(counts))
			}
			for i, n := range counts {
				out[b][i] += n
			}
		}
	}
	return out
}

// doer sends one op; reqID is set on traced requests only.
type doer func(o *op, reqID string, n uint64) (status int, hdr http.Header, body []byte, err error)

// loop is one closed-loop segment: each client sends its next op only
// after the previous reply. gens[c] yields client c's op stream.
type loop struct {
	do      doer
	gens    []func() *op
	sampler *sampler
	// observations is the size of the observation pool (0 when the
	// workload sends none).
	observations int
	rec          *recorder // non-nil in the traced half
	// traceEvery traces one op in this many in the traced half, which
	// bounds the spans kept in memory at high request rates.
	traceEvery uint64
	ids        map[int]struct{}
	seq        atomic.Uint64
}

// windowsPerSegment splits a timed segment into equal windows. The
// end-to-end figures are medians over the windows, so a burst of load
// from outside the benchmark moves one window rather than the run.
const windowsPerSegment = 10

func (l *loop) run(d time.Duration) *segmentStats {
	wins := make([][]*segmentStats, len(l.gens))
	width := max(d/windowsPerSegment, 1)
	var idMu sync.Mutex
	from := markMem()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := range l.gens {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ws := make([]*segmentStats, windowsPerSegment)
			for i := range ws {
				ws[i] = newSegmentStats()
			}
			wins[c] = ws
			for time.Now().Before(deadline) {
				o := l.gens[c]()
				n := l.seq.Add(1)
				reqID := ""
				traced := l.rec != nil && n%l.traceEvery == 0
				if traced {
					reqID = fmt.Sprintf("c%d-%d", c, n)
				}
				t0 := time.Now()
				status, hdr, body, err := l.do(o, reqID, n)
				dur := time.Since(t0)
				w := min(int(t0.Add(dur).Sub(start)/width), windowsPerSegment-1)
				ks := ws[w].kinds[o.kind]
				ks.attempted++
				ok := err == nil && succeeded(o.kind, status, body)
				if ok {
					ks.record(us(dur))
				} else {
					ks.failed++
				}
				backend := ""
				if hdr != nil {
					backend = hdr.Get("X-Backend")
				}
				l.sampler.offer(c, o, body, backend, ok, l.observations)
				if traced {
					l.rec.add(span{Trace: reqID, Name: "client", StartUS: l.rec.at(t0), DurUS: us(dur), Path: o.kind + "@" + backend})
					obs.EachServerTiming(hdr.Get("Server-Timing"), func(stage string, seconds float64) {
						l.rec.add(span{Trace: reqID, Name: "st." + stage, Parent: "server-timing", DurUS: seconds * 1e6})
					})
				}
				if l.rec != nil {
					idMu.Lock()
					for _, id := range o.ids {
						l.ids[id] = struct{}{}
					}
					idMu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	out := newSegmentStats()
	out.elapsed = time.Since(start)
	out.setMem(from, markMem())
	for w := 0; w < windowsPerSegment; w++ {
		win := newSegmentStats()
		win.elapsed = width
		if w == windowsPerSegment-1 {
			win.elapsed = out.elapsed - width*(windowsPerSegment-1)
		}
		for c := range wins {
			for k, ks := range wins[c][w].kinds {
				win.kinds[k].merge(ks)
			}
		}
		for k, ks := range win.kinds {
			out.kinds[k].merge(ks)
		}
		out.windows = append(out.windows, win)
	}
	return out
}

// succeeded is the per-kind success rule: 200, and for batches and
// observations no failed slot.
func succeeded(kind string, status int, body []byte) bool {
	if status != http.StatusOK {
		return false
	}
	switch kind {
	case "batch":
		return bytes.HasSuffix(bytes.TrimSpace(body), []byte(`"errors":0}`))
	case "observe":
		return bytes.Contains(body, []byte(`"accepted":1,`))
	}
	return true
}

// clients is the closed loop's concurrency: two, or fewer on a machine
// with fewer CPUs.
func clients() int { return min(2, runtime.NumCPU()) }

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain request structs are marshalled
	}
	return b
}

// predictChecks verifies sampled successful predict and batch responses
// are bit-identical to the interpreted Model.Predict on the same
// artefact. Failed operations carry no prediction; they are counted as
// failed instead.
func predictChecks(a *artefact, sm *sampler) []checkResult {
	type got struct {
		sc                serve.ScenarioRequest
		seconds, slowdown float64
		target            string
		pstate            int
		wantSec, wantSlow float64
	}
	collect := func(kind string) ([]got, error) {
		var out []got
		for _, s := range ackedOnly(sm.kept(kind)) {
			var items []serve.PredictResponse
			switch kind {
			case "predict":
				var pr serve.PredictResponse
				if err := json.Unmarshal(s.body, &pr); err != nil {
					return nil, fmt.Errorf("decoding predict response: %w", err)
				}
				items = []serve.PredictResponse{pr}
			case "batch":
				var br serve.BatchResponse
				if err := json.Unmarshal(s.body, &br); err != nil {
					return nil, fmt.Errorf("decoding batch response: %w", err)
				}
				if len(br.Results) != len(s.op.scs) {
					return nil, fmt.Errorf("batch answered %d slots for %d scenarios", len(br.Results), len(s.op.scs))
				}
				for _, it := range br.Results {
					if it.Result == nil {
						return nil, fmt.Errorf("batch slot failed: %+v", it.Error)
					}
					items = append(items, *it.Result)
				}
			}
			for i, it := range items {
				sc := s.op.scs[i]
				ws, wsl, err := a.reference(sc)
				if err != nil {
					return nil, err
				}
				out = append(out, got{sc: sc, seconds: it.PredictedSeconds, slowdown: it.PredictedSlowdown,
					target: it.Target, pstate: it.PState, wantSec: ws, wantSlow: wsl})
			}
		}
		return out, nil
	}
	check := func(gs []got) error {
		for _, g := range gs {
			if g.target != g.sc.Target || g.pstate != g.sc.PState {
				return fmt.Errorf("response for %s P%d answered %s P%d", g.sc.Target, g.sc.PState, g.target, g.pstate)
			}
			if !sameBits(g.seconds, g.wantSec) || !sameBits(g.slowdown, g.wantSlow) {
				return fmt.Errorf("%s+%v P%d served %v (slowdown %v), interpreted %v (%v)",
					g.sc.Target, g.sc.CoApps, g.sc.PState, g.seconds, g.slowdown, g.wantSec, g.wantSlow)
			}
		}
		return nil
	}
	var out []checkResult
	for _, kind := range []string{"predict", "batch"} {
		gs, err := collect(kind)
		if err != nil {
			out = append(out, checkResult{Name: kind + ".bit_identical", Detail: err.Error()})
			continue
		}
		out = append(out, runCheck(kind+".bit_identical", len(gs), func() error { return check(gs) }, func() error {
			cp := append([]got{}, gs...)
			cp[len(cp)/2].seconds = nextUp(cp[len(cp)/2].seconds)
			return check(cp)
		}))
	}
	return out
}
