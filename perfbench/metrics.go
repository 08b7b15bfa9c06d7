package main

import "fmt"

// metricDef names one reported metric. The end-to-end set (layer=false)
// is what --trace 0 prints and the per-layer set what --trace 1 prints;
// both must match BENCHMARK.json (checked by TestCatalogMatchesManifest).
type metricDef struct {
	name  string
	unit  string
	layer bool
	why   string
}

// catalog lists every metric with the reason it is measured. Each
// per-layer entry names the end-to-end metric it should move.
var catalog = []metricDef{
	{"setup_s", "s", false, "artefact load, compile, server start and first probe (pipeline: simulator build, plan validation and the once-per-machine baseline sweep); median of the set-ups repeated in the run, each from a collected heap returned to the OS, so work moved into set-up shows"},
	{"max_rss_mb", "MB", false, "peak resident memory of the whole process, so memory traded for speed shows; the benchmark's own bookkeeping is fixed in size (latency histograms, at most 512 kept responses per kind and client, per-observation acknowledgement counts), so it does not grow with throughput"},
	{"throughput_ops_s", "1/s", false, "operations completed per second of the closed loop, median over 10 equal windows of the run (pipeline: passes per second)"},
	{"latency_p50_us", "us", false, "median latency of one operation of the workload's mix, median over 10 windows (pipeline: one collect+evaluate pass, over all passes)"},
	{"latency_p95_us", "us", false, "95th percentile latency of the mix, median over 10 windows; p99 was left out because 8 s cluster probes varied it ±10% (1.80-2.01 ms) while p50, p95 and throughput stayed within 3%"},
	{"nn_f_test_mpe_pct", "%", false, "accuracy users of the paper pipeline care about (Eq. 2), deterministic per seed: pipeline reports neural-net-F test MPE averaged over its first 4 passes; serve-hot the MPE of the predictions the server returns, after the measured segment, for all 3696 scenarios against their simulated times; fleet-mixed the same through the router for 1024 drawn mixed scenarios"},

	{"ops.pass.attempted", "count", true, "pipeline passes attempted (work count)"},
	{"ops.pass.succeeded", "count", true, "pipeline passes that completed"},
	{"ops.pass.failed", "count", true, "pipeline passes that returned an error"},
	{"ops.predict.attempted", "count", true, "single predicts attempted"},
	{"ops.predict.succeeded", "count", true, "single predicts answered 200"},
	{"ops.predict.failed", "count", true, "single predicts that errored or answered non-200"},
	{"ops.batch.attempted", "count", true, "16-scenario batches attempted"},
	{"ops.batch.succeeded", "count", true, "batches answered 200 with no failed slot"},
	{"ops.batch.failed", "count", true, "batches that errored or had a failed slot"},
	{"ops.observe.attempted", "count", true, "observations attempted"},
	{"ops.observe.succeeded", "count", true, "observations acknowledged (accepted=1)"},
	{"ops.observe.failed", "count", true, "observations rejected or errored"},
	{"ops.placement.attempted", "count", true, "placement requests attempted"},
	{"ops.placement.succeeded", "count", true, "placement requests answered 200"},
	{"ops.placement.failed", "count", true, "placement requests that errored"},
	{"work.distinct_scenarios", "count", true, "distinct canonical scenarios requested in the traced half, so hot and cold are measured, not assumed"},
	{"serve.cache_hit_ratio", "ratio", true, "prediction-cache hits over lookups from /metrics: should be about 1 on serve-hot and low on fleet-mixed"},

	{"pipeline_s", "s", true, "median pipeline pass time of the untraced half (pipeline workload)"},
	{"predict_p50_us", "us", true, "median single-predict latency of the untraced half"},
	{"predict_p95_us", "us", true, "95th percentile single-predict latency of the untraced half"},
	{"batch_p50_us", "us", true, "median batch latency of the untraced half"},
	{"observe_p50_us", "us", true, "median observation latency of the untraced half"},
	{"observe_p95_us", "us", true, "95th percentile observation latency of the untraced half"},
	{"placement_p50_us", "us", true, "median placement latency of the untraced half"},

	{"harness.collect_s", "s", true, "harness.Collect time per pass -> latency_p50_us on pipeline (10-partition probe: 0.6-0.8 s of 5.0-5.8 s)"},
	{"harness.runs", "count", true, "simulated runs per pass: 1320 co-location runs plus 11 baselines"},
	{"simproc.run_us", "us", true, "one simproc.RunColocation call, timed by the benchmark over the pass's scenarios off the pass's clock -> harness.collect_s"},
	{"core.eval_linear_f_s", "s", true, "core.Evaluate of linear-F per pass -> latency_p50_us on pipeline (10-partition probe: 0.03 s)"},
	{"core.eval_nn_a_s", "s", true, "core.Evaluate of neural-net-A per pass (10-partition probe: 1.2-1.4 s)"},
	{"core.eval_nn_f_s", "s", true, "core.Evaluate of neural-net-F per pass (10-partition probe: 3.0-3.7 s; the SCG trainer is about 85% of the pass)"},
	{"core.fits", "count", true, "model fits per pass: 3 models x 5 partitions"},
	{"mlp.fit_ms", "ms", true, "mean neural-net fit (core.TrainWithScratch, one at a time off the pass's clock, on the first traced pass's 5 training partitions of NN-A and NN-F) -> core.eval_nn_*"},

	{"serve.handler_us", "us", true, "mean serve handler time per single predict (timing middleware) -> latency_p50_us; ROADMAP baseline ~14 us / 54 allocs"},
	{"serve.decode_us", "us", true, "mean Server-Timing decode stage per single predict"},
	{"serve.cache_us", "us", true, "mean Server-Timing cache stage per single predict"},
	{"serve.eval_us", "us", true, "mean Server-Timing eval stage per single predict (zero on a cache hit)"},
	{"serve.encode_us", "us", true, "mean Server-Timing encode stage per single predict"},
	{"serve.unattributed_us", "us", true, "serve handler time minus the sum of its stages: the handler's unexplained remainder"},
	{"serve.batch_us_per_scenario", "us", true, "serve handler time per batch divided by its 16 scenarios -> batch_p50_us"},
	{"core.compiled_eval_ns", "ns", true, "direct core.Compiled.Predict loop over the workload's scenarios (pipeline: the last NN-F fit of timeFits over the pass's records): the floor under serve.eval_us"},

	{"client.transport_us", "us", true, "client-measured predict latency minus the first handler it reaches (request build and transport) -> latency_p50_us"},
	{"cluster.router_self_us", "us", true, "router handler time per predict minus its winning backend call -> latency_p50_us on fleet-mixed"},
	{"cluster.hop_us", "us", true, "router's backend call minus the backend handler: router-to-backend transport per predict"},
	{"cluster.backend_calls_per_op", "ratio", true, "backend calls per client operation (hedges and retries are waste) -> throughput_ops_s"},
	{"cluster.hedge_share", "ratio", true, "hedged calls over backend calls -> throughput_ops_s and latency_p95_us"},

	{"feedback.obs_per_commit", "ratio", true, "observations per group commit (/metrics) -> observe_p50_us"},
	{"feedback.fsync_us", "us", true, "mean fsync per group commit (/metrics) -> observe_p50_us"},
	{"feedback.commit_wait_us", "us", true, "mean enqueue wait before the group commit (Server-Timing) -> observe_p50_us"},
	{"placement.handler_ms", "ms", true, "mean backend handler time per placement -> placement_p50_us"},

	{"process.allocs_per_op", "count", true, "heap allocations per operation in the untraced half (whole process) -> throughput_ops_s"},
	{"process.bytes_per_op", "B", true, "heap bytes allocated per operation in the untraced half -> latency_p95_us"},
	{"process.gc_cycles", "count", true, "GC cycles during the untraced half -> latency_p95_us"},
	{"trace.overhead_pct", "%", true, "traced-half latency_p50 over untraced-half latency_p50, minus 1 (serve-hot traces one op in 16, fleet-mixed one in 2)"},
	{"trace.unexplained_pct", "%", true, "share of the blocking-path time that no layer or stage accounts for"},
	{"trace.spans", "count", true, "spans recorded in the traced half (written to the span dump)"},
}

func metricsFor(layer bool) []metricDef {
	var out []metricDef
	for _, d := range catalog {
		if d.layer == layer {
			out = append(out, d)
		}
	}
	return out
}

// workloadWhy records why each workload exists, with the probe numbers
// that shaped it.
var workloadWhy = map[string]string{
	"pipeline": "the only workload that runs simproc/cache/dram, harness, features, linreg, mlp, linalg and stats; " +
		"probe at 10 partitions: 5.0-5.8 s per pass, collection 0.6-0.8 s, NN-F 3.0-3.7 s, NN-A 1.2-1.4 s, linear-F 0.03 s; " +
		"run at 5 partitions (about 2.8 s per pass) so that one run times about ten passes and its median is steady",
	"serve-hot": "after warm-up nearly every request is a cache hit (Zipf 1.1 over 11 x 56 x 6 = 3696 homogeneous scenarios, " +
		"inside the default 65536-entry cache), so the handler alone sets latency: the ~14 us / 54-alloc path of ROADMAP item 1; " +
		"predicts and 16-scenario batches at 8:1, the predict:batch weights of the repository's \"mixed\" load preset; " +
		"compiled eval, the router, ingest and the trainer are bypassed; closed loop because schedulers wait for each reply " +
		"(open loop on 2 cores mostly measured timer lateness: p50 0.85 ms at 1500/s against 0.14 ms closed loop at ~8700 ops/s)",
	"fleet-mixed": "router, compiled eval, feedback writes beside predict reads, and placement, over real loopback HTTP; " +
		"uniform mixed co-runner sets (11 x 4368 x 6 = 288288 scenarios) make the cache mostly miss; bypasses the cache and the trainer; " +
		"predict:batch:observe:placement weights 8:1:2:0.5, the repository's cluster soak blend (the \"mixed\" preset without reloads, " +
		"plus 0.5 placements sized as the load generator sizes them: 2 machines, 3-6 apps, QoS bound 2.5, beam 4)",
}

func notesFor(workload string, defs []metricDef) []string {
	out := []string{fmt.Sprintf("workload %s: %s", workload, workloadWhy[workload])}
	for _, d := range defs {
		out = append(out, fmt.Sprintf("%s [%s]: %s", d.name, d.unit, d.why))
	}
	return out
}
