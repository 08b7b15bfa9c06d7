package main

import "strings"

// Per-layer attribution of the serving workloads, computed from the
// spans of the traced half. Along a single predict's blocking path:
//
//	client latency = transport + [router self + router->backend hop] + handler
//	handler        = decode + cache + eval + encode + unattributed
//
// where the bracketed terms exist only behind the router. Every term is
// a mean over the traced predicts, so the terms add up to the mean
// client latency exactly; "unattributed" and the router's time outside
// its own named stages are the unexplained remainder.
func putServeLayers(out *outcome, rec *recorder, firstTier string) {
	var (
		predicts                                    float64
		transport, routerSelf, hop, handler         float64
		decode, cache, eval, encode, unattributed   float64
		routerUnexplained, client                   float64
		batches, batchHandler, observes, commitWait float64
		placements, placementHandler                float64
	)
	for _, sps := range rec.byTrace() {
		var c *span
		tiers := map[string]float64{}
		st := map[string]float64{}
		for i := range sps {
			sp := &sps[i]
			switch {
			case sp.Name == "client":
				c = sp
			case strings.HasPrefix(sp.Name, "st."):
				st[strings.TrimPrefix(sp.Name, "st.")] += sp.DurUS
			default:
				tiers[sp.Name] += sp.DurUS
			}
		}
		if c == nil {
			continue
		}
		kind, backend, _ := strings.Cut(c.Path, "@")
		// The handler that served the request: the serve tier in
		// process, or behind the router the backend it replayed (for a
		// scattered batch, every backend it called).
		h := tiers[firstTier]
		if firstTier == "router" {
			h = 0
			for name, d := range tiers {
				if name == "backend."+backend || (kind == "batch" && strings.HasPrefix(name, "backend.")) {
					h += d
				}
			}
		}
		switch kind {
		case "predict":
			if h == 0 {
				continue // no handler span: nothing to attribute
			}
			predicts++
			client += c.DurUS
			transport += c.DurUS - tiers[firstTier]
			if firstTier == "router" {
				self := tiers["router"] - st["backend"]
				routerSelf += self
				hop += st["backend"] - h
				routerUnexplained += self - st["route"] - st["hedge_wait"] - st["coalesce"]
			}
			handler += h
			decode += st["decode"]
			cache += st["cache"]
			eval += st["eval"]
			encode += st["encode"]
			unattributed += h - st["decode"] - st["cache"] - st["eval"] - st["encode"]
		case "batch":
			batches++
			batchHandler += h
		case "observe":
			observes++
			commitWait += st["enqueue"]
		case "placement":
			placements++
			placementHandler += h
		}
	}
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	out.values["client.transport_us"] = div(transport, predicts)
	out.values["cluster.router_self_us"] = div(routerSelf, predicts)
	out.values["cluster.hop_us"] = div(hop, predicts)
	out.values["serve.handler_us"] = div(handler, predicts)
	out.values["serve.decode_us"] = div(decode, predicts)
	out.values["serve.cache_us"] = div(cache, predicts)
	out.values["serve.eval_us"] = div(eval, predicts)
	out.values["serve.encode_us"] = div(encode, predicts)
	out.values["serve.unattributed_us"] = div(unattributed, predicts)
	out.values["serve.batch_us_per_scenario"] = div(batchHandler, batches*batchSize)
	out.values["feedback.commit_wait_us"] = div(commitWait, observes)
	out.values["placement.handler_ms"] = div(placementHandler, placements) / 1e3
	out.values["trace.unexplained_pct"] = 100 * div(unattributed+routerUnexplained, client)
	out.values["trace.spans"] = float64(len(rec.spans))
	out.info["traced_predicts"] = predicts
}
