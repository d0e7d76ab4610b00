package main

import (
	"math"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/pca"
	"repro/internal/sim"
)

// maxProbeRows bounds the suites the analysis probe clusters: the drivers
// characterize suites of at most a few hundred workloads.
const maxProbeRows = 256

// layers accumulates a run's traced operations into the per-layer
// metrics. For serve-mix an operation is one request.
type layers struct {
	ops     int
	wall    time.Duration // summed operation latency
	elapsed time.Duration // wall time the traced operations spanned
	alloc   uint64
	mallocs uint64

	counters map[string]int64
	hists    map[string]obs.HistogramSnapshot
	drivers  map[string]time.Duration

	jsonDur, textDur time.Duration
	jsonBytes        int

	bytesRead int64

	sim                 sim.Counters // over simulated measurements
	probed              bool
	fit, agg, character []time.Duration

	serve *serveStats // serve-mix only
}

// serveStats are the client-side request figures of traced lifetimes.
type serveStats struct {
	warm, cold []time.Duration
	ok         int
}

func newLayers() *layers {
	return &layers{
		counters: map[string]int64{},
		hists:    map[string]obs.HistogramSnapshot{},
		drivers:  map[string]time.Duration{},
	}
}

// add folds one traced operation into the accumulators. The analysis
// probe runs on the first traced operation's suites only.
func (l *layers) add(p *probe, st opStat) {
	l.ops++
	l.wall += st.wall
	l.elapsed += st.wall
	l.alloc += st.alloc
	l.mallocs += st.mallocs
	l.addTrace(p.tr)
	for k, v := range p.drivers {
		l.drivers[k] += v
	}
	l.jsonDur += p.jsonDur
	l.textDur += p.textDur
	l.jsonBytes += p.jsonBytes
	sets := p.simulated
	if s := p.store; s != nil {
		l.bytesRead += s.bytesRead()
		sets = append(sets, s.stored...)
		if !l.probed {
			l.probed = true
			l.probeAnalysis(append(append([][]core.Measurement(nil), s.stored...), s.got...))
		}
	}
	l.addSimulated(sets)
}

// addSimulated sums the exact simulated counts of measurement sets.
func (l *layers) addSimulated(sets [][]core.Measurement) {
	for _, ms := range sets {
		for _, m := range ms {
			if m.Result != nil {
				l.sim.Add(&m.Result.Counters)
			}
		}
	}
}

// addServe folds one traced serve-mix lifetime into the accumulators:
// the requests, and the suite measurements the lifetime simulated.
func (l *layers) addServe(tr *obs.Trace, recs []reqRecord, simulated [][]core.Measurement, window time.Duration, alloc, mallocs uint64) {
	if l.serve == nil {
		l.serve = &serveStats{}
	}
	cold := classify(recs)
	for i, r := range recs {
		l.ops++
		l.wall += r.lat
		if r.err != nil {
			continue
		}
		l.serve.ok++
		if cold[i] {
			l.serve.cold = append(l.serve.cold, r.lat)
		} else {
			l.serve.warm = append(l.serve.warm, r.lat)
		}
	}
	l.elapsed += window
	l.alloc += alloc
	l.mallocs += mallocs
	l.addTrace(tr)
	l.addSimulated(simulated)
}

// addTrace sums the trace's counters and merges its histograms.
func (l *layers) addTrace(tr *obs.Trace) {
	snap := tr.Metrics()
	for _, c := range snap.Counters {
		l.counters[c.Name] += c.Value
	}
	for _, h := range snap.Histograms {
		l.hists[h.Name] = mergeHist(l.hists[h.Name], h)
	}
}

// probeAnalysis times core.Characterize, and apart from it pca.Fit and
// cluster.Agglomerate, on each suite the operation measured or read, with
// the parameters the drivers use.
func (l *layers) probeAnalysis(sets [][]core.Measurement) {
	for _, ms := range sets {
		vs, _ := core.Vectors(ms)
		if len(vs) < 3 || len(vs) > maxProbeRows {
			continue
		}
		t0 := time.Now()
		if _, err := core.Characterize(ms, 4, cluster.Average); err != nil {
			continue
		}
		l.character = append(l.character, time.Since(t0))
		t0 = time.Now()
		fit, err := pca.Fit(metrics.Matrix(vs))
		if err != nil {
			continue
		}
		l.fit = append(l.fit, time.Since(t0))
		features := fit.TopScores(4)
		t0 = time.Now()
		if _, err := cluster.Agglomerate(features, cluster.Average); err != nil {
			continue
		}
		l.agg = append(l.agg, time.Since(t0))
	}
}

// mergeHist adds two snapshots of histograms with the same bucketing.
func mergeHist(a, b obs.HistogramSnapshot) obs.HistogramSnapshot {
	if a.Count == 0 {
		return b
	}
	if b.Count == 0 {
		return a
	}
	out := obs.HistogramSnapshot{
		Name: b.Name, Count: a.Count + b.Count, Sum: a.Sum + b.Sum,
		Min: min(a.Min, b.Min), Max: max(a.Max, b.Max),
	}
	i, j := 0, 0
	for i < len(a.Buckets) || j < len(b.Buckets) {
		switch {
		case j == len(b.Buckets) || (i < len(a.Buckets) && a.Buckets[i].Lo < b.Buckets[j].Lo):
			out.Buckets = append(out.Buckets, a.Buckets[i])
			i++
		case i == len(a.Buckets) || b.Buckets[j].Lo < a.Buckets[i].Lo:
			out.Buckets = append(out.Buckets, b.Buckets[j])
			j++
		default:
			bk := a.Buckets[i]
			bk.Count += b.Buckets[j].Count
			out.Buckets = append(out.Buckets, bk)
			i++
			j++
		}
	}
	return out
}

// meanMs is a histogram's mean in milliseconds.
func meanMs(h obs.HistogramSnapshot) float64 { return h.Mean() / 1e6 }

// values computes every per-layer metric of the run.
func (l *layers) values(r *runner) map[string]float64 {
	v := primitives(r.env.seed, r.tiny)
	ops := float64(max(l.ops, 1))
	per := func(x float64) float64 { return x / ops }

	wl := l.hists["sim.workload.latency"]
	v["sim.prewarm_ms"] = meanMs(l.hists["sim.phase.prewarm"])
	v["sim.run_ms"] = meanMs(l.hists["sim.phase.run"])
	v["sim.derive_ms"] = meanMs(l.hists["sim.phase.derive"])
	v["sim.workload_ms_p50"] = wl.Quantile(0.5) / 1e6
	if wl.Count > 0 {
		v["sim.alloc_mb_per_workload"] = float64(l.alloc) / float64(wl.Count) / 1e6
		v["sim.mallocs_per_workload"] = float64(l.mallocs) / float64(wl.Count)
	}
	instr := float64(l.counters["sim.instructions"])
	v["sim.instructions"] = per(instr)
	if l.elapsed > 0 {
		v["sim.mips"] = instr / 1e6 / l.elapsed.Seconds()
	}
	v["sim.l1d_accesses"] = per(float64(l.sim.L1DAccesses))
	v["sim.l3_accesses"] = per(float64(l.sim.L3Accesses))
	v["sim.dram_reads"] = per(float64(l.sim.DRAMReads))
	v["sim.jit_starts"] = per(float64(l.sim.JITStarts))
	v["sim.gc_triggered"] = per(float64(l.sim.GCTriggered))

	poolWall := float64(l.hists["measure.latency"].Sum) - l.storeTime()
	if poolWall > 0 {
		v["core.pool_utilization"] = float64(wl.Sum) / (procs * poolWall)
	}
	v["core.queue_wait_ms"] = meanMs(l.hists["pool.queue.wait"])
	v["core.workloads"] = per(float64(wl.Count))

	v["mstore.get_hit_ms"] = meanMs(l.hists["mstore.get.hit.latency"])
	v["mstore.put_ms"] = meanMs(l.hists["mstore.put.latency"])
	v["mstore.bytes_read"] = per(float64(l.bytesRead))
	hits, misses := l.counters["mstore.hits"], l.counters["mstore.misses"]
	if hits+misses > 0 {
		v["mstore.hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	v["pca.fit_ms"] = ms(median(l.fit))
	v["cluster.agglomerate_ms"] = ms(median(l.agg))
	v["core.characterize_ms"] = ms(median(l.character))

	for name, d := range l.drivers {
		v["experiments.driver_ms."+name] = per(ms(d))
	}
	v["experiments.memcache_hits"] = per(float64(l.counters["lab.memcache.hits"]))
	v["experiments.singleflight_coalesced"] = per(float64(l.counters["lab.singleflight.coalesced"]))
	v["artifact.render_json_ms"] = per(ms(l.jsonDur))
	v["artifact.render_text_ms"] = per(ms(l.textDur))
	v["artifact.json_bytes"] = per(float64(l.jsonBytes))

	queue := l.hists["serve.queue.wait"]
	handler := l.hists["serve.request.latency.measure"]
	v["serve.queue_wait_ms_p50"] = queue.Quantile(0.5) / 1e6
	v["serve.queue_wait_ms_p90"] = queue.Quantile(0.9) / 1e6
	v["serve.handler_ms_p50"] = handler.Quantile(0.5) / 1e6
	for name, n := range l.counters {
		if strings.HasPrefix(name, "serve.shed.") {
			v["serve.shed"] += per(float64(n))
		}
	}
	v["serve.abandoned"] = per(float64(l.counters["serve.tasks.abandoned"]))
	if s := l.serve; s != nil {
		if handler.Count > 0 {
			v["serve.http_overhead_ms"] = ms(l.wall)/ops - meanMs(handler)
		}
		warmTail, pct := tail(s.warm)
		v["warm_req_p50_ms"] = ms(median(s.warm))
		v["warm_req_tail_ms"] = ms(warmTail)
		v["warm_req_tail_pct"] = pct
		v["warm_req_samples"] = float64(len(s.warm))
		v["cold_req_p50_ms"] = ms(median(s.cold))
		v["cold_req_samples"] = float64(len(s.cold))
		if l.elapsed > 0 {
			v["req_per_s"] = float64(s.ok) / l.elapsed.Seconds()
		}
	}
	if r.attempted > 0 {
		v["error_rate"] = float64(r.failed) / float64(r.attempted)
	}
	v["op_samples"] = float64(l.ops)

	for k, x := range l.attribution() {
		v[k] = x
	}
	traced, plain := median(r.tracedOps), median(r.plainOps)
	v["attr.traced_op_p50_s"] = traced.Seconds()
	v["attr.untraced_op_p50_s"] = plain.Seconds()
	v["attr.trace_overhead_s"] = (traced - plain).Seconds()
	return v
}

// storeTime is the summed latency of the store's Gets and Puts, as the
// store records it.
func (l *layers) storeTime() float64 {
	var t int64
	for _, name := range []string{"mstore.get.hit.latency", "mstore.get.miss.latency", "mstore.put.latency"} {
		t += l.hists[name].Sum
	}
	return float64(t)
}

// attribution splits the traced operations' summed latency into layer
// self-times: each layer's timed span minus the spans nested in it.
//
//	operation
//	  http          client latency minus the handler (serve-mix)
//	  queue         serve admission queue wait (serve-mix)
//	  driver        driver or serve task self-time: analysis, filtering
//	    coalesce    waiting on another request's measurement
//	    measure     Lab suite measurement
//	      mstore    store Get/Put
//	      pool      worker-pool wall time not busy simulating
//	      sim       busy pool time, split by phase: prewarm, run, other
//	  render        artifact JSON rendering
//
// What the spans do not cover is attr.unexplained_frac.
func (l *layers) attribution() map[string]float64 {
	total := float64(l.wall)
	if total <= 0 {
		return nil
	}
	h := func(name string) float64 { return float64(l.hists[name].Sum) }
	measure, coalesce := h("measure.latency"), h("measure.singleflight.wait")
	storeTime := l.storeTime()
	var httpT, queue, driver float64
	switch {
	case l.serve != nil:
		handler := h("serve.request.latency.measure")
		httpT = total - handler
		queue = h("serve.queue.wait")
		driver = handler - queue
	case len(l.drivers) > 0:
		for _, d := range l.drivers {
			driver += float64(d)
		}
	default: // the operation is one suite measurement
		driver = measure + coalesce
	}
	pool := measure - storeTime
	simTotal := h("sim.workload.latency")
	busy := math.Max(0, math.Min(simTotal/procs, pool))
	var prewarm, run float64
	if simTotal > 0 {
		prewarm = busy * h("sim.phase.prewarm") / simTotal
		run = busy * h("sim.phase.run") / simTotal
	}
	parts := map[string]float64{
		"attr.http_frac":        httpT,
		"attr.queue_frac":       queue,
		"attr.driver_frac":      driver - measure - coalesce,
		"attr.coalesce_frac":    coalesce,
		"attr.mstore_frac":      storeTime,
		"attr.pool_frac":        pool - busy,
		"attr.sim_prewarm_frac": prewarm,
		"attr.sim_run_frac":     run,
		"attr.sim_other_frac":   busy - prewarm - run,
		"attr.render_frac":      float64(l.jsonDur),
	}
	out := make(map[string]float64, len(parts)+1)
	explained := 0.0
	for k, x := range parts {
		out[k] = x / total
		explained += x
	}
	out["attr.unexplained_frac"] = (total - explained) / total
	return out
}
