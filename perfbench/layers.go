package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/mtm"
	"repro/internal/scm"
	"repro/internal/telemetry"
)

// snapshot is every layer's public counters at one instant: the device's
// fence/flush/write-through counts, the transaction system's outcome
// counts, and the telemetry registry (attribution phase histograms and
// the layers' own counters).
type snapshot struct {
	at  time.Time
	dev scm.StatsSnapshot
	tm  mtm.StatsSnapshot
	tel map[string]float64
}

func takeSnapshot(pm *core.PM) snapshot {
	return snapshot{at: time.Now(), dev: pm.Device().Snapshot(), tm: pm.TM().Snapshot(), tel: telemetry.Default.Snapshot()}
}

// layerUnits lists every per-layer metric the traced run reports; a
// metric a workload does not exercise reads 0.
var layerUnits = map[string]string{
	"scm.fences_per_op":           "count",
	"scm.flushes_per_op":          "count",
	"scm.wt_bytes_per_op":         "bytes",
	"scm.fence_us_per_op":         "us",
	"rawl.flush_us_per_commit":    "us",
	"rawl.truncate_us_per_commit": "us",
	"pheap.allocs_per_op":         "count",
	"pheap.frees_per_op":          "count",
	"pheap.alloc_us":              "us",
	"pheap.free_us":               "us",
	"mtm.lease_us":                "us",
	"mtm.atomic_us":               "us",
	"mtm.release_us":              "us",
	"mtm.commits_per_op":          "count",
	"mtm.aborts_per_commit":       "count",
	"mtm.leases_per_op":           "count",
	"mtm.lease_wait_us":           "us",
	"mtm.txn_us":                  "us",
	"mtm.validate_us":             "us",
	"mtm.log_append_us":           "us",
	"mtm.log_fence_us":            "us",
	"mtm.write_back_us":           "us",
	"mtm.truncate_us":             "us",
	"mtm.view_us":                 "us",
	"mtm.view_retries_per_view":   "count",
	"pds.put_us":                  "us",
	"pds.get_us":                  "us",
	"kvserve.get_us":              "us",
	"kvserve.mget_us":             "us",
	"kvserve.set_us":              "us",
	"kvserve.set_ex_us":           "us",
	"kvserve.set_px_us":           "us",
	"kvserve.hset_us":             "us",
	"kvserve.mset_us":             "us",
	"kvserve.request_us":          "us",
	"kvserve.parse_us":            "us",
	"kvserve.exec_us":             "us",
	"kvserve.expired_per_s":       "1/s",
	"core.attach_ms":              "ms",
	"kvserve.new_ms":              "ms",
	"mtm.recovery_replayed":       "count",
	"trace.untraced_ops_s":        "1/s",
	"trace.traced_ops_s":          "1/s",
	"trace.overhead_share":        "ratio",
	"client.error_share":          "ratio",
}

// libTxOnly are the per-layer metrics that only lib-tx's spans around
// Lease, Atomic, Release, Put and Get measure. lib-tx runs by hand and
// is not in BENCHMARK.json (NOTES.md says why), so the listed workloads
// leave these out.
var libTxOnly = map[string]bool{
	"mtm.lease_us": true, "mtm.atomic_us": true, "mtm.release_us": true,
	"pds.put_us": true, "pds.get_us": true,
}

func ratio(x, y float64) float64 {
	if y == 0 {
		return 0
	}
	return x / y
}

// layerMetrics turns two snapshots around the measured window, and the
// benchmark's own spans in it, into the per-layer metrics.
func layerMetrics(a, b snapshot, w *window) map[string]float64 {
	d := func(name string) float64 { return b.tel[name] - a.tel[name] }
	phaseUS := func(ph string) float64 { return d("phase_"+ph+"_latency_ns_sum") / 1e3 }
	phaseMeanUS := func(ph string) float64 { return ratio(phaseUS(ph), d("phase_"+ph+"_latency_ns_count")) }
	ops := float64(w.ok)
	commits := float64(b.tm.Commits - a.tm.Commits)
	leases := d("mtm_thread_leases_total")
	m := map[string]float64{
		"scm.fences_per_op":           ratio(float64(b.dev.Fences-a.dev.Fences), ops),
		"scm.flushes_per_op":          ratio(float64(b.dev.Flushes-a.dev.Flushes), ops),
		"scm.wt_bytes_per_op":         ratio(float64(b.dev.BytesWT-a.dev.BytesWT), ops),
		"scm.fence_us_per_op":         ratio(phaseUS("scm_fence"), ops),
		"rawl.flush_us_per_commit":    ratio(phaseUS("rawl_flush"), commits),
		"rawl.truncate_us_per_commit": ratio(phaseUS("rawl_truncate"), commits),
		"pheap.allocs_per_op":         ratio(d("pheap_allocs_total"), ops),
		"pheap.frees_per_op":          ratio(d("pheap_frees_total"), ops),
		"pheap.alloc_us":              phaseMeanUS("alloc"),
		"pheap.free_us":               phaseMeanUS("free"),
		"mtm.lease_us":                w.spans.meanUS(spLease),
		"mtm.atomic_us":               w.spans.meanUS(spAtomic),
		"mtm.release_us":              w.spans.meanUS(spRelease),
		"mtm.commits_per_op":          ratio(commits, ops),
		"mtm.aborts_per_commit":       ratio(float64(b.tm.Aborts-a.tm.Aborts), commits),
		"mtm.leases_per_op":           ratio(leases, ops),
		"mtm.lease_wait_us":           ratio(phaseUS("lease_wait"), leases),
		"mtm.view_us":                 phaseMeanUS("view"),
		"mtm.view_retries_per_view":   ratio(d("mtm_readtx_retries_total"), d("mtm_readtx_started_total")),
		"pds.put_us":                  w.spans.meanUS(spPut),
		"pds.get_us":                  w.spans.meanUS(spGetLib),
		"kvserve.get_us":              w.spans.meanUS(spGet),
		"kvserve.mget_us":             w.spans.meanUS(spMGet),
		"kvserve.set_us":              w.spans.meanUS(spSet),
		"kvserve.set_ex_us":           w.spans.meanUS(spSetEX),
		"kvserve.set_px_us":           w.spans.meanUS(spSetPX),
		"kvserve.hset_us":             w.spans.meanUS(spHSet),
		"kvserve.mset_us":             w.spans.meanUS(spMSet),
		"kvserve.request_us":          phaseMeanUS("request"),
		"kvserve.parse_us":            phaseMeanUS("parse"),
		"kvserve.exec_us":             phaseMeanUS("exec"),
		"kvserve.expired_per_s":       ratio(d("kvserve_expired_total"), b.at.Sub(a.at).Seconds()),
	}
	// Commit phases, per commit.
	for _, ph := range []string{"txn", "validate", "log_append", "log_fence", "write_back", "truncate"} {
		m["mtm."+ph+"_us"] = ratio(phaseUS(ph), commits)
	}
	return m
}
