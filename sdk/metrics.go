package sdk

import "github.com/aware-home/grbac/internal/obs"

// RegisterMetrics exports the embedded client's mediation and replication
// health on a metrics registry as scrape-time collectors, so the decision
// hot path carries no instrumentation beyond its atomic counters. It
// composes the underlying puller's grbac_replica_* series with the SDK's
// own grbac_sdk_* series.
func (c *Client) RegisterMetrics(reg *obs.Registry) {
	if c == nil || reg == nil {
		return
	}
	reg.NewCounterFunc("grbac_sdk_local_decisions_total",
		"Requests mediated in-process against the replicated snapshot.",
		func() float64 { return float64(localDecisions(c.sys.Stats())) })
	reg.NewCounterFunc("grbac_sdk_remote_fallbacks_total",
		"Requests routed to the primary (session/live-environment flows, stale snapshot).",
		func() float64 { return float64(c.remoteFallbacks.Load()) })
	reg.NewCounterFunc("grbac_sdk_failsafe_denies_total",
		"Synthesized denies when neither local nor remote mediation was possible.",
		func() float64 { return float64(c.failSafeDenies.Load()) })
	reg.NewCounterFunc("grbac_sdk_stale_served_total",
		"Local decisions served past the staleness bound under FallbackServeStale.",
		func() float64 { return float64(c.staleServed.Load()) })
	reg.NewGaugeFunc("grbac_sdk_policy_generation",
		"Local policy generation (the primary's generation as of the last sync).",
		func() float64 { return float64(c.sys.Generation()) })
	c.puller.RegisterMetrics(reg)
}
