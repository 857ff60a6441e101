package replica

import "github.com/aware-home/grbac/internal/obs"

// RegisterMetrics exports replication health on a metrics registry as
// scrape-time collectors over Stats(), so the sync loop itself carries no
// instrumentation.
func (p *Puller) RegisterMetrics(reg *obs.Registry) {
	if p == nil || reg == nil {
		return
	}
	reg.NewGaugeFunc("grbac_replica_lag_generations",
		"Policy mutations observed at the primary but not yet applied locally.",
		func() float64 { return float64(p.Stats().Lag) })
	reg.NewGaugeFunc("grbac_replica_last_contact_age_seconds",
		"Seconds since the last successful exchange with the primary (-1 before first contact).",
		func() float64 { return p.Stats().LastContactAgeSeconds })
	reg.NewGaugeFunc("grbac_replica_stale",
		"1 while the follower is past its staleness bound, else 0.",
		func() float64 {
			if p.Stale() {
				return 1
			}
			return 0
		})
	reg.NewCounterFunc("grbac_replica_syncs_total",
		"Full snapshots successfully applied.",
		func() float64 { return float64(p.Stats().Syncs) })
	reg.NewCounterFunc("grbac_replica_delta_syncs_total",
		"Catch-ups served from the primary's journal tail instead of a full snapshot.",
		func() float64 { return float64(p.Stats().DeltaSyncs) })
	reg.NewCounterFunc("grbac_replica_delta_mutations_total",
		"Individual mutations applied via delta sync.",
		func() float64 { return float64(p.Stats().DeltaMutations) })
	reg.NewCounterFunc("grbac_replica_errors_total",
		"Failed fetch/watch/apply attempts.",
		func() float64 { return float64(p.Stats().Errors) })
	reg.NewCounterFunc("grbac_replica_watch_reconnects_total",
		"Watch streams that broke and forced backoff plus a fresh snapshot.",
		func() float64 { return float64(p.Stats().WatchReconnects) })
	reg.NewCounterFunc("grbac_replica_epoch_flips_total",
		"Primary epoch changes observed mid-watch (restarts/replacements); re-synced without backoff.",
		func() float64 { return float64(p.Stats().EpochFlips) })
}
