//! Campaign observability: `churnlab_campaign_*` counters.
//!
//! Attach a registry with [`crate::Platform::instrument`] and the runner
//! becomes attributable in a `--metrics-out` scrape: how many tests the
//! schedule planned, how many actually executed, how many the
//! fleet-sampling schedule skipped, how many of the executed needed no
//! packet flow to reach their verdict, and each worker's on-CPU generation
//! time (the campaign-side analogue of the engine's `EngineBusy`). The
//! routing simulator the campaign is handed is instrumented on the same
//! registry (`churnlab_route_*`: route lookups and tree builds, and what
//! its churn timeline took to build).

use churnlab_obs::{Counter, Registry};

/// Handles for the campaign-level counters. Cheap to clone per worker;
/// all clones share storage.
pub(crate) struct CampaignObs {
    scheduled: Counter,
    run: Counter,
    quiet: Counter,
    sampled_out: Counter,
    registry: Registry,
}

impl CampaignObs {
    /// Register the campaign counters on `registry`.
    pub(crate) fn new(registry: &Registry) -> Self {
        CampaignObs {
            scheduled: registry.counter(
                "churnlab_campaign_tests_scheduled_total",
                "Tests the campaign schedule planned (sampled-in (url, day, vp) slots x tests per testing day)",
                &[],
            ),
            run: registry.counter(
                "churnlab_campaign_tests_run_total",
                "Tests actually executed, including failed-route records",
                &[],
            ),
            quiet: registry.counter(
                "churnlab_campaign_tests_quiet_total",
                "Routed tests whose verdict needed no packet flow: no censor on the path acts on the URL that day and no organic noise fired",
                &[],
            ),
            sampled_out: registry.counter(
                "churnlab_campaign_tests_sampled_out_total",
                "Tests skipped because the fleet-sampling schedule left the vantage point out of the day subset",
                &[],
            ),
            registry: registry.clone(),
        }
    }

    /// The registry the campaign's series are registered in.
    pub(crate) fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Per-worker handle set (registers the labeled busy counter).
    pub(crate) fn worker(&self, worker: usize) -> CampaignWorkerObs {
        CampaignWorkerObs {
            scheduled: self.scheduled.clone(),
            run: self.run.clone(),
            quiet: self.quiet.clone(),
            sampled_out: self.sampled_out.clone(),
            busy: self.registry.counter(
                "churnlab_campaign_worker_busy_nanos_total",
                "Per-worker on-CPU time spent generating measurements, nanoseconds",
                &[("worker", &worker.to_string())],
            ),
        }
    }
}

/// The counter handles one runner worker increments.
pub(crate) struct CampaignWorkerObs {
    pub(crate) scheduled: Counter,
    pub(crate) run: Counter,
    pub(crate) quiet: Counter,
    pub(crate) sampled_out: Counter,
    pub(crate) busy: Counter,
}
