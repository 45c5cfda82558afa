//! The paper's experimental constants (§4.1), with uniform scaling, plus
//! the crash-recovery scenario knobs.

use cosmos_net::TransitStubConfig;

/// Crash-recovery scenario knobs: how often hosted engines checkpoint,
/// and how aggressively the workload kills and restores them. Fed to the
/// recovery simulator (`cosmos_workload::sim::RecoverySim`), which
/// schedules checkpoints on the reliable plane's simulated clock and
/// rolls engine-kill ops into the workload step mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryParams {
    /// Simulated ticks between checkpoints of each hosted engine. Bounds
    /// upstream replay-log retention: at most one interval of traffic is
    /// ever retained per engine.
    pub checkpoint_interval: u64,
    /// Out of 100 workload steps, how many crash a live engine host.
    pub kill_weight: u32,
    /// Out of 100 workload steps, how many restore a crashed host.
    pub restore_weight: u32,
}

impl RecoveryParams {
    /// Validates the knobs at construction: a zero checkpoint interval
    /// would never truncate replay logs, and kill/restore weights must
    /// leave room in the 100-step budget for actual workload.
    pub fn validate(&self) -> Result<(), String> {
        if self.checkpoint_interval == 0 {
            return Err("checkpoint_interval must be positive (zero never truncates)".into());
        }
        if self.kill_weight + self.restore_weight > 100 {
            return Err(format!(
                "kill_weight + restore_weight must be at most 100, got {}",
                self.kill_weight + self.restore_weight
            ));
        }
        Ok(())
    }
}

/// All simulation-study parameters in one place.
#[derive(Debug, Clone)]
pub struct PaperParams {
    /// Transit-stub topology configuration.
    pub topology: TransitStubConfig,
    /// Number of data-source nodes (paper: 100).
    pub n_sources: usize,
    /// Number of stream processors (paper: 256).
    pub n_processors: usize,
    /// Number of substreams (paper: 20 000).
    pub n_substreams: usize,
    /// Substream rate range in bytes/second (paper: 1–10).
    pub rate_min: f64,
    /// Upper end of the substream rate range.
    pub rate_max: f64,
    /// Number of user-behaviour groups (paper: g = 20).
    pub n_groups: usize,
    /// Zipf skew for substream popularity (paper: θ = 0.8).
    pub theta: f64,
    /// Minimum substreams per query (paper: 100).
    pub query_substreams_min: usize,
    /// Maximum substreams per query (paper: 200).
    pub query_substreams_max: usize,
    /// Cluster-size parameter of the coordinator tree (paper default: 4).
    pub k: usize,
    /// Query load per byte/second of input (load ∝ input rate).
    pub load_per_byte: f64,
    /// Result rate as a fraction of input rate.
    ///
    /// Calibrated, not copied: the paper never states the simulation's
    /// result rates, but Naive — which pays *zero* result-delivery cost by
    /// construction — is its worst scheme (Figure 6a), which is only
    /// possible when result traffic is a minor share of the total. 0.002
    /// keeps result delivery at a few percent of the communication cost,
    /// preserving that regime (see EXPERIMENTS.md).
    pub result_ratio: f64,
}

impl PaperParams {
    /// The paper's full scale.
    pub fn full() -> Self {
        Self {
            topology: TransitStubConfig::paper_scale(),
            n_sources: 100,
            n_processors: 256,
            n_substreams: 20_000,
            rate_min: 1.0,
            rate_max: 10.0,
            n_groups: 20,
            theta: 0.8,
            query_substreams_min: 100,
            query_substreams_max: 200,
            k: 4,
            load_per_byte: 0.001,
            result_ratio: 0.002,
        }
    }

    /// Scales every size-like dimension by `f` (0 < f ≤ 1), keeping the
    /// paper's *shape*: topology, source/processor counts, substream count
    /// and group count scale linearly; per-query substream counts scale by
    /// `√f`. The square root is deliberate: the expected interest overlap
    /// between two same-group queries is `picks² × Σ p(s)²`, and the
    /// Zipfian head concentration `Σ p(s)²` decays only logarithmically
    /// with the universe — linear pick scaling would collapse the overlap
    /// fraction that the sharing experiments depend on, while `√f` keeps
    /// the shared-fraction-per-pair close to the paper's regime. Rates, θ
    /// and k stay as-is.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < f <= 1`.
    pub fn scaled(f: f64) -> Self {
        assert!(f > 0.0 && f <= 1.0, "scale must be in (0, 1]");
        let full = Self::full();
        let s = |v: usize, min: usize| ((v as f64 * f).round() as usize).max(min);
        let sq = |v: usize, min: usize| ((v as f64 * f.sqrt()).round() as usize).max(min);
        let mut topology = full.topology.clone();
        // Keep 4 transit domains; shrink stub dimensions by ∛f-ish factors
        // so the node count scales roughly linearly.
        let cube = f.cbrt();
        topology.transit_nodes_per_domain =
            ((topology.transit_nodes_per_domain as f64 * cube).round() as usize).max(2);
        topology.stub_domains_per_transit =
            ((topology.stub_domains_per_transit as f64 * cube).round() as usize).max(1);
        topology.stub_nodes_per_domain =
            ((topology.stub_nodes_per_domain as f64 * cube).round() as usize).max(4);
        Self {
            topology,
            n_sources: s(full.n_sources, 4),
            n_processors: s(full.n_processors, 8),
            n_substreams: s(full.n_substreams, 100),
            // The group count does NOT scale: the communication savings the
            // paper measures come from reducing each substream's fan-out
            // from "all processors" (Naive) to "the processors dedicated to
            // its group" — i.e. from the processors:groups ratio. Scaling
            // groups down with processors would keep that ratio constant
            // and erase the effect the experiments exist to show.
            n_groups: full.n_groups.min(s(full.n_processors, 8)),
            query_substreams_min: sq(full.query_substreams_min, 4),
            query_substreams_max: sq(full.query_substreams_max, 8),
            ..full
        }
    }

    /// A fast configuration for tests (≈70-node topology).
    pub fn tiny() -> Self {
        Self {
            topology: TransitStubConfig::small(),
            n_sources: 4,
            n_processors: 8,
            n_substreams: 200,
            rate_min: 1.0,
            rate_max: 10.0,
            n_groups: 2,
            theta: 0.8,
            query_substreams_min: 15,
            query_substreams_max: 30,
            k: 2,
            load_per_byte: 0.001,
            result_ratio: 0.002,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_matches_paper_numbers() {
        let p = PaperParams::full();
        assert_eq!(p.n_sources, 100);
        assert_eq!(p.n_processors, 256);
        assert_eq!(p.n_substreams, 20_000);
        assert_eq!(p.n_groups, 20);
        assert_eq!(p.k, 4);
        assert!((p.theta - 0.8).abs() < 1e-12);
        assert!(p.topology.node_count() >= 4096);
    }

    #[test]
    fn scaling_shrinks_sizes_not_shape() {
        let p = PaperParams::scaled(0.1);
        assert!(p.n_processors < 256 && p.n_processors >= 8);
        assert!(p.n_substreams <= 2_100);
        assert!((p.theta - 0.8).abs() < 1e-12);
        assert_eq!(p.k, 4);
        assert!(p.topology.node_count() >= p.n_sources + p.n_processors);
    }

    #[test]
    #[should_panic(expected = "scale must be")]
    fn zero_scale_rejected() {
        let _ = PaperParams::scaled(0.0);
    }

    #[test]
    fn recovery_params_are_validated_at_construction() {
        let ok = RecoveryParams { checkpoint_interval: 5_000, kill_weight: 8, restore_weight: 12 };
        assert!(ok.validate().is_ok());
        let e = RecoveryParams { checkpoint_interval: 0, ..ok }.validate().unwrap_err();
        assert!(e.contains("checkpoint_interval"), "{e}");
        let e = RecoveryParams { kill_weight: 60, restore_weight: 50, checkpoint_interval: 1 }
            .validate()
            .unwrap_err();
        assert!(e.contains("at most 100") && e.contains("110"), "{e}");
    }
}
