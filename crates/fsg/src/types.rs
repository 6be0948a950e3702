//! Configuration, results, and instrumentation types for the FSG miner.

use tnet_graph::graph::Graph;

/// Minimum support specification.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Support {
    /// Absolute number of transactions.
    Count(usize),
    /// Fraction of the transaction set (FSG's `s·|D|`), in (0, 1].
    Fraction(f64),
}

impl Support {
    /// Resolves to an absolute count for `n` transactions (at least 1).
    pub fn resolve(self, n: usize) -> usize {
        match self {
            Support::Count(c) => c.max(1),
            Support::Fraction(f) => {
                assert!(f > 0.0 && f <= 1.0, "support fraction out of range");
                ((f * n as f64).ceil() as usize).max(1)
            }
        }
    }
}

/// Miner configuration.
#[derive(Clone, Debug)]
pub struct FsgConfig {
    pub min_support: Support,
    /// Stop after patterns of this many edges.
    pub max_edges: usize,
    /// Abort with [`FsgError::MemoryBudgetExceeded`] when the estimated
    /// size of a level's candidate set crosses this many bytes. `None`
    /// disables the check. This reproduces the paper's §6.1 observation —
    /// "we were unable to run FSG on the entire data set due to
    /// insufficient memory" — as a deterministic, recoverable error
    /// instead of host OOM.
    pub memory_budget: Option<usize>,
    /// Per-(pattern, transaction) embedding-list cap for propagated
    /// support counting. The effective cap for a transaction is
    /// `max(embedding_cap, transaction edge count)` — a list no longer
    /// than the transaction costs no more than the transaction itself,
    /// and large transactions are exactly where scratch searches are most
    /// expensive. Lists at or under the cap are stored and extended one
    /// edge at a time as patterns grow; a list that overflows "spills":
    /// it is truncated to a bounded seed prefix and marked inexact, so
    /// memory stays bounded on symmetric/dense transactions. Extensions
    /// of the kept seeds still prove support, while an empty extension
    /// result from an inexact list is re-verified by a scratch VF2
    /// search. `0` disables propagation entirely (every support test is a
    /// scratch VF2 search — the pre-optimization behavior, kept for
    /// differential testing).
    pub embedding_cap: usize,
}

impl Default for FsgConfig {
    fn default() -> Self {
        FsgConfig {
            min_support: Support::Fraction(0.05),
            max_edges: 10,
            memory_budget: None,
            embedding_cap: 256,
        }
    }
}

impl FsgConfig {
    /// Sets the minimum support.
    pub fn with_support(mut self, s: Support) -> Self {
        self.min_support = s;
        self
    }

    /// Sets the maximum pattern size in edges.
    pub fn with_max_edges(mut self, n: usize) -> Self {
        self.max_edges = n;
        self
    }

    /// Sets the candidate-set memory budget in bytes.
    pub fn with_memory_budget(mut self, bytes: usize) -> Self {
        self.memory_budget = Some(bytes);
        self
    }

    /// Sets the per-(pattern, transaction) embedding-list cap (`0`
    /// disables embedding propagation).
    pub fn with_embedding_cap(mut self, cap: usize) -> Self {
        self.embedding_cap = cap;
        self
    }
}

/// A mined frequent connected subgraph.
#[derive(Clone, Debug)]
pub struct FrequentPattern {
    /// Representative graph of the isomorphism class.
    pub graph: Graph,
    /// Number of supporting transactions.
    pub support: usize,
    /// Indices of the supporting transactions (ascending).
    pub tids: Vec<u32>,
}

impl FrequentPattern {
    pub fn edges(&self) -> usize {
        self.graph.edge_count()
    }
}

/// Per-run instrumentation (drives the §8 analysis benches).
#[derive(Clone, Debug, Default)]
pub struct MiningStats {
    /// Candidates generated at each level (level 1 = single edges).
    pub candidates_per_level: Vec<usize>,
    /// Frequent patterns surviving at each level.
    pub frequent_per_level: Vec<usize>,
    /// Candidates eliminated by downward-closure pruning.
    pub closure_pruned: usize,
    /// Subgraph-isomorphism (support-count) tests executed. With
    /// embedding propagation enabled these only happen when a truncated
    /// (inexact) embedding list yields no extension — an unverified "no"
    /// that is settled from scratch.
    pub iso_tests: usize,
    /// Search nodes visited by those tests, summed — their deterministic
    /// cost, the same at any thread count.
    pub iso_nodes: u64,
    /// Search nodes of the most expensive single test: the tail that a
    /// handful of negative decisions on hub transactions can dominate.
    pub iso_nodes_max: u64,
    /// Peak estimated candidate-set bytes across levels.
    pub peak_candidate_bytes: usize,
    /// Parent embeddings extended by one edge in place of scratch VF2
    /// support tests.
    pub embeddings_extended: usize,
    /// (pattern, transaction) embedding lists that overflowed the cap and
    /// were truncated to `embedding_cap` inexact seed entries.
    pub embeddings_spilled: usize,
    /// Transaction checks avoided by intersecting *all* parents' TID
    /// lists instead of seeding from the single smallest parent.
    pub tid_intersection_skips: usize,
    /// Pairwise bitset AND operations that replaced sorted TID merges in
    /// the all-parents intersection.
    pub bitset_intersections: usize,
    /// Peak bytes held by one level's structure-of-arrays embedding
    /// stores (the flat `VertexId` buffers).
    pub soa_bytes: usize,
}

impl MiningStats {
    pub fn total_candidates(&self) -> usize {
        self.candidates_per_level.iter().sum()
    }

    pub fn total_frequent(&self) -> usize {
        self.frequent_per_level.iter().sum()
    }

    /// Folds this run's counters into a [`tnet_obs::MetricsRegistry`]
    /// under `fsg.*` names (the unified namespace; see DESIGN.md §10).
    /// Totals add; peaks keep their high-water mark.
    pub fn record_into(&self, metrics: &tnet_obs::MetricsRegistry) {
        metrics.add("fsg.levels", self.candidates_per_level.len() as u64);
        metrics.add("fsg.candidates", self.total_candidates() as u64);
        metrics.add("fsg.frequent", self.total_frequent() as u64);
        metrics.add("fsg.closure_pruned", self.closure_pruned as u64);
        metrics.add("fsg.iso_tests", self.iso_tests as u64);
        metrics.add("fsg.iso_nodes", self.iso_nodes);
        metrics.record_max("fsg.iso_nodes_max", self.iso_nodes_max);
        metrics.add("fsg.embeddings_extended", self.embeddings_extended as u64);
        metrics.add("fsg.embeddings_spilled", self.embeddings_spilled as u64);
        metrics.add(
            "fsg.tid_intersection_skips",
            self.tid_intersection_skips as u64,
        );
        metrics.add("fsg.bitset_intersections", self.bitset_intersections as u64);
        metrics.record_max("fsg.peak_candidate_bytes", self.peak_candidate_bytes as u64);
        metrics.record_max("fsg.soa_bytes", self.soa_bytes as u64);
    }
}

/// Successful mining output.
#[derive(Clone, Debug)]
pub struct FsgOutput {
    /// All frequent connected patterns, largest-support first.
    pub patterns: Vec<FrequentPattern>,
    pub stats: MiningStats,
}

/// Mining failure.
#[derive(Clone, Debug)]
pub enum FsgError {
    /// The candidate set at `level` was estimated at `estimated_bytes`,
    /// above the configured budget. `partial_stats` covers the completed
    /// levels.
    MemoryBudgetExceeded {
        level: usize,
        estimated_bytes: usize,
        budget: usize,
        /// Boxed: the counter struct is large and would dominate the
        /// size of every `Result` on the mining path.
        partial_stats: Box<MiningStats>,
    },
    /// The mine's execution handle was cancelled (by a caller, a
    /// deadline, or a sibling's memory-budget abort propagating through
    /// a shared [`tnet_exec::CancelToken`]) before the run completed.
    Cancelled,
    /// An armed failpoint (`fsg::candidate_gen`) injected a fault.
    Fault(tnet_exec::failpoint::Fault),
}

impl std::fmt::Display for FsgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsgError::MemoryBudgetExceeded {
                level,
                estimated_bytes,
                budget,
                ..
            } => write!(
                f,
                "candidate set at level {level} needs ~{estimated_bytes} bytes, budget is {budget}"
            ),
            FsgError::Cancelled => write!(f, "mining run was cancelled"),
            FsgError::Fault(fault) => write!(f, "{fault}"),
        }
    }
}

impl std::error::Error for FsgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn support_resolution() {
        assert_eq!(Support::Count(5).resolve(100), 5);
        assert_eq!(Support::Count(0).resolve(100), 1);
        assert_eq!(Support::Fraction(0.05).resolve(100), 5);
        assert_eq!(Support::Fraction(0.05).resolve(53), 3); // ceil(2.65)
        assert_eq!(Support::Fraction(1.0).resolve(10), 10);
        assert_eq!(Support::Fraction(0.001).resolve(10), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_fraction() {
        Support::Fraction(1.5).resolve(10);
    }

    #[test]
    fn config_builders() {
        let c = FsgConfig::default()
            .with_support(Support::Count(3))
            .with_max_edges(4)
            .with_memory_budget(1 << 20);
        assert_eq!(c.min_support, Support::Count(3));
        assert_eq!(c.max_edges, 4);
        assert_eq!(c.memory_budget, Some(1 << 20));
    }

    #[test]
    fn stats_totals() {
        let s = MiningStats {
            candidates_per_level: vec![3, 5],
            frequent_per_level: vec![2, 1],
            ..Default::default()
        };
        assert_eq!(s.total_candidates(), 8);
        assert_eq!(s.total_frequent(), 3);
    }
}
