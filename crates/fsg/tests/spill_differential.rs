//! Differential contract for the embedding spill path: with a tiny seed
//! cap forced, propagated support counting — spilled lists, truncated
//! seed prefixes, `Grown::Unverified` → scratch re-verification — must
//! mine exactly the pattern set (and supports) that pure scratch VF2
//! mines with propagation disabled.
//!
//! The seed-cap override is process-global, so this file holds the only
//! test that arms it; the override is cleared before any assertion can
//! escape (panics are caught and re-raised after the reset).

use tnet_fsg::{mine, set_seed_cap_for_tests, FsgConfig, Support};
use tnet_graph::canon::IsoClassMap;
use tnet_graph::graph::{ELabel, Graph, VLabel};

/// Hub-heavy transactions with uniform labels: a hub with `spokes`
/// out-edges carrying one (vlabel, elabel) pair. A two-edge fan pattern
/// has `spokes * (spokes - 1)` embeddings in each transaction — far past
/// the exact-list cap of `max(embedding_cap, edge_count)` — so every
/// exact list of fans overflows, spills, and is truncated to the seed
/// prefix.
fn hub_transactions(n: usize, spokes: usize) -> Vec<Graph> {
    (0..n)
        .map(|_| {
            let mut g = Graph::new();
            let hub = g.add_vertex(VLabel(0));
            for _ in 0..spokes {
                let v = g.add_vertex(VLabel(1));
                g.add_edge(hub, v, ELabel(7));
            }
            g
        })
        .collect()
}

#[test]
fn forced_spills_mine_identically_to_scratch() {
    // Seed budget of 2: once a list spills, only two seed embeddings
    // survive, so third-edge growth regularly comes back empty and the
    // miner must take the `Unverified` → scratch re-verification path.
    set_seed_cap_for_tests(2);
    let result = std::panic::catch_unwind(|| {
        let txns = hub_transactions(5, 30);
        let prop_cfg = FsgConfig::default()
            .with_support(Support::Count(4))
            .with_max_edges(3);
        let scratch_cfg = prop_cfg.clone().with_embedding_cap(0);
        let prop = mine(&txns, &prop_cfg).expect("propagated run");
        let scratch = mine(&txns, &scratch_cfg).expect("scratch run");
        assert!(
            prop.stats.embeddings_spilled > 0,
            "fixture must force spills, or this test proves nothing: {:?}",
            prop.stats
        );
        assert_eq!(
            scratch.stats.embeddings_spilled, 0,
            "cap 0 never stores lists"
        );
        assert_eq!(
            prop.patterns.len(),
            scratch.patterns.len(),
            "pattern counts diverged"
        );
        let mut scratch_classes: IsoClassMap<usize> = IsoClassMap::new();
        for p in &scratch.patterns {
            scratch_classes.insert(p.graph.clone(), p.support);
        }
        for p in &prop.patterns {
            assert_eq!(
                scratch_classes.get(&p.graph),
                Some(&p.support),
                "support diverged for a {}-edge pattern",
                p.graph.edge_count()
            );
        }
    });
    set_seed_cap_for_tests(0);
    if let Err(panic) = result {
        std::panic::resume_unwind(panic);
    }
}
