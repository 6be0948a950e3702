//! Experiment runners — one per table/figure of the paper.
//!
//! | id  | paper artifact | runner |
//! |-----|----------------|--------|
//! | E1  | §3 dataset description | [`crate::pipeline::Pipeline::dataset_stats`] |
//! | E2  | Figure 1 (SUBDUE/MDL)  | [`structural::run_fig1`] |
//! | E3  | §5.1 runtime scaling   | [`structural::run_subdue_scaling`] |
//! | E4  | §5.1 Size-principle find | [`structural::run_size_principle`] |
//! | E5  | §5.2.2 partition sweep | [`structural::run_partition_sweep`] |
//! | E6  | Figure 2 (BF hub)      | [`structural::run_shape_mining`] |
//! | E7  | Figure 3 (DF chain)    | [`structural::run_shape_mining`] |
//! | E8  | footnote 2 recall      | [`structural::run_recall`] |
//! | E9  | Table 2                | [`temporal::run_table2`] |
//! | E10 | Table 3 + Figure 4     | [`temporal::run_fig4`] |
//! | E11 | §6.1 memory failure    | [`temporal::run_fsg_oom`] |
//! | E12 | §7.1 association rules | [`conventional::run_assoc`] |
//! | E13 | §7.2 classification    | [`conventional::run_classify`] |
//! | E14 | Figure 5 (cluster sizes) | [`conventional::run_cluster`] |
//! | E15 | Figure 6 (cluster means) | [`conventional::run_cluster`] |
//!
//! Extensions past the paper's evaluation (its §9 challenge list) live in
//! [`extensions`] (E17–E19).

pub mod conventional;
pub mod extensions;
pub mod structural;
pub mod temporal;
