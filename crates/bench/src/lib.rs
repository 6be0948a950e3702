//! Shared helpers for the benchmark binaries (`bench_miners`,
//! `bench_serve`).

pub mod harness;
