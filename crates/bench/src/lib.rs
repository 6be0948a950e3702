//! Shared helpers for the `bench_miners` benchmark binary.

pub mod harness;
