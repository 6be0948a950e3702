//! Seeded, cached input generation, outside every timed region.
//!
//! Each workload reads one CSV per `(scale, seed)`. The CSV is derived
//! from one synthetic dataset per scale (`tnet_data::synth` with the
//! paper-calibrated seed [`BASE_SYNTH_SEED`]): `--seed` renumbers every
//! transaction id through a seeded bijection and moves the calendar by
//! whole weeks. That leaves the OD graph, its partitions and every
//! window's content unchanged, so every seed asks for the same mining
//! work. It has to: FSG's cost on this generator swings from seconds to
//! minutes between synthesis seeds at paper scale (see README.md), which
//! would drown any change under test and can blow the run time limit.
//!
//! Synthesis is superlinear in scale (about 12 s at paper scale), so the
//! base dataset is generated once per scale and kept beside the variants
//! in the cache directory. Generation runs in a child process so its
//! allocations stay out of the workload's peak RSS.

use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use tnet_data::model::{Date, Transaction};

/// The synthesis seed of every workload's base dataset (the CLI default).
const BASE_SYNTH_SEED: u64 = 42;

/// Ids stay below 2^40, well inside what the wire protocol's JSON
/// numbers carry exactly.
const ID_MASK: u64 = (1 << 40) - 1;

pub enum Gen {
    /// Spawn this executable's `gen-csv` mode and wait for it.
    Child,
    InProcess,
}

fn base_path(cache: &Path, scale: f64) -> PathBuf {
    cache.join(format!("synth-scale{scale}-seed{BASE_SYNTH_SEED}.csv"))
}

fn csv_path(cache: &Path, scale: f64, seed: u64) -> PathBuf {
    cache.join(format!("input-scale{scale}-seed{seed}.csv"))
}

/// Returns the seed's CSV, generating what is missing.
pub fn ensure_csv(cache: &Path, scale: f64, seed: u64, how: Gen) -> Result<PathBuf, String> {
    let path = csv_path(cache, scale, seed);
    if path.exists() {
        return Ok(path);
    }
    match how {
        Gen::InProcess => generate(cache, scale, seed)?,
        Gen::Child => {
            let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
            let status = std::process::Command::new(exe)
                .arg("gen-csv")
                .arg("--cache")
                .arg(cache)
                .args(["--scale", &scale.to_string(), "--seed", &seed.to_string()])
                .status()
                .map_err(|e| format!("cannot spawn the input generator: {e}"))?;
            if !status.success() {
                return Err(format!("input generator failed: {status}"));
            }
        }
    }
    Ok(path)
}

/// Writes the base dataset (if absent) and the seed's variant.
fn generate(cache: &Path, scale: f64, seed: u64) -> Result<(), String> {
    std::fs::create_dir_all(cache).map_err(|e| format!("{}: {e}", cache.display()))?;
    let base = base_path(cache, scale);
    if !base.exists() {
        let cfg = tnet_data::synth::SynthConfig::scaled(scale).with_seed(BASE_SYNTH_SEED);
        let ds = tnet_data::synth::try_generate(&cfg).map_err(|e| format!("synth: {e}"))?;
        write_atomic(&base, &ds.transactions)?;
    }
    let mut txns = read(&base)?;
    perturb(&mut txns, seed);
    write_atomic(&csv_path(cache, scale, seed), &txns)
}

pub fn read(path: &Path) -> Result<Vec<Transaction>, String> {
    let file = File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    tnet_data::csv::read_csv(BufReader::new(file)).map_err(|e| format!("{}: {e}", path.display()))
}

fn write_atomic(path: &Path, txns: &[Transaction]) -> Result<(), String> {
    let tmp = path.with_extension(format!("tmp-{}", crate::unique_suffix()));
    let err = |e: std::io::Error| format!("{}: {e}", tmp.display());
    let mut w = BufWriter::new(File::create(&tmp).map_err(err)?);
    tnet_data::csv::write_csv(txns, &mut w).map_err(err)?;
    w.flush().map_err(err)?;
    drop(w);
    std::fs::rename(&tmp, path).map_err(|e| format!("{}: {e}", path.display()))
}

/// The seed's structure-preserving rewrite: ids through an odd-multiplier
/// bijection modulo 2^40, dates by `7 * (seed % 8)` days (whole weeks
/// keep weekdays and calendar-week boundaries in place).
fn perturb(txns: &mut [Transaction], seed: u64) {
    let add = crate::util::Rng::new(seed).next_u64();
    let shift = 7 * (seed % 8) as u32;
    for t in txns {
        t.id = t.id.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(add) & ID_MASK;
        t.req_pickup = Date(t.req_pickup.0 + shift);
        t.req_delivery = Date(t.req_delivery.0 + shift);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variants_keep_ids_unique_and_differ_by_seed() {
        let cfg = tnet_data::synth::SynthConfig::scaled(0.005).with_seed(BASE_SYNTH_SEED);
        let base = tnet_data::synth::generate(&cfg).transactions;
        let mut a = base.clone();
        let mut b = base.clone();
        perturb(&mut a, 1);
        perturb(&mut b, 2);
        let ids: std::collections::HashSet<u64> = a.iter().map(|t| t.id).collect();
        assert_eq!(ids.len(), base.len());
        assert!(a.iter().zip(&b).any(|(x, y)| x.id != y.id));
        let stats = |t: &[Transaction]| tnet_data::stats::dataset_stats(t).distinct_od_pairs;
        assert_eq!(stats(&a), stats(&base));
    }
}
