//! `tnet gen` — generate a synthetic dataset and write it as CSV.

use crate::args::Args;
use crate::commands::fraction_arg;
use crate::error::CliError;
use std::fs::File;
use std::io::BufWriter;
use tnet_data::csv::write_csv;
use tnet_data::synth::{generate, SynthConfig};

pub fn run(args: &Args) -> Result<(), CliError> {
    args.ensure_known(&["scale", "seed", "out"])?;
    let scale = fraction_arg(args, "scale", 0.02)?;
    let seed: u64 = args.get_parsed_or("seed", 42)?;
    let out = args.get_or("out", "tnet-data.csv").to_string();
    let cfg = SynthConfig::scaled(scale).with_seed(seed);
    let ds = generate(&cfg);
    let file =
        File::create(&out).map_err(|e| CliError::Runtime(format!("cannot write {out}: {e}")))?;
    write_csv(&ds.transactions, BufWriter::new(file))
        .map_err(|e| CliError::Runtime(format!("write failed: {e}")))?;
    outln!(
        "wrote {} transactions to {out} (scale {scale}, seed {seed})",
        ds.transactions.len()
    );
    outln!(
        "planted structures: {} hub lanes, {} chain lanes",
        ds.planted_hub_pairs.len(),
        ds.planted_chain_pairs.len()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_csv_roundtrippable() {
        let dir = std::env::temp_dir().join("tnet_cli_gen_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.csv");
        let argv: Vec<String> = ["gen", "--scale", "0.01", "--out", path.to_str().unwrap()]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let args = Args::parse(&argv).unwrap();
        run(&args).unwrap();
        let back =
            tnet_data::csv::read_csv(std::io::BufReader::new(std::fs::File::open(&path).unwrap()))
                .unwrap();
        assert!(!back.is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rejects_unknown_flag() {
        let argv: Vec<String> = ["gen", "--bogus", "1"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let args = Args::parse(&argv).unwrap();
        assert!(run(&args).is_err());
    }
}
