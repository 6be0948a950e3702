//! `tnet lanes` — dynamic-graph mining (§9 extensions): periodic lanes
//! and time-respecting repeated routes.

use crate::args::Args;
use crate::commands::load_transactions;
use crate::error::CliError;
use tnet_core::experiments::extensions::{run_paths, run_periodic};
use tnet_dynamic::paths::PathConfig;

pub fn run(args: &Args) -> Result<(), CliError> {
    args.ensure_known(&[
        "input",
        "scale",
        "seed",
        "max-sep",
        "max-len",
        "min-occurrences",
    ])?;
    let txns = load_transactions(args)?;
    outln!("{}", run_periodic(&txns));
    let cfg = PathConfig {
        min_sep: 0,
        max_sep: args.get_parsed_or("max-sep", 3)?,
        max_len: args.get_parsed_or("max-len", 2)?,
        min_occurrences: args.get_parsed_or("min-occurrences", 3)?,
        max_instances: 1_000_000,
    };
    outln!("{}", run_paths(&txns, &cfg));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_on_synthetic() {
        let argv: Vec<String> = ["lanes", "--scale", "0.02"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        run(&Args::parse(&argv).unwrap()).unwrap();
    }
}
