//! `tnet stats` — the §3 dataset description for a CSV or synthetic
//! dataset.

use crate::args::Args;
use crate::commands::load_transactions;
use crate::error::CliError;
use tnet_data::stats::dataset_stats;

pub fn run(args: &Args) -> Result<(), CliError> {
    args.ensure_known(&["input", "scale", "seed"])?;
    let txns = load_transactions(args)?;
    out!("{}", dataset_stats(&txns));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_on_synthetic() {
        let argv: Vec<String> = ["stats", "--scale", "0.01"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        run(&Args::parse(&argv).unwrap()).unwrap();
    }
}
