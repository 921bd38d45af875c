//! Regenerates Figure 5 (minrho curves, irregular DAGs on grillon).

#![forbid(unsafe_code)]

fn main() {
    let (quick, threads) = rats_experiments::artifacts::cli_opts();
    print!("{}", rats_experiments::artifacts::fig5(quick, threads));
}
