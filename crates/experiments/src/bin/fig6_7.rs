//! Regenerates Figures 6 and 7 (tuned RATS vs HCPA on grillon).

#![forbid(unsafe_code)]

fn main() {
    let (quick, threads) = rats_experiments::artifacts::cli_opts();
    print!("{}", rats_experiments::artifacts::fig6_7(quick, threads));
}
