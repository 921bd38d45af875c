//! Regenerates Figures 2 and 3 (naive-parameter RATS vs HCPA on grillon).

#![forbid(unsafe_code)]

fn main() {
    let (quick, threads) = rats_experiments::artifacts::cli_opts();
    print!("{}", rats_experiments::artifacts::fig2_3(quick, threads));
}
