//! Regenerates every table and figure of the paper in one run.

#![forbid(unsafe_code)]

fn main() {
    let (quick, threads) = rats_experiments::artifacts::cli_opts();
    print!("{}", rats_experiments::artifacts::all(quick, threads));
}
