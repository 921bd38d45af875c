//! Regenerates Figure 4 (delta parameter surface, FFT DAGs on grillon).

#![forbid(unsafe_code)]

fn main() {
    let (quick, threads) = rats_experiments::artifacts::cli_opts();
    print!("{}", rats_experiments::artifacts::fig4(quick, threads));
}
