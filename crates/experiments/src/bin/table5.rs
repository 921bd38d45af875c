//! Regenerates Table V (pairwise comparison of the tuned algorithms).

#![forbid(unsafe_code)]

fn main() {
    let (quick, threads) = rats_experiments::artifacts::cli_opts();
    let (t5, _) = rats_experiments::artifacts::table5_6(quick, threads);
    print!("{t5}");
}
