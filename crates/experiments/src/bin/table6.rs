//! Regenerates Table VI (average degradation from best).

#![forbid(unsafe_code)]

fn main() {
    let (quick, threads) = rats_experiments::artifacts::cli_opts();
    let (_, t6) = rats_experiments::artifacts::table5_6(quick, threads);
    print!("{t6}");
}
