//! Regenerates Tables V and VI together (one shared tuned campaign).

#![forbid(unsafe_code)]

fn main() {
    let (quick, threads) = rats_experiments::artifacts::cli_opts();
    let (t5, t6) = rats_experiments::artifacts::table5_6(quick, threads);
    println!("{t5}");
    println!("{t6}");
}
