//! Regenerates the paper's Table III (DAG generation parameter grid).

#![forbid(unsafe_code)]

fn main() {
    let (quick, _) = rats_experiments::artifacts::cli_opts();
    print!("{}", rats_experiments::artifacts::table3(quick));
}
