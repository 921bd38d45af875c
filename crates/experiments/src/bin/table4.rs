//! Regenerates Table IV (tuned parameters per family and cluster).

#![forbid(unsafe_code)]

fn main() {
    let (quick, threads, thin) = rats_experiments::artifacts::cli_opts_thin();
    print!(
        "{}",
        rats_experiments::artifacts::table4(quick, threads, thin)
    );
}
