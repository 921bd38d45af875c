//! Regenerates the paper's Table II (cluster characteristics).

#![forbid(unsafe_code)]

fn main() {
    print!("{}", rats_experiments::artifacts::table2());
}
