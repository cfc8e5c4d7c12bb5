//! Binary wrapper for experiment `table3` — see the root README, \"Evaluation\".
fn main() {
    qcheck_bench::experiments::table3::run().print();
}
