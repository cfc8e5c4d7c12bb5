//! Binary wrapper for experiment `table1` — see the root README, \"Evaluation\".
fn main() {
    qcheck_bench::experiments::table1::run().print();
}
