//! Binary wrapper for experiment `table2` — see the root README, \"Evaluation\".
fn main() {
    qcheck_bench::experiments::table2::run().print();
}
