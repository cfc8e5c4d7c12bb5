//! Binary wrapper for experiment `table4` — see the root README, \"Evaluation\".
fn main() {
    qcheck_bench::experiments::table4::run().print();
}
