//! Binary wrapper for experiment `fig7` — see the root README, \"Evaluation\".
fn main() {
    qcheck_bench::experiments::fig7::run().print();
}
