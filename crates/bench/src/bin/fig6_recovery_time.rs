//! Binary wrapper for experiment `fig6` — see the root README, \"Evaluation\".
fn main() {
    qcheck_bench::experiments::fig6::run().print();
}
