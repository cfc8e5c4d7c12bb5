//! Binary wrapper for experiment `fig5` — see the root README, \"Evaluation\".
fn main() {
    qcheck_bench::experiments::fig5::run().print();
}
