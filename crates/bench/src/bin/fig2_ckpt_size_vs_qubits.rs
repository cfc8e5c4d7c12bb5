//! Binary wrapper for experiment `fig2` — see the root README, \"Evaluation\".
fn main() {
    qcheck_bench::experiments::fig2::run().print();
}
