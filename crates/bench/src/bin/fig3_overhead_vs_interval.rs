//! Binary wrapper for experiment `fig3` — see the root README, \"Evaluation\".
fn main() {
    qcheck_bench::experiments::fig3::run().print();
}
