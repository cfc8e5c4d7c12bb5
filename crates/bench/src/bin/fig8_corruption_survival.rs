//! Binary wrapper for experiment `fig8` — see the root README, \"Evaluation\".
fn main() {
    qcheck_bench::experiments::fig8::run().print();
}
