//! Binary wrapper for experiment `fig1` — see the root README, \"Evaluation\".
fn main() {
    qcheck_bench::experiments::fig1::run().print();
}
