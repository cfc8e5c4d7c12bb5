//! Binary wrapper for experiment `fig4` — see the root README, \"Evaluation\".
fn main() {
    qcheck_bench::experiments::fig4::run().print();
}
