//! `run_all [name …]` prints the named experiments of the reconstructed
//! evaluation, or all twelve in index order when none is named.
use qcheck_bench::experiments::ALL;

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    if let Some(bad) = names.iter().find(|n| ALL.iter().all(|(name, _)| name != n)) {
        let known: Vec<&str> = ALL.iter().map(|(name, _)| *name).collect();
        eprintln!(
            "unknown experiment '{bad}'\nusage: run_all [name …]   (no name = all)\nexperiments: {}",
            known.join(" ")
        );
        std::process::exit(2);
    }
    for (name, run) in ALL {
        if names.is_empty() || names.iter().any(|n| n == name) {
            run().print();
            println!();
        }
    }
}
