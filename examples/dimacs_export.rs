//! Exports a real tomography instance to DIMACS CNF and re-imports it —
//! the interop path for running churnlab instances through an actual
//! off-the-shelf SAT solver (MiniSat, kissat, …), exactly as the paper
//! did.
//!
//! Run with: `cargo run --release --example dimacs_export`

use churnlab::sat::{census, Cnf};
use churnlab::topology::Asn;
use churnlab_oracle::formulate;

fn main() {
    // The paper's worked example shape: one (URL × window × anomaly)
    // cell, a censored path X→Y→Z plus clean observations from churned
    // paths, formulated as §3.1 states it.
    let inst = formulate(&[
        (vec![Asn(701), Asn(1299), Asn(4134)], true), // X→Y→Z censored
        (vec![Asn(701), Asn(1299), Asn(2914)], false), // clean via another egress
        (vec![Asn(6453), Asn(1299), Asn(2914)], false),
    ]);

    let dimacs = inst.cnf.to_dimacs();
    println!("-- variable map --");
    for (i, asn) in inst.asns.iter().enumerate() {
        println!("v{} = {}", i + 1, asn);
    }
    println!("\n-- DIMACS --\n{dimacs}");

    // Round-trip and solve.
    let back = Cnf::from_dimacs(&dimacs).expect("own output parses");
    assert_eq!(back, inst.cnf);
    let result = census(&back, 64);
    println!("solutions: {:?}", result.count);
    if let Some(model) = &result.unique_model {
        let censors: Vec<String> = model
            .iter()
            .enumerate()
            .filter(|(_, t)| **t)
            .map(|(i, _)| inst.asns[i].to_string())
            .collect();
        println!("unique model names the censor: {}", censors.join(", "));
    }
    let path = std::env::temp_dir().join("churnlab_instance.cnf");
    std::fs::write(&path, &dimacs).expect("write dimacs");
    println!("\nwrote {} (feed it to any DIMACS solver)", path.display());
}
