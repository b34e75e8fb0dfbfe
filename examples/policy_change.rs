//! Demonstrates the paper's §3.2 UNSAT mechanism: a censorship policy that
//! turns on mid-window makes the same path observe both "censored" and
//! "clean" — day CNFs around the flip stay solvable, the coarse window
//! containing the flip goes unsatisfiable.
//!
//! Run with: `cargo run --release --example policy_change`

use churnlab::bgp::{Granularity, TimeWindow};
use churnlab::core::analyze::SolveConfig;
use churnlab::core::instance::InstanceKey;
use churnlab::platform::AnomalyType;
use churnlab::topology::Asn;
use churnlab_oracle::cell;

fn main() {
    // One vantage point's path to a URL, measured daily over a month.
    let path = [Asn(64512), Asn(3320), Asn(4134), Asn(9808)];
    let censor_turns_on_at_day = 14u32;

    // One (URL × window × anomaly) cell of §3.1, solved as §3.2 reads it.
    let solve = |granularity: Granularity, window_of_day: u32| {
        let window = TimeWindow::of(window_of_day, granularity, 30);
        let key = InstanceKey { url_id: 0, anomaly: AnomalyType::Reset, window };
        let observations: Vec<(Vec<Asn>, bool)> = (0..30u32)
            .filter(|&day| TimeWindow::of(day, granularity, 30) == window)
            .map(|day| (path.to_vec(), day >= censor_turns_on_at_day))
            .collect();
        cell(key, &observations, SolveConfig::default().count_cap)
    };

    println!("policy flips ON at day {censor_turns_on_at_day}; same path measured daily\n");
    for day in [2u32, 13, 14, 20] {
        let out = solve(Granularity::Day, day);
        println!(
            "day {:>2} CNF: {} solutions ({:?} potential censors)",
            day,
            out.solvability,
            out.potential_censors.len()
        );
    }
    let out = solve(Granularity::Month, 0);
    println!(
        "\nmonth CNF spanning the flip: {} solutions — {}",
        out.solvability,
        if out.solvability == churnlab::sat::Solvability::Unsat {
            "unsatisfiable, exactly as §3.2 predicts for policy churn"
        } else {
            "unexpected!"
        }
    );
}
