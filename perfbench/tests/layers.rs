//! Layer separation and repeatability of the benchmark's workloads, on
//! small sizes.
//!
//! * On `dct_structured` and `milp_windows`, every `rtrd.*` counter stays
//!   zero.
//! * On `rtrd_mix` and `dct_structured`, `milp.pivots` stays zero.
//! * Two runs with the same seed produce identical exact counts (and
//!   identical exact shares), which catches any workload that silently
//!   depends on a wall-clock limit.
//! * A traced run prints every per-layer metric and reproduces the timed
//!   run's exact counts.
//!
//! Everything runs in one test: the status board the counters come from
//! is process-wide.

use perfbench::{result_json, run, Config, Outcome, Size, WORKLOADS};

fn smoke(workload: &str, trace: bool) -> (Config, Outcome) {
    let config = Config {
        workload: workload.to_owned(),
        seed: 11,
        // rtrd_mix needs enough requests for its p90s (≥ 10 samples
        // beyond); the batch workloads stop after one pass.
        seconds: if workload == "rtrd_mix" { 4.0 } else { 0.01 },
        trace,
        size: Size::smoke(),
    };
    let outcome = run(&config).unwrap_or_else(|e| panic!("{workload}: {e}"));
    assert!(outcome.correct(), "{workload}: checks failed: {:?}", outcome.failures);
    (config, outcome)
}

#[test]
fn layers_stay_separated_and_counts_repeat() {
    for workload in WORKLOADS {
        let (config, first) = smoke(workload, false);
        let (_, second) = smoke(workload, false);
        let (traced_config, traced) = smoke(workload, true);

        assert!(!first.counts.is_empty(), "{workload}: no exact counts");
        assert_eq!(first.counts, second.counts, "{workload}: exact counts differ between runs");
        assert_eq!(first.counts, traced.counts, "{workload}: traced run did different work");
        for share in ["decided_share", "latency_vs_bound"] {
            assert_eq!(first.metrics[share], second.metrics[share], "{workload}: {share} moved");
        }

        if workload != "rtrd_mix" {
            for (name, value) in &first.counts {
                if name.starts_with("rtrd.") || name.starts_with("board.rtrd") {
                    assert_eq!(*value, 0, "{workload}: {name} moved on a batch workload");
                }
            }
        }
        if workload != "milp_windows" {
            assert_eq!(first.counts["milp.pivots"], 0, "{workload}: the ILP backend ran");
        }
        match workload {
            "rtrd_mix" => {
                assert_eq!(first.counts["board.lp_pivots"], 0, "rtrd_mix: the simplex ran");
                assert!(first.counts["rtrd.cache.hits"] > 0, "rtrd_mix: no cache hits");
                assert!(first.counts["rtrd.cache.misses"] > 0, "rtrd_mix: no cache misses");
            }
            "milp_windows" => assert!(first.counts["milp.pivots"] > 0, "milp_windows: no pivots"),
            _ => assert!(first.counts["structured.nodes"] > 0, "{workload}: no search nodes"),
        }

        let timed = result_json(&config, &first).expect("every end-to-end metric measured");
        assert!(timed.contains("\"setup_s\":{\"value\":"), "{timed}");
        let layered = result_json(&traced_config, &traced).expect("per-layer metrics render");
        for (name, _) in perfbench::PER_LAYER {
            assert!(layered.contains(&format!("\"{name}\":")), "{workload}: {name} missing");
        }
    }
}
