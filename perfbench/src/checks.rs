//! Output checks shared by the workloads.

use rtr_core::{validate_solution, Architecture, Exploration, IterationResult};
use rtr_graph::TaskGraph;
use std::fmt::Write as _;

/// Checks a finished exploration: a best solution exists, passes
/// `validate_solution`, and `rtr-sim` re-simulation reproduces its
/// latency exactly. Returns a description of the first failure.
pub fn check_exploration(
    graph: &TaskGraph,
    arch: &Architecture,
    exploration: &Exploration,
) -> Result<(), String> {
    let (Some(best), Some(latency)) = (&exploration.best, exploration.best_latency) else {
        return Err("exploration found no solution".to_owned());
    };
    let violations = validate_solution(graph, arch, best);
    if !violations.is_empty() {
        return Err(format!("best solution violates {} constraint(s)", violations.len()));
    }
    let report = rtr_sim::simulate(graph, arch, best).map_err(|e| format!("simulation: {e}"))?;
    // The simulator and the analytic model add the same latencies in a
    // different order, so fractional latencies may differ in the last bit.
    let (simulated, analytic) = (report.total_latency.as_ns(), latency.as_ns());
    if (simulated - analytic).abs() > 1e-9 * analytic.abs().max(1.0) {
        return Err(format!(
            "simulated latency {} ns differs from best_latency {} ns",
            report.total_latency.as_ns(),
            latency.as_ns()
        ));
    }
    if !exploration.degradation.is_clean() {
        return Err(format!("degraded run: {}", exploration.degradation.render()));
    }
    Ok(())
}

/// Windows of an exploration, and how many were decided (`Feasible` or
/// `Infeasible` rather than `LimitReached`).
pub fn window_counts(exploration: &Exploration) -> (u64, u64) {
    let decided = exploration
        .records
        .iter()
        .filter(|r| !matches!(r.result, IterationResult::LimitReached))
        .count();
    (exploration.records.len() as u64, decided as u64)
}

/// `best_latency ÷ MinLatency(N_min^l)`: how far the result sits above the
/// instance's critical-path lower bound at the smallest partition count.
pub fn latency_ratio(graph: &TaskGraph, arch: &Architecture, exploration: &Exploration) -> f64 {
    let bound = rtr_core::min_latency(graph, arch, exploration.n_min_lower).as_ns();
    match exploration.best_latency {
        Some(latency) if bound > 0.0 => latency.as_ns() / bound,
        _ => f64::NAN,
    }
}

/// The `result` object `rtrd` serves for an exploration, rendered
/// independently from the service's own code so the two can be compared
/// byte for byte.
pub fn expected_result(exploration: &Exploration, graph: &TaskGraph) -> String {
    let mut out = String::from("{");
    match (&exploration.best, exploration.best_latency) {
        (Some(best), Some(latency)) => {
            let _ = write!(
                out,
                "\"feasible\":true,\"best_latency_ns\":{},\"solution\":\"{}\"",
                latency.as_ns(),
                rtrd::jobs::escape_json(&best.to_text(graph))
            );
        }
        _ => out.push_str("\"feasible\":false,\"best_latency_ns\":null,\"solution\":null"),
    }
    let _ = write!(
        out,
        ",\"n_min_lower\":{},\"n_min_upper\":{},\"windows\":{},\"csv\":\"{}\"",
        exploration.n_min_lower,
        exploration.n_min_upper,
        exploration.records.len(),
        rtrd::jobs::escape_json(&exploration.to_csv())
    );
    let d = &exploration.degradation;
    let _ = write!(
        out,
        ",\"clean\":{},\"cancelled\":{},\"degradation\":\"{}\"}}",
        d.is_clean(),
        d.cancelled,
        rtrd::jobs::escape_json(&d.render())
    );
    out
}
