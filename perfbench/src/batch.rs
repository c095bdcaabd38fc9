//! The batch workloads: `dct_structured` and `milp_windows`.
//!
//! Both explore a seeded instance set with threads = 1 and deterministic
//! per-window budgets (structured nodes or simplex pivots), so every
//! outcome and work count repeats exactly and only the times move.
//!
//! A run has three parts:
//!
//! 1. pass 0 (untimed) explores every instance once with a final
//!    checkpoint, checks every result, and fixes the reference CSVs;
//! 2. timed passes repeat, until `--seconds` have passed (at least
//!    [`Size::min_passes`]), an exploration and a checkpoint replay of
//!    every instance; every pass must reproduce pass 0 byte for byte.
//!
//! `explore_s` sums each window's fastest solve over the passes. The batch
//! workloads have no service, so `hit_*` and `miss_*` are the same split
//! one layer down, per window: its fastest answer from the checkpoint
//! (hit, the path `rtrd` serves cache hits with, minus HTTP and disk) or
//! its fastest solve by the backend (miss).

use crate::checks::{check_exploration, latency_ratio, window_counts};
use crate::spans::{Recorder, SpanId};
use crate::stats::{beyond, geomean, median, ms, quantile};
use crate::{draw_from_pool, mix, relabeled_dct, window_timer, Config, Outcome, Size};
use rtr_core::checkpoint::{Checkpoint, CheckpointPolicy};
use rtr_core::model::IlpModel;
use rtr_core::{
    Architecture, Backend, Exploration, ExploreParams, SearchLimits, TemporalPartitioner,
};
use rtr_graph::{Area, Latency, TaskGraph};
use rtr_trace::MemorySink;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which batch workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The DCT under the paper's Table 3 and Table 5 settings.
    Dct,
    /// Seeded random graphs through the ILP backend.
    Milp,
}

/// One generated instance.
pub struct Instance {
    /// Instance label (for failure messages and span ids).
    pub label: String,
    /// The task graph.
    pub graph: TaskGraph,
    /// The device.
    pub arch: Architecture,
    /// Exploration parameters.
    pub params: ExploreParams,
}

/// Generates the seeded instance set of a batch workload.
pub fn instances(kind: Kind, seed: u64, size: &Size) -> Vec<Instance> {
    match kind {
        Kind::Dct => dct_instances(seed, size),
        Kind::Milp => milp_instances(seed, size),
    }
}

fn dct_instances(seed: u64, size: &Size) -> Vec<Instance> {
    // (R_max, δ ns, α): Table 3 and Table 5 of the paper; C_T = 1 µs,
    // M_max = 512, γ = 1 throughout.
    const SETTINGS: [(u64, f64, u32); 2] = [(576, 200.0, 0), (1024, 800.0, 1)];
    let mut out = Vec::new();
    for variant in draw_from_pool(seed, size.dct_pool, size.dct_draw) {
        let graph = relabeled_dct(variant);
        for &(r_max, delta_ns, alpha) in &SETTINGS {
            out.push(Instance {
                label: format!("dct{variant}_rmax{r_max}"),
                graph: graph.clone(),
                arch: Architecture::new(Area::new(r_max), 512, Latency::from_us(1.0)),
                params: ExploreParams {
                    delta: Latency::from_ns(delta_ns),
                    alpha,
                    gamma: 1,
                    limits: SearchLimits { node_limit: size.dct_node_limit, time_limit: None },
                    time_budget: None,
                    ..ExploreParams::default()
                },
            });
        }
    }
    out
}

/// Random graphs differ in branch-and-bound cost by more than an order of
/// magnitude, so independent draws would move `explore_s` across seeds by
/// more than any bound; the seed draws most of one fixed pool instead.
fn milp_instances(seed: u64, size: &Size) -> Vec<Instance> {
    let shape = rtr_workloads::random::RandomGraphParams {
        tasks: size.milp_tasks,
        ..rtr_workloads::random::RandomGraphParams::default()
    };
    draw_from_pool(seed, size.milp_pool, size.milp_draw)
        .into_iter()
        .map(|g| {
            let graph = rtr_workloads::random::random_layered(mix(0x706f_6f6c, g), &shape);
            // Half the graph's total minimum area, but never less than the
            // largest task needs.
            let largest =
                graph.tasks().iter().map(|t| t.min_area_point().area().units()).max().unwrap_or(1);
            let cap = (graph.total_min_area().units() / 2).max(largest);
            let mut params = ExploreParams {
                delta: Latency::from_ns(50.0),
                gamma: 1,
                backend: Backend::Milp,
                time_budget: None,
                ..ExploreParams::default()
            };
            params.milp_options.pivot_limit = size.milp_pivot_limit;
            params.milp_options.time_limit = None;
            Instance {
                label: format!("pool{g}"),
                graph,
                arch: Architecture::new(Area::new(cap), 64, Latency::from_us(1.0)),
                params,
            }
        })
        .collect()
}

fn partitioners(set: &[Instance]) -> Result<Vec<TemporalPartitioner<'_>>, String> {
    set.iter()
        .map(|i| {
            TemporalPartitioner::new(&i.graph, &i.arch, i.params.clone())
                .map_err(|e| format!("{}: {e}", i.label))
        })
        .collect()
}

/// Runs a batch workload.
///
/// # Errors
///
/// Instance generation or checkpoint-directory failures.
pub fn run(config: &Config, kind: Kind) -> Result<Outcome, String> {
    let rec = Recorder::new(config.trace);
    let root = rec.open("run", config.seed, None);
    let mut out = Outcome::default();
    let board = rtr_trace::status::board();
    let board_before = board.snapshot();

    // Set-up: instance generation and `TemporalPartitioner::new`. The
    // fastest of a few repeats is the first of the slots `setup_s` is the
    // median of; each timed pass adds one more.
    let setup_span = rec.open("setup", config.seed, root);
    let mut fastest = f64::INFINITY;
    for _ in 0..config.size.batch_setups.max(1) {
        fastest = fastest.min(setup_once(kind, config)?);
    }
    let mut setup_times = vec![fastest];
    let set = instances(kind, config.seed, &config.size);
    let parts = partitioners(&set)?;
    rec.close(setup_span);

    // Pass 0: reference explorations with a final checkpoint each.
    let dir = crate::out_dir().join(format!("ckpt-{}-{}", std::process::id(), config.workload));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let pass0 = rec.open("pass0", 0, root);
    let mut reference: Vec<Exploration> = Vec::with_capacity(parts.len());
    let mut checkpoints: Vec<Option<Checkpoint>> = Vec::with_capacity(parts.len());
    for (i, (inst, part)) in set.iter().zip(&parts).enumerate() {
        let path = dir.join(format!("{i}.ckpt"));
        // One write at the end: the interval outlasts any exploration.
        let policy = CheckpointPolicy::new(&path, Duration::from_secs(86_400));
        out.attempted += 1;
        let explored = rec.time("core.explore_checkpointed", i as u64, pass0, || {
            part.explore_resumable(1, Some(&policy), None, |_| {})
        });
        let ex = match explored {
            Ok(ex) => ex,
            Err(e) => return Err(format!("{}: {e}", inst.label)),
        };
        if let Err(e) = rec.time("check.output", i as u64, pass0, || {
            check_exploration(&inst.graph, &inst.arch, &ex)
        }) {
            out.fail(format!("{}: {e}", inst.label));
        }
        checkpoints.push(Checkpoint::load(&path).ok());
        reference.push(ex);
    }
    rec.close(pass0);
    let _ = std::fs::remove_dir_all(&dir);

    // Exact outcome metrics, from pass 0.
    let (mut windows, mut decided) = (0u64, 0u64);
    let mut ratios = Vec::new();
    for (inst, ex) in set.iter().zip(&reference) {
        let (w, d) = window_counts(ex);
        windows += w;
        decided += d;
        let ratio = latency_ratio(&inst.graph, &inst.arch, ex);
        if ratio.is_finite() {
            ratios.push(ratio);
        }
    }
    out.count("core.windows", windows);
    out.count("core.decided", decided);
    let structured = reference.iter().fold(
        rtr_core::SearchStats { exhausted: true, ..Default::default() },
        |mut acc, ex| {
            acc.absorb(&ex.structured_totals());
            acc
        },
    );
    let milp = reference.iter().fold(rtr_milp::SolveStats::default(), |mut acc, ex| {
        acc.absorb(&ex.milp_totals());
        acc
    });
    out.count("structured.nodes", structured.nodes);
    out.count("structured.dominance_prunes", structured.dominance_prunes);
    out.count("structured.latency_prunes", structured.latency_prunes);
    out.count("milp.nodes", milp.nodes as u64);
    out.count("milp.pivots", milp.simplex_iterations as u64);
    out.count("milp.refactorizations", milp.refactorizations as u64);

    if config.trace {
        traced(&rec, root, &set, &parts, &reference, &mut out);
    } else {
        out.metrics.insert("decided_share", decided as f64 / windows.max(1) as f64);
        out.metrics.insert("latency_vs_bound", geomean(&ratios));
        timed(config, kind, &parts, &reference, &checkpoints, &mut setup_times, &mut out)?;
        out.metrics.insert("setup_s", median(&setup_times));
    }

    // Layer-separation evidence: the service counters of the process-wide
    // status board must not move on a batch workload.
    let board_after = board.snapshot();
    out.count("rtrd.cache.hits", board_after.rtrd_cache_hits - board_before.rtrd_cache_hits);
    out.count("rtrd.cache.misses", board_after.rtrd_cache_misses - board_before.rtrd_cache_misses);
    out.count("rtrd.jobs.rejected", board_after.rtrd_rejected - board_before.rtrd_rejected);
    out.count("board.rtrd_submitted", board_after.rtrd_submitted - board_before.rtrd_submitted);
    rec.close(root);
    if config.trace {
        crate::finish_trace(config, &rec, &mut out);
    }
    Ok(out)
}

/// The timed passes of a `--trace 0` run.
///
/// The host's speed swings by up to 2× in phases of seconds to minutes,
/// yet the fastest of many short repeats barely moves (a 35 ms
/// exploration's minimum per 5 s stayed within ±2 % while its median
/// moved 60 %). So every window is timed once per pass and keeps its
/// fastest time, the min-of-k rule of ROADMAP item 1: `explore_s` sums the
/// windows' fastest solves, and the hit and miss percentiles are taken
/// over the windows' fastest replays and solves. Each pass explores every
/// instance, replays it from its checkpoint, and repeats the set-up once
/// per instance, so all three see the same mix of host phases; `setup_s`
/// is the median over passes of each pass's fastest set-up.
fn timed(
    config: &Config,
    kind: Kind,
    parts: &[TemporalPartitioner<'_>],
    reference: &[Exploration],
    checkpoints: &[Option<Checkpoint>],
    setup_times: &mut Vec<f64>,
    out: &mut Outcome,
) -> Result<(), String> {
    let expected: Vec<String> = reference.iter().map(Exploration::to_csv).collect();
    let (mut solve_ms, mut replay_ms) =
        (vec![Vec::new(); parts.len()], vec![Vec::new(); parts.len()]);
    let mut passes = 0;
    let deadline = Instant::now() + Duration::from_secs_f64(config.seconds);
    while passes < config.size.min_passes.max(1) || Instant::now() < deadline {
        passes += 1;
        let mut fastest_setup = f64::INFINITY;
        for (i, part) in parts.iter().enumerate() {
            fastest_setup = fastest_setup.min(setup_once(kind, config)?);
            out.attempted += 1;
            let start = Instant::now();
            let explored = part.explore_with_observer(window_timer(start, &mut solve_ms[i]));
            match explored {
                Ok(ex) if ex.to_csv() == expected[i] => {}
                Ok(_) => out.fail(format!("instance {i}: a timed pass diverged from pass 0")),
                Err(e) => out.fail(format!("instance {i}: {e}")),
            }
            let Some(checkpoint) = &checkpoints[i] else {
                out.fail(format!("instance {i}: checkpoint missing"));
                continue;
            };
            // A replay takes microseconds per window, so it repeats within
            // the pass too: one pass alone sees too few fast moments.
            for _ in 0..REPLAYS_PER_PASS {
                out.attempted += 1;
                let start = Instant::now();
                let replayed = part.explore_resumable(
                    1,
                    None,
                    Some(checkpoint),
                    window_timer(start, &mut replay_ms[i]),
                );
                match replayed {
                    Ok(ex) if ex.to_csv() == expected[i] => {}
                    Ok(_) => out.fail(format!("instance {i}: replay diverged from pass 0")),
                    Err(e) => out.fail(format!("instance {i}: replay: {e}")),
                }
            }
        }
        setup_times.push(fastest_setup);
    }
    let misses: Vec<f64> = solve_ms.concat();
    let hits: Vec<f64> = replay_ms.concat();
    out.metrics.insert("explore_s", misses.iter().sum::<f64>() / 1e3);
    out.metrics.insert("miss_p50_ms", quantile(&misses, 0.5));
    out.metrics.insert("miss_p90_ms", quantile(&misses, 0.9));
    out.metrics.insert("hit_p50_ms", quantile(&hits, 0.5));
    out.metrics.insert("hit_p90_ms", quantile(&hits, 0.9));
    for (name, samples) in [("hit", &hits), ("miss", &misses)] {
        if beyond(samples.len(), 0.9) < config.size.min_tail {
            return Err(format!("only {} {name} windows: too few for a p90", samples.len()));
        }
    }
    out.host.push(("timed_passes", passes.to_string()));
    out.host.push(("windows", misses.len().to_string()));
    Ok(())
}

/// Checkpoint replays of each instance per timed pass.
const REPLAYS_PER_PASS: usize = 10;

/// Times one set-up: instance generation and `TemporalPartitioner::new`.
fn setup_once(kind: Kind, config: &Config) -> Result<f64, String> {
    let t = Instant::now();
    let set = instances(kind, config.seed, &config.size);
    let parts = partitioners(&set)?;
    let elapsed = t.elapsed().as_secs_f64();
    drop(parts);
    Ok(elapsed)
}

/// The per-layer probes of a `--trace 1` run.
fn traced(
    rec: &Recorder,
    root: Option<SpanId>,
    set: &[Instance],
    parts: &[TemporalPartitioner<'_>],
    reference: &[Exploration],
    out: &mut Outcome,
) {
    // Untraced and traced explorations, interleaved per instance so slow
    // drift of the host's speed cancels out of the overhead ratio.
    let sink = Arc::new(MemorySink::new());
    let pass = rec.open("pass.interleaved", 0, root);
    let (mut plain, mut traced, mut loop_self) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    for (i, part) in parts.iter().enumerate() {
        out.attempted += 2;
        let t = Instant::now();
        let ex = rec.time("core.explore", i as u64, pass, || part.explore());
        let elapsed = t.elapsed();
        plain += elapsed;
        if let Ok(ex) = &ex {
            let solving: Duration = ex.records.iter().map(|r| r.elapsed).sum();
            loop_self += elapsed.saturating_sub(solving);
        }
        rtr_trace::install(sink.clone());
        let t = Instant::now();
        let ex_traced = rec.time("core.explore_traced", i as u64, pass, || part.explore());
        traced += t.elapsed();
        rtr_trace::uninstall();
        for (ex, what) in [(ex, "untraced"), (ex_traced, "traced")] {
            match ex {
                Ok(ex) if ex.to_csv() == reference[i].to_csv() => {}
                Ok(_) => out.fail(format!("{}: {what} run diverged from pass 0", set[i].label)),
                Err(e) => out.fail(format!("{}: {e}", set[i].label)),
            }
        }
    }
    rec.close(pass);
    out.metrics.insert("trace.overhead_share", traced.as_secs_f64() / plain.as_secs_f64() - 1.0);
    out.metrics.insert("core.loop_self_ms", ms(loop_self));
    let nodes = out.counts["structured.nodes"];
    if nodes > 0 {
        out.metrics.insert("structured.ns_per_node", plain.as_secs_f64() * 1e9 / nodes as f64);
    }
    let milp = reference.iter().fold(rtr_milp::SolveStats::default(), |mut acc, ex| {
        acc.absorb(&ex.milp_totals());
        acc
    });
    if milp.nodes > 0 {
        let lp = milp.lp_time.as_secs_f64();
        out.metrics
            .insert("milp.refactor_per_node", milp.refactorizations as f64 / milp.nodes as f64);
        out.metrics.insert("milp.us_per_pivot", lp * 1e6 / milp.simplex_iterations.max(1) as f64);
        out.metrics.insert("milp.lp_share", lp / plain.as_secs_f64());
        out.metrics.insert(
            "milp.warm_share",
            milp.warm_starts as f64 / (milp.warm_starts + milp.cold_starts).max(1) as f64,
        );
    }
    let report = rtr_trace::RunReport::from_events(sink.snapshot().iter());
    out.report.push(format!(
        "rtr-trace counters (traced pass): {}",
        report
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with("structured.") || k.starts_with("milp."))
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));

    // Every recorded window solved again on its own.
    let probe = rec.open("probe.windows", 0, root);
    let mut window_ms = Vec::new();
    for (i, (part, ex)) in parts.iter().zip(reference).enumerate() {
        for r in &ex.records {
            let t = Instant::now();
            let solved = rec.time("core.solve_window", i as u64, probe, || {
                part.solve_window(r.n, r.d_max, r.d_min)
            });
            window_ms.push(ms(t.elapsed()));
            if let Err(e) = solved {
                out.fail(format!("{}: solve_window: {e}", set[i].label));
            }
        }
    }
    rec.close(probe);
    out.metrics.insert("core.window_p50_ms", quantile(&window_ms, 0.5));
    out.metrics.insert("core.window_p90_ms", quantile(&window_ms, 0.9));

    // The ILP layer on its own: model build, then one MIP solve per
    // recorded window under the workload's options.
    if set.iter().any(|i| i.params.backend == Backend::Milp) {
        let probe = rec.open("probe.milp", 0, root);
        let (mut build_ms, mut solve_ms) = (Vec::new(), Vec::new());
        for (i, (inst, ex)) in set.iter().zip(reference).enumerate() {
            for r in &ex.records {
                let t = Instant::now();
                let built = rec.time("milp.build", i as u64, probe, || {
                    IlpModel::build(
                        &inst.graph,
                        &inst.arch,
                        r.n,
                        r.d_max,
                        r.d_min,
                        &inst.params.model_options,
                    )
                });
                build_ms.push(ms(t.elapsed()));
                let ilp = match built {
                    Ok(ilp) => ilp,
                    Err(e) => {
                        out.fail(format!("{}: build: {e}", inst.label));
                        continue;
                    }
                };
                let t = Instant::now();
                let solved = rec.time("milp.solve", i as u64, probe, || {
                    rtr_milp::solve_mip(ilp.model(), &inst.params.milp_options)
                });
                solve_ms.push(ms(t.elapsed()));
                if let Err(e) = solved {
                    out.fail(format!("{}: solve_mip: {e}", inst.label));
                }
            }
        }
        rec.close(probe);
        out.metrics.insert("milp.build_ms", median(&build_ms));
        out.metrics.insert("milp.solve_p50_ms", quantile(&solve_ms, 0.5));
        out.metrics.insert("milp.solve_p90_ms", quantile(&solve_ms, 0.9));
    }
}
