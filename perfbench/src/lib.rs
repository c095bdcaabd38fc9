//! End-to-end and per-layer benchmark of the rtrpart workspace.
//!
//! Three workloads, each driving its own group of layers (see
//! `perfbench/README.md` for why each exists and what it bypasses):
//!
//! * `dct_structured` — the paper's 4×4 DCT through the exploration loop
//!   and the structured DFS ([`batch`]).
//! * `milp_windows` — seeded random graphs through the faithful ILP
//!   backend ([`batch`]).
//! * `rtrd_mix` — open-loop clients against an in-process `rtrd::Server`
//!   ([`service`]).
//!
//! A timed run (`--trace 0`) reports the end-to-end metrics; a traced run
//! (`--trace 1`) records spans around the benchmark's own calls into each
//! layer and reports the per-layer metrics.

pub mod batch;
pub mod checks;
pub mod http;
pub mod service;
pub mod spans;
pub mod stats;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

/// The workloads, by command-line name.
pub const WORKLOADS: [&str; 3] = ["dct_structured", "milp_windows", "rtrd_mix"];

/// End-to-end metrics (name, unit), reported by every timed run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("explore_s", "s"),
    ("decided_share", "share"),
    ("latency_vs_bound", "ratio"),
    ("hit_p50_ms", "ms"),
    ("hit_p90_ms", "ms"),
    ("miss_p50_ms", "ms"),
    ("miss_p90_ms", "ms"),
    ("ok_share", "share"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (name, unit), reported by every traced run. A layer a
/// workload does not exercise reads zero.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("rtrd.http.status_rtt_ms", "ms"),
    ("rtrd.jobs.hit_ms", "ms"),
    ("rtrd.http.submit_ms", "ms"),
    ("rtrd.http.polls_per_job", "count"),
    ("rtrd.http.not_ready_share", "share"),
    ("rtrd.request.parse_us", "us"),
    ("rtrd.jobs.queue_wait_p50_ms", "ms"),
    ("rtrd.jobs.queue_wait_p90_ms", "ms"),
    ("rtrd.jobs.rejected", "count"),
    ("rtrd.worker.busy_share", "share"),
    ("rtrd.cache.load_us", "us"),
    ("rtrd.cache.replay_ms", "ms"),
    ("rtrd.cache.store_ms", "ms"),
    ("rtrd.cache.hits", "count"),
    ("rtrd.cache.misses", "count"),
    ("rtrd.solve_ms", "ms"),
    ("core.checkpoint.writes_per_miss", "count"),
    ("gen.late_p90_ms", "ms"),
    ("structured.nodes", "count"),
    ("structured.dominance_prunes", "count"),
    ("structured.latency_prunes", "count"),
    ("structured.ns_per_node", "ns"),
    ("core.windows", "count"),
    ("core.decided", "count"),
    ("core.window_p50_ms", "ms"),
    ("core.window_p90_ms", "ms"),
    ("core.loop_self_ms", "ms"),
    ("milp.nodes", "count"),
    ("milp.pivots", "count"),
    ("milp.refactorizations", "count"),
    ("milp.refactor_per_node", "ratio"),
    ("milp.us_per_pivot", "us"),
    ("milp.lp_share", "share"),
    ("milp.warm_share", "share"),
    ("milp.build_ms", "ms"),
    ("milp.solve_p50_ms", "ms"),
    ("milp.solve_p90_ms", "ms"),
    ("trace.overhead_share", "share"),
    ("trace.coverage", "share"),
];

/// Workload sizes. [`Size::full`] is what the command runs; the smaller
/// [`Size::smoke`] keeps the benchmark's own tests fast. Every budget is a
/// deterministic work count (nodes, pivots), never a wall-clock limit.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Size of the fixed pool of isomorphic DCT relabelings.
    pub dct_pool: usize,
    /// Pool relabelings the seed draws for one run (each runs under both
    /// paper settings).
    pub dct_draw: usize,
    /// Per-window structured node budget of `dct_structured`.
    pub dct_node_limit: u64,
    /// Size of the fixed `milp_windows` graph pool.
    pub milp_pool: usize,
    /// Pool graphs the seed draws for one run.
    pub milp_draw: usize,
    /// Tasks per `milp_windows` graph.
    pub milp_tasks: usize,
    /// Per-window simplex pivot budget of `milp_windows`.
    pub milp_pivot_limit: usize,
    /// Timed passes at least, however long they take.
    pub min_passes: usize,
    /// Samples a p90 needs beyond it; a run with fewer fails.
    pub min_tail: usize,
    /// Set-ups of the batch workloads before pass 0 (the fastest counts).
    pub batch_setups: usize,
    /// Set-ups of `rtrd_mix` per replay (the last takes the traffic).
    pub rtrd_setups: usize,
    /// Times a timed `rtrd_mix` run plays its schedule.
    pub rtrd_replays: usize,
    /// Hot-set instances warmed during `rtrd_mix` set-up.
    pub rtrd_hot: usize,
    /// `rtrd_mix` arrival rate in requests per second.
    pub rtrd_rate: f64,
    /// Per-window node budget of every `rtrd_mix` job.
    pub rtrd_node_limit: u64,
}

impl Size {
    /// The benchmark's sizes.
    pub fn full() -> Size {
        Size {
            dct_pool: 4,
            dct_draw: 3,
            dct_node_limit: 200_000,
            milp_pool: 32,
            milp_draw: 32,
            milp_tasks: 10,
            milp_pivot_limit: 10_000,
            min_passes: 3,
            min_tail: 10,
            batch_setups: 10,
            rtrd_setups: 5,
            rtrd_replays: 4,
            rtrd_hot: 8,
            rtrd_rate: 40.0,
            rtrd_node_limit: 20_000,
        }
    }

    /// Small sizes for tests.
    pub fn smoke() -> Size {
        Size {
            dct_pool: 2,
            dct_draw: 1,
            dct_node_limit: 20_000,
            milp_pool: 4,
            milp_draw: 3,
            milp_tasks: 6,
            milp_pivot_limit: 2_000,
            min_passes: 1,
            min_tail: 0,
            batch_setups: 3,
            rtrd_setups: 1,
            rtrd_replays: 1,
            rtrd_hot: 2,
            rtrd_rate: 80.0,
            rtrd_node_limit: 5_000,
        }
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long the timed section (or the traffic) lasts.
    pub seconds: f64,
    /// `true` for the traced per-layer run.
    pub trace: bool,
    /// Workload sizes.
    pub size: Size,
}

/// What a run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (explore calls or requests).
    pub attempted: u64,
    /// Operations that failed or produced an output that failed its check.
    pub failed: u64,
    /// Descriptions of the first few failures.
    pub failures: Vec<String>,
    /// Measured metrics by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Exact work counts, for the determinism check.
    pub counts: BTreeMap<&'static str, u64>,
    /// Human-readable report lines (traced runs).
    pub report: Vec<String>,
    /// Host facts recorded with the result.
    pub host: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Records a failed operation.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what.into());
        }
    }

    /// Records an exact count both as a metric and for the determinism
    /// check.
    pub fn count(&mut self, name: &'static str, value: u64) {
        self.counts.insert(name, value);
        self.metrics.insert(name, value as f64);
    }

    /// `true` when every output check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// Runs one workload.
///
/// # Errors
///
/// An unknown workload or a set-up failure (e.g. the cache directory
/// cannot be created).
pub fn run(config: &Config) -> Result<Outcome, String> {
    let mut outcome = match config.workload.as_str() {
        "dct_structured" => batch::run(config, batch::Kind::Dct),
        "milp_windows" => batch::run(config, batch::Kind::Milp),
        "rtrd_mix" => service::run(config),
        other => return Err(format!("unknown workload `{other}`")),
    }?;
    outcome.host.insert(0, ("nproc", nproc().to_string()));
    if !config.trace {
        let ok = outcome.attempted.saturating_sub(outcome.failed) as f64
            / outcome.attempted.max(1) as f64;
        outcome.metrics.insert("ok_share", ok);
        outcome.metrics.insert("peak_rss_mb", peak_rss_mb()?);
    }
    Ok(outcome)
}

/// Renders the final result line: `correct`, `attempted`, `failed`, and
/// every metric of the run's kind with its unit.
pub fn result_json(config: &Config, outcome: &Outcome) -> Result<String, String> {
    let spec = if config.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::with_capacity(spec.len());
    for &(name, unit) in spec {
        let value = match outcome.metrics.get(name) {
            Some(v) => *v,
            // A layer the workload does not exercise reads zero.
            None if config.trace => 0.0,
            None => return Err(format!("end-to-end metric `{name}` was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric `{name}` is not finite ({value})"));
        }
        metrics.push(format!("\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}"));
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        metrics.join(",")
    ))
}

/// The host-facts line printed before the result.
pub fn host_line(config: &Config, outcome: &Outcome) -> String {
    let mut line = format!("host: workload={} seed={}", config.workload, config.seed);
    for (k, v) in &outcome.host {
        let _ = write!(line, " {k}={v}");
    }
    line
}

/// Directory for run outputs (span logs, the service's cache) inside the
/// benchmark's own directory.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The first `draw` of `0..pool` in a seeded order: most of a fixed pool,
/// so every seed's inputs differ while their total work stays comparable.
pub fn draw_from_pool(seed: u64, pool: usize, draw: usize) -> Vec<u64> {
    let mut items: Vec<u64> = (0..pool as u64).collect();
    let mut rng = rtr_workloads::rng::Rng::new(mix(seed, 0x706f_6f6c));
    for i in (1..items.len()).rev() {
        items.swap(i, rng.range_usize(0, i));
    }
    items.truncate(draw);
    items
}

/// A SplitMix64 step, used to derive independent sub-seeds.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The paper's 4×4 DCT with its task blocks listed in a seeded order: an
/// isomorphic relabeling (same tasks, edges and design points; different
/// task indices), so every variant poses the paper's instance while the
/// search meets its tasks in a different order. Variant 0 is the DCT as
/// `dct_4x4` lists it.
pub fn relabeled_dct(seed: u64) -> rtr_graph::TaskGraph {
    let text = rtr_workloads::dct::dct_4x4().to_text();
    let mut blocks: Vec<String> = Vec::new();
    let mut edges = String::new();
    for line in text.lines() {
        if line.starts_with("edge ") {
            edges.push_str(line);
            edges.push('\n');
        } else if line.starts_with("task ") || blocks.is_empty() {
            blocks.push(format!("{line}\n"));
        } else if let Some(block) = blocks.last_mut() {
            block.push_str(line);
            block.push('\n');
        }
    }
    if seed != 0 {
        let mut rng = rtr_workloads::rng::Rng::new(seed);
        for i in (1..blocks.len()).rev() {
            blocks.swap(i, rng.range_usize(0, i));
        }
    }
    let mut out = blocks.concat();
    out.push_str(&edges);
    rtr_graph::TaskGraph::from_text(&out).expect("a relabeled DCT is a valid graph")
}

/// Ends a traced run: attributes self time per span name as a share of
/// the run's wall time, prints the coverage line (time covered by any
/// layer span ÷ wall time), and writes the span log out.
pub fn finish_trace(config: &Config, rec: &spans::Recorder, out: &mut Outcome) {
    let times = rec.self_times();
    let wall = times.wall.as_secs_f64().max(1e-9);
    out.report.push(format!(
        "self time by layer call ({} wall; shares of wall, overlapping spans on the generator's \
         threads can add past 100 %):",
        fmt_s(times.wall)
    ));
    for row in &times.rows {
        out.report.push(format!(
            "  {:<28} {:>6} calls  total {:>10}  self {:>10}  {:>6.2} %",
            row.name,
            row.count,
            fmt_s(row.total),
            fmt_s(row.self_time),
            100.0 * row.self_time.as_secs_f64() / wall
        ));
    }
    let coverage = times.covered.as_secs_f64() / wall;
    out.report.push(format!(
        "coverage: {} of {} wall attributed to layer spans ({:.2} %)",
        fmt_s(times.covered),
        fmt_s(times.wall),
        100.0 * coverage
    ));
    out.metrics.insert("trace.coverage", coverage);
    let path = out_dir().join(format!("spans-{}-{}.jsonl", config.workload, config.seed));
    match std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, rec.to_jsonl())) {
        Ok(()) => out.report.push(format!("span log: {}", path.display())),
        Err(e) => out.report.push(format!("span log not written ({}): {e}", path.display())),
    }
}

fn fmt_s(d: Duration) -> String {
    format!("{:.3} s", d.as_secs_f64())
}

/// An exploration observer that keeps, per window, the fastest time in
/// milliseconds between consecutive window completions (the first from
/// `start`) across every exploration it is handed to: window `k` of a run
/// updates `best[k]`, or appends it on the first run.
pub fn window_timer(
    start: std::time::Instant,
    best: &mut Vec<f64>,
) -> impl FnMut(&rtr_core::IterationRecord) + '_ {
    let mut last = start;
    let mut k = 0;
    move |_| {
        let now = std::time::Instant::now();
        let elapsed = stats::ms(now - last);
        match best.get_mut(k) {
            Some(b) => *b = b.min(elapsed),
            None => best.push(elapsed),
        }
        last = now;
        k += 1;
    }
}
