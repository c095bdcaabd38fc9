//! The `rtrd_mix` workload: independent clients against an in-process
//! `rtrd::Server`.
//!
//! Set-up starts the server (`workers = 1`, a fresh cache directory) and
//! warms a hot set of seeded instances through its job table. The traffic
//! is one open-loop, seeded Poisson schedule at a fixed rate: a third of
//! the requests are misses on never-seen instances (solve, every-window
//! durable checkpoint, promote), the rest hits on the hot set (cache read,
//! verify, replay). Every latency is timed from when its request was due.
//!
//! The load generator is two threads with one connection each: the
//! submitter sends every request at its due time, the poller fetches
//! results for the jobs in flight, oldest poll first.
//!
//! Every instance is also explored in-process while no server runs; each
//! served result must byte-equal that exploration, and each hit must also
//! byte-equal its instance's warm-up result.

use crate::checks::{check_exploration, expected_result, latency_ratio, window_counts};
use crate::http::{self, field_u64, result_object};
use crate::spans::{Recorder, SpanId};
use crate::stats::{beyond, geomean, median, ms, quantile, us};
use crate::{mix, out_dir, relabeled_dct, window_timer, Config, Outcome};
use rtr_core::{Exploration, TemporalPartitioner};
use rtr_trace::MemorySink;
use rtrd::{JobRequest, JobState, Lookup, Server, SolveCache};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Worker threads of the load generator (submitter and poller).
pub const GENERATOR_THREADS: usize = 2;

/// A request gives up (and counts as failed) this long after it was due.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(60);

/// One scheduled request.
#[derive(Debug, Clone, Copy)]
struct Scheduled {
    /// Offset of the due time from the start of the traffic.
    at: Duration,
    /// Index into the instance list (hot instances first).
    instance: usize,
    /// `true` for a hit on the hot set.
    hit: bool,
}

/// What happened to one request.
#[derive(Debug, Clone, Default)]
struct Served {
    latency: Option<Duration>,
    result: Option<String>,
    cached: bool,
    error: Option<String>,
    /// When the 202 arrived, and the job id.
    accepted: Option<(Instant, u64)>,
}

/// Generator-side measurements.
#[derive(Debug, Default)]
struct Traffic {
    served: Vec<Served>,
    late_ms: Vec<f64>,
    submit_ms: Vec<f64>,
    polls: u64,
    not_ready: u64,
    queue_wait_ms: Vec<f64>,
    busy: Duration,
    wall: Duration,
}

/// A submit body for a relabeled DCT on the 1024-unit device (the
/// paper's Table 5 settings) with a per-window node budget.
fn job_body(graph: &rtr_graph::TaskGraph, node_limit: u64) -> String {
    format!(
        "{{\"graph\":\"{}\",\"arch\":{{\"rmax\":1024,\"mmax\":512,\"ct_ns\":1000.0}},\
         \"params\":{{\"delta_ns\":800.0,\"alpha\":1,\"gamma\":1,\"backend\":\"structured\",\
         \"solve_nodes\":{node_limit},\"threads\":1}}}}",
        rtrd::jobs::escape_json(&graph.to_text())
    )
}

fn parse(body: &str) -> Result<JobRequest, String> {
    JobRequest::from_json(body).map_err(|e| format!("request: {e}"))
}

/// The seeded traffic: request count from the fixed rate, exactly a third
/// misses at seeded positions, exponential inter-arrival gaps.
fn schedule(seed: u64, rate: f64, seconds: f64, hot: usize) -> (Vec<Scheduled>, usize) {
    let n = ((rate * seconds).round() as usize).max(3);
    let misses = n / 3;
    let mut rng = rtr_workloads::rng::Rng::new(mix(seed, 0x7472_6166));
    let mut kinds: Vec<bool> = (0..n).map(|i| i >= misses).collect();
    for i in (1..n).rev() {
        kinds.swap(i, rng.range_usize(0, i));
    }
    let mut at = 0.0f64;
    let mut next_miss = hot;
    let mut out = Vec::with_capacity(n);
    for hit in kinds {
        at += -(1.0 - rng.range_f64(0.0, 1.0)).max(1e-12).ln() / rate;
        let instance = if hit {
            rng.range_usize(0, hot - 1)
        } else {
            next_miss += 1;
            next_miss - 1
        };
        out.push(Scheduled { at: Duration::from_secs_f64(at), instance, hit });
    }
    (out, misses)
}

/// A started server with its hot set warmed, and what that took.
struct Warmed {
    server: Server,
    /// The warm-up result of each hot instance.
    results: Vec<String>,
    seconds: f64,
}

/// Set-up: starts a server on a fresh cache directory and warms the hot
/// set through its job table.
fn start_and_warm(
    base: &Path,
    hot_bodies: &[String],
    rec: &Recorder,
    span: Option<SpanId>,
) -> Result<Warmed, String> {
    let _ = std::fs::remove_dir_all(base);
    let t = Instant::now();
    let server = Server::start(rtrd::Config {
        listen: "127.0.0.1:0".to_owned(),
        cache_dir: base.join("cache"),
        queue_cap: 64,
        workers: 1,
    })
    .map_err(|e| format!("server start: {e}"))?;
    let table = Arc::clone(server.table());
    let mut ids = Vec::with_capacity(hot_bodies.len());
    for (j, body) in hot_bodies.iter().enumerate() {
        let (id, _) = rec.time("rtrd.jobs.warm", j as u64, span, || {
            table.submit(parse(body)?).map_err(|e| format!("warm-up submit: {e:?}"))
        })?;
        ids.push(id);
    }
    table.wait_idle(Duration::from_secs(120));
    let seconds = t.elapsed().as_secs_f64();
    let results = ids
        .iter()
        .map(|&id| match table.state(id) {
            Some(JobState::Done { result, .. }) => Ok(result),
            other => Err(format!("warm-up job {id} ended {other:?}")),
        })
        .collect::<Result<_, _>>()?;
    Ok(Warmed { server, results, seconds })
}

/// Runs `rtrd_mix`.
///
/// A timed run plays the schedule [`Size::rtrd_replays`] times, each on a
/// freshly set-up server, and keeps each request's fastest latency; the
/// reference explorations are repeated before and after every replay and
/// keep each window's fastest solve; `setup_s` is the median over replays of each
/// replay's fastest set-up. This is the min-of-k rule of ROADMAP item 1:
/// the host's speed swings by up to 2× in phases of seconds to minutes.
/// A traced run plays the schedule once.
///
/// # Errors
///
/// Set-up failures: instance generation, cache directory, server start.
pub fn run(config: &Config) -> Result<Outcome, String> {
    let size = &config.size;
    let rec = Recorder::new(config.trace);
    let root = rec.open("run", config.seed, None);
    let mut out = Outcome::default();
    let hot = size.rtrd_hot.max(1);
    let replays = if config.trace { 1 } else { size.rtrd_replays.max(1) };
    // The traced run plays the same schedule as one replay of a timed run.
    let (plan, misses) = schedule(
        config.seed,
        size.rtrd_rate,
        config.seconds / size.rtrd_replays.max(1) as f64,
        hot,
    );

    // Instances: the hot set, then one never-seen instance per miss.
    let mut bodies = Vec::with_capacity(hot + misses);
    for j in 0..hot + misses {
        let stream = if j < hot { 0x686f_7400 + j as u64 } else { 0x6d69_7300_0000 + j as u64 };
        bodies.push(job_body(&relabeled_dct(mix(config.seed, stream)), size.rtrd_node_limit));
    }
    let requests: Vec<JobRequest> = bodies.iter().map(|b| parse(b)).collect::<Result<_, _>>()?;
    let parts: Vec<TemporalPartitioner<'_>> = requests
        .iter()
        .map(|r| TemporalPartitioner::new(&r.graph, &r.arch, r.params.clone()))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let mut seen = BTreeMap::new();
    for (j, part) in parts.iter().enumerate() {
        if let Some(prev) = seen.insert(part.fingerprint(), j) {
            return Err(format!("instances {prev} and {j} share a fingerprint"));
        }
    }

    let base = out_dir().join(format!("rtrd-{}", std::process::id()));
    let board = rtr_trace::status::board();
    let mut setup_times = Vec::new();
    let mut latency: Vec<Option<f64>> = vec![None; plan.len()];
    let mut window_best: Vec<Vec<f64>> = vec![Vec::new(); requests.len()];
    let mut reference: Vec<Exploration> = Vec::new();
    let mut expected: Vec<String> = Vec::new();
    let mut bad_instance: Vec<Option<String>> = Vec::new();
    let (mut first_traffic, mut deltas) = (None, None);
    for replay in 0..replays {
        // Reference explorations of every instance, made while no server
        // runs: before each set-up and after each shutdown, so each
        // window's fastest solve comes from moments spread over the run.
        let reference_span = rec.open("reference", 2 * replay as u64, root);
        explore_all(&parts, &mut window_best, &mut reference, &rec, reference_span, &mut out)?;
        rec.close(reference_span);
        if replay == 0 {
            expected = reference
                .iter()
                .zip(&requests)
                .map(|(ex, r)| expected_result(ex, &r.graph))
                .collect();
            bad_instance = reference
                .iter()
                .zip(&requests)
                .map(|(ex, r)| check_exploration(&r.graph, &r.arch, ex).err())
                .collect();
        }

        // Set-up, repeated on a fresh cache directory each time; the last
        // server takes the traffic.
        let setup_span = rec.open("setup", replay as u64, root);
        let mut warmed = start_and_warm(&base, &bodies[..hot], &rec, setup_span)?;
        let mut fastest = warmed.seconds;
        for _ in 1..size.rtrd_setups.max(1) {
            Server::shutdown(warmed.server);
            warmed = start_and_warm(&base, &bodies[..hot], &rec, setup_span)?;
            fastest = fastest.min(warmed.seconds);
        }
        setup_times.push(fastest);
        rec.close(setup_span);
        if replay == 0 {
            out.host.push(("cache_fs", filesystem_of(&base)));
        }

        let before = board.snapshot();
        let traffic_span = rec.open("traffic", replay as u64, root);
        let traffic = drive(&warmed.server, &plan, &bodies, &rec, traffic_span);
        rec.close(traffic_span);
        let after = board.snapshot();
        out.attempted += plan.len() as u64;
        if config.trace {
            probe_live(config, &warmed.server, &bodies[..hot], &rec, root, &mut out);
        }
        warmed.server.drain();
        warmed.server.wait_idle(Duration::from_secs(60));
        Server::shutdown(warmed.server);

        let reference_span = rec.open("reference", 2 * replay as u64 + 1, root);
        explore_all(&parts, &mut window_best, &mut reference, &rec, reference_span, &mut out)?;
        rec.close(reference_span);

        // Output checks of this replay.
        for (j, w) in warmed.results.iter().enumerate() {
            if *w != expected[j] {
                out.fail(format!(
                    "hot instance {j}: warm-up result differs from in-process explore"
                ));
            }
        }
        for (i, (s, served)) in plan.iter().zip(&traffic.served).enumerate() {
            let j = s.instance;
            let verdict = match (&served.error, &served.result, served.latency) {
                (Some(e), _, _) => Err(e.clone()),
                (None, Some(result), Some(_)) if *result != expected[j] => {
                    Err("result differs from in-process explore".to_owned())
                }
                (None, Some(result), Some(_)) if s.hit && *result != warmed.results[j] => {
                    Err("hit differs from its warm-up result".to_owned())
                }
                (None, Some(_), Some(_)) if served.cached != s.hit => {
                    Err(format!("served with cached={} for a {}", served.cached, kind(s.hit)))
                }
                (None, Some(_), Some(d)) => match &bad_instance[j] {
                    Some(e) => Err(e.clone()),
                    None => Ok(ms(d)),
                },
                _ => Err("no result".to_owned()),
            };
            match verdict {
                Ok(ms) => latency[i] = Some(latency[i].map_or(ms, |best| best.min(ms))),
                Err(e) => out.fail(format!("replay {replay}, request {i} ({}): {e}", kind(s.hit))),
            }
        }
        if replay == 0 {
            first_traffic = Some(traffic);
            deltas = Some((before, after));
        }
    }
    let traffic = first_traffic.ok_or("no traffic was played")?;
    let (before, after) = deltas.ok_or("no traffic was played")?;

    let (mut hit_ms, mut miss_ms) = (Vec::new(), Vec::new());
    let (mut windows, mut decided, mut ratios) = (0u64, 0u64, Vec::new());
    for (s, l) in plan.iter().zip(&latency) {
        let Some(l) = *l else { continue };
        if s.hit {
            hit_ms.push(l)
        } else {
            miss_ms.push(l)
        }
        let (w, d) = window_counts(&reference[s.instance]);
        windows += w;
        decided += d;
        let r = &requests[s.instance];
        ratios.push(latency_ratio(&r.graph, &r.arch, &reference[s.instance]));
    }
    out.count("core.windows", windows);
    out.count("core.decided", decided);
    let structured = reference[hot..].iter().fold(
        rtr_core::SearchStats { exhausted: true, ..Default::default() },
        |mut acc, ex| {
            acc.absorb(&ex.structured_totals());
            acc
        },
    );
    out.count("structured.nodes", structured.nodes);
    out.count("structured.dominance_prunes", structured.dominance_prunes);
    out.count("structured.latency_prunes", structured.latency_prunes);
    let pivots: u64 = reference.iter().map(|ex| ex.milp_totals().simplex_iterations as u64).sum();
    out.count("milp.pivots", pivots);
    out.count("board.lp_pivots", after.lp_pivots - before.lp_pivots);
    out.count("rtrd.cache.hits", after.rtrd_cache_hits - before.rtrd_cache_hits);
    out.count("rtrd.cache.misses", after.rtrd_cache_misses - before.rtrd_cache_misses);
    out.count("rtrd.jobs.rejected", after.rtrd_rejected - before.rtrd_rejected);
    out.count("board.rtrd_submitted", after.rtrd_submitted - before.rtrd_submitted);
    let writes = after.checkpoint_writes - before.checkpoint_writes;
    out.count("board.checkpoint_writes", writes);
    out.host.push(("generator_threads", GENERATOR_THREADS.to_string()));
    out.host.push(("rate_per_s", size.rtrd_rate.to_string()));
    out.host.push(("replays", replays.to_string()));
    out.host.push(("requests_per_replay", plan.len().to_string()));
    out.host.push(("served_hits", hit_ms.len().to_string()));
    out.host.push(("served_misses", miss_ms.len().to_string()));

    if config.trace {
        out.metrics.insert("core.checkpoint.writes_per_miss", writes as f64 / misses.max(1) as f64);
        out.metrics.insert("gen.late_p90_ms", quantile(&traffic.late_ms, 0.9));
        out.metrics.insert("rtrd.http.submit_ms", median(&traffic.submit_ms));
        let jobs = traffic.served.iter().filter(|s| s.accepted.is_some()).count().max(1);
        out.metrics.insert("rtrd.http.polls_per_job", traffic.polls as f64 / jobs as f64);
        out.metrics.insert(
            "rtrd.http.not_ready_share",
            traffic.not_ready as f64 / traffic.polls.max(1) as f64,
        );
        out.metrics.insert("rtrd.jobs.queue_wait_p50_ms", quantile(&traffic.queue_wait_ms, 0.5));
        out.metrics.insert("rtrd.jobs.queue_wait_p90_ms", quantile(&traffic.queue_wait_ms, 0.9));
        out.metrics.insert(
            "rtrd.worker.busy_share",
            traffic.busy.as_secs_f64() / traffic.wall.as_secs_f64().max(1e-9),
        );
        let solve: Vec<f64> = window_best[hot..].iter().map(|w| w.iter().sum()).collect();
        out.metrics.insert("rtrd.solve_ms", median(&solve));
        let total_ms: f64 = solve.iter().sum();
        if structured.nodes > 0 {
            out.metrics.insert("structured.ns_per_node", total_ms * 1e6 / structured.nodes as f64);
        }
        probe_offline(&bodies, &parts, &base, hot, &rec, root, &mut out);
    } else {
        out.metrics.insert("setup_s", median(&setup_times));
        out.metrics.insert("explore_s", window_best.concat().iter().sum::<f64>() / 1e3);
        out.metrics.insert("decided_share", decided as f64 / windows.max(1) as f64);
        out.metrics.insert("latency_vs_bound", geomean(&ratios));
        // Failed requests leave no latency sample; they already fail the run.
        for (name, samples) in [("hit", &hit_ms), ("miss", &miss_ms)] {
            if beyond(samples.len(), 0.9) < size.min_tail && out.failed == 0 {
                return Err(format!("only {} {name} samples: too few for a p90", samples.len()));
            }
        }
        out.metrics.insert("hit_p50_ms", quantile(&hit_ms, 0.5));
        out.metrics.insert("hit_p90_ms", quantile(&hit_ms, 0.9));
        out.metrics.insert("miss_p50_ms", quantile(&miss_ms, 0.5));
        out.metrics.insert("miss_p90_ms", quantile(&miss_ms, 0.9));
        out.host.push(("late_p90_ms", format!("{:.3}", quantile(&traffic.late_ms, 0.9))));
    }
    rec.close(root);
    let _ = std::fs::remove_dir_all(&base);
    if config.trace {
        crate::finish_trace(config, &rec, &mut out);
    }
    Ok(out)
}

/// Explores every instance in-process and keeps each window's fastest
/// solve. The first call fixes the reference explorations; every later
/// one must reproduce them.
fn explore_all(
    parts: &[TemporalPartitioner<'_>],
    window_best: &mut [Vec<f64>],
    reference: &mut Vec<Exploration>,
    rec: &Recorder,
    span: Option<SpanId>,
    out: &mut Outcome,
) -> Result<(), String> {
    for (j, part) in parts.iter().enumerate() {
        let ex = rec
            .time("core.explore", j as u64, span, || {
                part.explore_with_observer(window_timer(Instant::now(), &mut window_best[j]))
            })
            .map_err(|e| format!("instance {j}: {e}"))?;
        match reference.get(j) {
            None => reference.push(ex),
            Some(first) if first.to_csv() == ex.to_csv() => {}
            Some(_) => out.fail(format!("instance {j}: exploration changed between replays")),
        }
    }
    Ok(())
}

fn kind(hit: bool) -> &'static str {
    if hit {
        "hit"
    } else {
        "miss"
    }
}

/// Generator state shared by the submitter, the poller and the sampler.
#[derive(Default)]
struct Shared {
    /// Accepted jobs not yet resolved: (request, job id, last poll).
    in_flight: Vec<(usize, u64, Instant)>,
    /// Every accepted job: (request, job id, accepted at).
    accepted: Vec<(usize, u64, Instant)>,
    submitter_done: bool,
}

fn lock(m: &Mutex<Shared>) -> std::sync::MutexGuard<'_, Shared> {
    // Every update leaves the generator state consistent.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Plays the schedule against the server and collects the generator-side
/// measurements.
fn drive(
    server: &Server,
    plan: &[Scheduled],
    bodies: &[String],
    rec: &Recorder,
    parent: Option<SpanId>,
) -> Traffic {
    let addr = server.local_addr();
    let table = Arc::clone(server.table());
    let shared = Mutex::new(Shared::default());
    let wake = Condvar::new();
    let served: Vec<Mutex<Served>> = plan.iter().map(|_| Mutex::new(Served::default())).collect();
    let request_spans: Vec<Mutex<Option<SpanId>>> = plan.iter().map(|_| Mutex::new(None)).collect();
    let start = Instant::now() + Duration::from_millis(20);

    let (late_ms, submit_ms, (polls, not_ready), sampled) = std::thread::scope(|scope| {
        let submitter = scope.spawn(|| {
            let (mut late, mut rtt) = (Vec::with_capacity(plan.len()), Vec::new());
            for (i, s) in plan.iter().enumerate() {
                let due = start + s.at;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let sent = Instant::now();
                late.push(ms(sent.saturating_duration_since(due)));
                let span = rec.open_at("request", i as u64, parent, due);
                *request_spans[i].lock().unwrap_or_else(PoisonError::into_inner) = span;
                let response = rec.time("http.submit", i as u64, span, || {
                    http::request(addr, "POST", "/v1/jobs", &bodies[s.instance])
                });
                let accepted = Instant::now();
                rtt.push(ms(accepted - sent));
                let mut slot = served[i].lock().unwrap_or_else(PoisonError::into_inner);
                match response {
                    Ok(r) if r.status == 202 => match field_u64(&r.body, "job") {
                        Some(id) => {
                            slot.accepted = Some((accepted, id));
                            drop(slot);
                            let mut st = lock(&shared);
                            st.in_flight.push((i, id, accepted));
                            st.accepted.push((i, id, accepted));
                            drop(st);
                            wake.notify_all();
                        }
                        None => slot.error = Some(format!("202 without a job id: {}", r.body)),
                    },
                    Ok(r) => slot.error = Some(format!("submit answered {}: {}", r.status, r.body)),
                    Err(e) => slot.error = Some(format!("submit: {e}")),
                }
            }
            lock(&shared).submitter_done = true;
            wake.notify_all();
            (late, rtt)
        });

        let poller = scope.spawn(|| {
            let (mut polls, mut not_ready) = (0u64, 0u64);
            loop {
                let next = {
                    let mut st = lock(&shared);
                    loop {
                        if let Some(pos) =
                            (0..st.in_flight.len()).min_by_key(|&k| st.in_flight[k].2)
                        {
                            break Some(st.in_flight[pos]);
                        }
                        if st.submitter_done {
                            break None;
                        }
                        st = wake
                            .wait_timeout(st, Duration::from_millis(50))
                            .unwrap_or_else(PoisonError::into_inner)
                            .0;
                    }
                };
                let Some((i, id, _)) = next else { break };
                let span = *request_spans[i].lock().unwrap_or_else(PoisonError::into_inner);
                let response = rec.time("http.poll", i as u64, span, || {
                    http::request(addr, "GET", &format!("/v1/jobs/{id}/result"), "")
                });
                polls += 1;
                let now = Instant::now();
                let due = start + plan[i].at;
                let mut resolved = true;
                {
                    let mut slot = served[i].lock().unwrap_or_else(PoisonError::into_inner);
                    match response {
                        Ok(r) if r.status == 200 && r.body.contains("\"state\":\"done\"") => {
                            slot.latency = Some(now - due);
                            slot.cached = r.body.contains("\"cached\":true");
                            slot.result = result_object(&r.body).map(str::to_owned);
                        }
                        Ok(r) if r.status == 409 && now - due < REQUEST_TIMEOUT => {
                            not_ready += 1;
                            resolved = false;
                        }
                        Ok(r) => {
                            slot.error = Some(format!("result answered {}: {}", r.status, r.body))
                        }
                        Err(e) => slot.error = Some(format!("result: {e}")),
                    }
                }
                let mut st = lock(&shared);
                if let Some(pos) = st.in_flight.iter().position(|e| e.0 == i) {
                    if resolved {
                        st.in_flight.remove(pos);
                    } else {
                        st.in_flight[pos].2 = now;
                    }
                }
                drop(st);
                if resolved {
                    rec.close(span);
                }
            }
            (polls, not_ready)
        });

        // Traced runs only: watch the job table in-process for queue waits
        // and worker busy time.
        let sampler = rec.enabled().then(|| {
            scope.spawn(|| {
                let mut first_running: BTreeMap<u64, Instant> = BTreeMap::new();
                let mut finished: BTreeMap<u64, Instant> = BTreeMap::new();
                loop {
                    let (jobs, done_submitting) = {
                        let st = lock(&shared);
                        (st.accepted.clone(), st.submitter_done)
                    };
                    let now = Instant::now();
                    for &(_, id, _) in &jobs {
                        if finished.contains_key(&id) {
                            continue;
                        }
                        match table.state(id) {
                            Some(JobState::Queued) => {}
                            Some(JobState::Running) => {
                                first_running.entry(id).or_insert(now);
                            }
                            _ => {
                                first_running.entry(id).or_insert(now);
                                finished.insert(id, now);
                            }
                        }
                    }
                    if done_submitting && finished.len() == jobs.len() {
                        break (jobs, first_running, finished);
                    }
                    if now - start > plan.last().map_or(Duration::ZERO, |s| s.at) + REQUEST_TIMEOUT
                    {
                        break (jobs, first_running, finished);
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
            })
        });

        let (late, rtt) = submitter.join().unwrap_or_default();
        let counts = poller.join().unwrap_or_default();
        let sampled = sampler.and_then(|h| h.join().ok());
        (late, rtt, counts, sampled)
    });

    let mut traffic = Traffic {
        served: served
            .into_iter()
            .map(|m| m.into_inner().unwrap_or_else(PoisonError::into_inner))
            .collect(),
        late_ms,
        submit_ms,
        polls,
        not_ready,
        wall: start.elapsed(),
        ..Traffic::default()
    };
    if let Some((jobs, first_running, finished)) = sampled {
        for (_, id, accepted) in jobs {
            if let (Some(&run), Some(&done)) = (first_running.get(&id), finished.get(&id)) {
                traffic.queue_wait_ms.push(ms(run.saturating_duration_since(accepted)));
                traffic.busy += done.saturating_duration_since(run);
            }
        }
    }
    traffic
}

/// Traced-run probes against the live, idle server: status round trips
/// at seeded random times, and in-process hits through the job table.
fn probe_live(
    config: &Config,
    server: &Server,
    hot_bodies: &[String],
    rec: &Recorder,
    root: Option<SpanId>,
    out: &mut Outcome,
) {
    let addr: SocketAddr = server.local_addr();
    let span = rec.open("probe.status", 0, root);
    let mut rng = rtr_workloads::rng::Rng::new(mix(config.seed, 0x7374_6174));
    let mut rtt = Vec::new();
    for k in 0..STATUS_PROBES {
        std::thread::sleep(Duration::from_secs_f64(rng.range_f64(0.0, 0.02)));
        let t = Instant::now();
        match rec.time("http.status", k, span, || http::request(addr, "GET", "/v1/status", "")) {
            Ok(r) if r.status == 200 => rtt.push(ms(t.elapsed())),
            Ok(r) => out.fail(format!("status answered {}", r.status)),
            Err(e) => out.fail(format!("status: {e}")),
        }
    }
    rec.close(span);
    out.metrics.insert("rtrd.http.status_rtt_ms", median(&rtt));

    let span = rec.open("probe.jobs", 0, root);
    let table = server.table();
    let mut hit_ms = Vec::new();
    for round in 0..3 {
        for (j, body) in hot_bodies.iter().enumerate() {
            let Ok(request) = parse(body) else { continue };
            let t = Instant::now();
            let state =
                rec.time("rtrd.jobs.hit", (round * hot_bodies.len() + j) as u64, span, || {
                    let (id, _) = table.submit(request).ok()?;
                    table.wait_idle(Duration::from_secs(10));
                    table.state(id)
                });
            hit_ms.push(ms(t.elapsed()));
            if !matches!(state, Some(JobState::Done { cached: true, .. })) {
                out.fail(format!("in-process hit on hot instance {j} ended {state:?}"));
            }
        }
    }
    rec.close(span);
    out.metrics.insert("rtrd.jobs.hit_ms", median(&hit_ms));
    out.report.push(format!(
        "hit path: GET /v1/status round trip p50 {:.3} ms (accept loop + HTTP, no job) beside \
         in-process JobTable submit→Done p50 {:.3} ms (no HTTP)",
        median(&rtt),
        median(&hit_ms)
    ));
}

/// `GET /v1/status` probes of a traced run.
const STATUS_PROBES: u64 = 40;

/// Traced-run probes after the server stopped: request parsing, the
/// cache layer on its own, and the tracing overhead on the miss solves.
fn probe_offline(
    bodies: &[String],
    parts: &[TemporalPartitioner<'_>],
    base: &Path,
    hot: usize,
    rec: &Recorder,
    root: Option<SpanId>,
    out: &mut Outcome,
) {
    let span = rec.open("probe.parse", 0, root);
    let mut parse_us = Vec::new();
    for (j, body) in bodies.iter().enumerate() {
        let t = Instant::now();
        let parsed = rec.time("rtrd.request.parse", j as u64, span, || JobRequest::from_json(body));
        parse_us.push(us(t.elapsed()));
        if parsed.is_err() {
            out.fail(format!("instance {j}: body does not parse"));
        }
    }
    rec.close(span);
    out.metrics.insert("rtrd.request.parse_us", median(&parse_us));

    let span = rec.open("probe.cache", 0, root);
    let store_dir: PathBuf = base.join("store-probe");
    let (cache, store) = match (SolveCache::open(base.join("cache")), SolveCache::open(&store_dir))
    {
        (Ok(c), Ok(s)) => (c, s),
        _ => {
            out.fail("cannot reopen the cache directory");
            return;
        }
    };
    let (mut load_us, mut replay_ms, mut store_ms) = (Vec::new(), Vec::new(), Vec::new());
    for (j, part) in parts.iter().enumerate().take(hot) {
        let fp = part.fingerprint();
        let t = Instant::now();
        let lookup = rec.time("rtrd.cache.load", j as u64, span, || cache.load(fp));
        load_us.push(us(t.elapsed()));
        let Lookup::Hit(checkpoint) = lookup else {
            out.fail(format!("hot instance {j} is not in the cache"));
            continue;
        };
        let t = Instant::now();
        let replayed = rec.time("rtrd.cache.replay", j as u64, span, || {
            part.explore_resumable(1, None, Some(&checkpoint), |_| {})
        });
        replay_ms.push(ms(t.elapsed()));
        if replayed.is_err() {
            out.fail(format!("hot instance {j}: replay failed"));
        }
        let t = Instant::now();
        let stored = rec.time("rtrd.cache.store", j as u64, span, || store.store(fp, &checkpoint));
        store_ms.push(ms(t.elapsed()));
        if !stored {
            out.fail(format!("hot instance {j}: store failed"));
        }
    }
    rec.close(span);
    out.metrics.insert("rtrd.cache.load_us", median(&load_us));
    out.metrics.insert("rtrd.cache.replay_ms", median(&replay_ms));
    out.metrics.insert("rtrd.cache.store_ms", median(&store_ms));

    // Tracing overhead on the miss solves, untraced and traced runs
    // interleaved per instance.
    let span = rec.open("probe.overhead", 0, root);
    let sink = Arc::new(MemorySink::new());
    let (mut plain, mut traced) = (Duration::ZERO, Duration::ZERO);
    for (j, part) in parts.iter().enumerate().skip(hot).take(OVERHEAD_INSTANCES) {
        let t = Instant::now();
        let a = rec.time("core.explore", j as u64, span, || part.explore());
        plain += t.elapsed();
        rtr_trace::install(sink.clone());
        let t = Instant::now();
        let b = rec.time("core.explore_traced", j as u64, span, || part.explore());
        traced += t.elapsed();
        rtr_trace::uninstall();
        match (a, b) {
            (Ok(a), Ok(b)) if a.to_csv() == b.to_csv() => {}
            _ => out.fail(format!("instance {j}: traced exploration diverged")),
        }
    }
    rec.close(span);
    out.metrics
        .insert("trace.overhead_share", traced.as_secs_f64() / plain.as_secs_f64().max(1e-9) - 1.0);
}

/// Miss instances explored twice for the tracing-overhead probe.
const OVERHEAD_INSTANCES: usize = 32;

/// The filesystem type holding `path`, from the mount table (`unknown`
/// when it cannot be read).
fn filesystem_of(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else { return "unknown".to_owned() };
    let Ok(table) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".to_owned();
    };
    let mut best: Option<(usize, String)> = None;
    for line in table.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        let (Some(mount), Some(dash)) = (fields.get(4), fields.iter().position(|f| *f == "-"))
        else {
            continue;
        };
        let Some(fstype) = fields.get(dash + 1) else { continue };
        if path.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() > *len) {
            best = Some((mount.len(), (*fstype).to_owned()));
        }
    }
    best.map_or("unknown".to_owned(), |(_, fs)| fs)
}
