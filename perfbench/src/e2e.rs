//! The end-to-end run: what a user of the monitor sees. Steady rounds
//! and the dashboard query mix are measured for the run length on one
//! service; set-up and the first (cold) round on it and on fresh
//! services built during its steady phase.

use crate::checks::{self, RateErrors};
use crate::inputs::{
    self, Inputs, Workload, HISTORY_QUERIES, LIVE_QUERIES, RANGE_QUERIES, SAVE_TICKS,
};
use crate::util::{median, peak_rss_mb, quantile, Metrics, Tallies, Verdict};
use netqos_monitor::service::MonitoringService;
use netqos_telemetry::{
    LtsReader, LtsSource, QueryEngine, QueryResult, RegistrySource, Resolution, SeriesSource,
};
use netqos_topology::{NetworkTopology, NodeId};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Besides the service the steady rounds run on, `EXTRA_SETUPS` fresh
/// services are built (and dropped) at evenly spaced points of the
/// steady phase, every `Workload::cold_every`-th of them also running
/// its cold round, so set-up and cold-round samples see the same machine
/// as the steady rounds. Their time does not count against the run
/// length. The counts are fixed, so every run allocates in the same
/// order.
const EXTRA_SETUPS: usize = 12;

/// What one tick did, seen from outside.
pub struct TickOutcome {
    pub wall: Duration,
    pub sim_s: f64,
    pub polls_ok: u64,
    pub paths_ok: u64,
    /// Whole simulated seconds since start when the tick ended: with the
    /// service's wall-clock epoch, the Unix second it stamps store
    /// points with.
    pub end_s: u64,
}

/// Runs one tick and reads its outcome: successful polls from the
/// monitor's ingest count, successful path evaluations from the
/// recorder (the service records a sample for each path it evaluated).
pub fn tick(svc: &mut MonitoringService) -> TickOutcome {
    let sim0 = svc.net_mut().lan.now();
    let ingested0 = svc.monitor().polls_ingested();
    let recorded0 = recorded(svc);
    let start = Instant::now();
    svc.tick().expect("tick");
    let wall = start.elapsed();
    let now = svc.net_mut().lan.now();
    TickOutcome {
        wall,
        sim_s: now.duration_since(sim0).as_secs_f64(),
        end_s: now.as_secs_f64() as u64,
        polls_ok: svc.monitor().polls_ingested() - ingested0,
        paths_ok: (recorded(svc) - recorded0) as u64,
    }
}

fn recorded(svc: &MonitoringService) -> usize {
    svc.recorder()
        .series()
        .iter()
        .map(|s| s.samples.len())
        .sum()
}

/// Devices whose poll fails every round: the fragmentation fault (see
/// `FRAGMENTING_IF_COUNT`). Counted from the spec, not the program.
pub fn expected_poll_failures(nodes: &[NodeId], topo: &NetworkTopology) -> u64 {
    nodes
        .iter()
        .filter(|&&n| {
            topo.node(n).expect("pollable node").interfaces.len() >= inputs::FRAGMENTING_IF_COUNT
        })
        .count() as u64
}

/// The query engine of the workload: the store on `ops-1k`, the live
/// registry elsewhere.
pub fn query_engine(inputs: &Inputs, svc: &MonitoringService) -> QueryEngine {
    let source: Arc<dyn SeriesSource> = match &inputs.history {
        Some(h) => Arc::new(LtsSource::new(LtsReader::open(&h.dir))),
        None => Arc::new(RegistrySource::new(svc.registry().clone())),
    };
    QueryEngine::new().with_source(None, source)
}

/// Live poll deltas as the store holds them: one per tick, at the
/// service's sim-anchored Unix second.
#[derive(Default)]
pub struct LivePolls {
    /// `(whole sim seconds since start, polls)` per tick.
    ticks: Vec<(u64, u64)>,
}

impl LivePolls {
    pub fn push(&mut self, end_s: u64, polls: u64) {
        self.ticks.push((end_s, polls));
    }

    fn total(&self) -> u64 {
        self.ticks.iter().map(|t| t.1).sum()
    }
}

/// Latency, failures and scanned points of the queries issued so far.
#[derive(Default)]
pub struct QueryLog {
    pub latency_ms: Vec<f64>,
    pub points_scanned: Vec<f64>,
    pub failed: u64,
}

/// One dashboard query mix, logged into `log`; checks the answers
/// against what the benchmark knows independently.
pub fn query_mix(
    inputs: &mut Inputs,
    engine: &QueryEngine,
    live: &LivePolls,
    log: &mut QueryLog,
) -> Result<(), String> {
    let (t_live, t_hist) = match &inputs.history {
        Some(h) => (
            engine.newest_t().ok_or("store has no points")?,
            inputs.queries.history_instant(h),
        ),
        None => {
            let now = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .expect("clock after 1970")
                .as_secs();
            (now, now - 2 * 3600)
        }
    };
    let mut answers = Vec::new();
    let mut run = |q: &str, f: &dyn Fn() -> Result<netqos_telemetry::QueryOutcome, String>| {
        let start = Instant::now();
        let out = f();
        log.latency_ms.push(start.elapsed().as_secs_f64() * 1e3);
        match out {
            Ok(o) => {
                log.points_scanned.push(o.stats.points_scanned as f64);
                answers.push((q.to_owned(), Some(o.result)));
            }
            Err(_) => {
                log.failed += 1;
                answers.push((q.to_owned(), None));
            }
        }
    };
    // Live queries go first: the first query after a tick finds cold
    // caches, and the cheap live group absorbs that better than the
    // history group, whose two costly gauge queries then cost alike.
    for q in LIVE_QUERIES {
        run(q, &|| engine.instant(q, t_live, Resolution::Raw1s));
    }
    for q in HISTORY_QUERIES {
        run(q, &|| engine.instant(q, t_hist, Resolution::Raw1s));
    }
    let step = inputs::RANGE_STEP_SECS;
    let start = (t_live - inputs::HISTORY_SECS) / step * step;
    for q in RANGE_QUERIES {
        run(q, &|| engine.range(q, start, t_live, step));
    }
    check_answers(inputs, &answers, live, t_hist, t_live)
}

fn scalar_of(r: &Option<QueryResult>) -> Option<f64> {
    match r {
        Some(QueryResult::Vector(v)) if v.len() == 1 => Some(v[0].v),
        _ => None,
    }
}

fn check_answers(
    inputs: &Inputs,
    answers: &[(String, Option<QueryResult>)],
    live: &LivePolls,
    t_hist: u64,
    t_live: u64,
) -> Result<(), String> {
    let got = |i: usize| scalar_of(&answers[i].1);
    let expect = |i: usize, want: f64| -> Result<(), String> {
        match got(i) {
            Some(v) if checks::close(v, want) => Ok(()),
            other => Err(format!(
                "query {:?}: got {other:?}, expected {want}",
                answers[i].0
            )),
        }
    };
    match &inputs.history {
        Some(h) => {
            for (i, want) in checks::history_answers(h, t_hist).into_iter().enumerate() {
                expect(LIVE_QUERIES.len() + i, want)?;
            }
            // Live points reach the store on save ticks, at `epoch +
            // whole sim seconds`; the newest saved one fixes the epoch.
            let saved = &live.ticks[..live.ticks.len() / SAVE_TICKS as usize * SAVE_TICKS as usize];
            let epoch = saved.last().map(|(s, _)| t_live - s);
            let in_window = |after: u64| -> u64 {
                let live_sum: u64 = saved
                    .iter()
                    .filter(|(s, _)| epoch.is_some_and(|e| e + s > after))
                    .map(|t| t.1)
                    .sum();
                live_sum + checks::history_polls(h, after, t_live)
            };
            expect(0, in_window(t_live - 60) as f64 / 60.0)?;
            expect(1, in_window(0) as f64)?;
        }
        None => {
            // The registry serves the running total as one point.
            expect(1, live.total() as f64)?;
        }
    }
    Ok(())
}

/// Builds a service; with `fresh`, on the untouched copy of the
/// pre-written store rather than the one the steady rounds write to.
fn build(inputs: &Inputs, fresh: bool, setup_s: &mut Vec<f64>) -> MonitoringService {
    let store = match (&inputs.history, fresh) {
        (Some(h), true) => Some(h.pristine.as_path()),
        _ => inputs.live_store(),
    };
    let start = Instant::now();
    let svc = inputs::build_service(inputs, store).expect("service builds");
    setup_s.push(start.elapsed().as_secs_f64());
    svc
}

/// Set-up sample `n` of the extra ones (with its cold round on every
/// `cold_every`-th); returns the time it took.
fn sample_setup(
    inputs: &Inputs,
    n: usize,
    setup_s: &mut Vec<f64>,
    cold_s: &mut Vec<f64>,
) -> Duration {
    let start = Instant::now();
    let mut fresh = build(inputs, true, setup_s);
    if (n + 1).is_multiple_of(inputs.workload.cold_every()) {
        cold_s.push(tick(&mut fresh).wall.as_secs_f64());
    }
    drop(fresh);
    start.elapsed()
}

pub fn run(inputs: &mut Inputs, seconds: f64) -> (Metrics, Result<(), String>, Tallies) {
    let workload = inputs.workload;
    let mut setup_s = Vec::new();
    let mut cold_s = Vec::new();
    let mut svc = build(inputs, false, &mut setup_s);
    let cold = tick(&mut svc);
    cold_s.push(cold.wall.as_secs_f64());
    let mut live = LivePolls::default();
    live.push(cold.end_s, cold.polls_ok);
    let engine = query_engine(inputs, &svc);
    let nodes = svc.net_mut().pollable_nodes();
    let expected_fail = expected_poll_failures(&nodes, svc.monitor().topology());
    let pollable = nodes.len() as u64;
    let n_paths = svc.recorder().series().len() as u64;
    let unit = workload.unit_ticks();
    let mut verdict = Verdict::default();

    // Warm-up: finish the unit the cold round opened (at least one more
    // round), so steady rounds all have rates and learned tables.
    let mut ticks = 1;
    loop {
        let o = tick(&mut svc);
        live.push(o.end_s, o.polls_ok);
        ticks += 1;
        if ticks % unit == 0 && ticks >= 2 {
            break;
        }
    }

    let mut tallies = Tallies::default();
    let mut round_ms = Vec::new();
    let mut round_sim = Vec::new();
    let mut polls_ok = 0u64;
    let mut steady_wall = 0.0;
    let mut queries = QueryLog::default();
    let mut rates = RateErrors::default();
    let length = Duration::from_secs_f64(seconds);
    let begin = Instant::now();
    let mut aside = Duration::ZERO;
    let mut taken = 0;
    while begin.elapsed() - aside < length {
        if taken < EXTRA_SETUPS
            && (begin.elapsed() - aside).as_secs_f64()
                >= seconds * (taken + 1) as f64 / (EXTRA_SETUPS + 1) as f64
        {
            aside += sample_setup(inputs, taken, &mut setup_s, &mut cold_s);
            taken += 1;
        }
        for _ in 0..unit {
            let o = tick(&mut svc);
            live.push(o.end_s, o.polls_ok);
            round_ms.push(o.wall.as_secs_f64() * 1e3);
            round_sim.push(o.sim_s);
            steady_wall += o.wall.as_secs_f64();
            polls_ok += o.polls_ok;
            tallies.polls.add(pollable, pollable - o.polls_ok);
            tallies.paths.add(n_paths, n_paths - o.paths_ok);
            if pollable - o.polls_ok != expected_fail {
                verdict.fail(format!(
                    "{} polls failed in a round, expected {expected_fail}",
                    pollable - o.polls_ok
                ));
            }
            if workload != Workload::Paths2k {
                rates.sample(svc.monitor(), &inputs.loads);
            }
        }
        if let Err(e) = query_mix(inputs, &engine, &live, &mut queries) {
            verdict.fail(e);
        }
    }

    for n in taken..EXTRA_SETUPS {
        sample_setup(inputs, n, &mut setup_s, &mut cold_s);
    }

    match workload {
        Workload::Paths2k => {
            if let Err(e) = checks::paths_check(&mut svc, &inputs.loads) {
                verdict.fail(e);
            }
        }
        _ => match rates.verdict() {
            Ok((n, mean, max)) => {
                eprintln!("load rates: {n} samples, mean error {mean:.4}, max {max:.4}")
            }
            Err(e) => verdict.fail(e),
        },
    }

    tallies
        .queries
        .add(queries.latency_ms.len() as u64, queries.failed);
    let mut m = Metrics::default();
    m.put("setup_s", median(&setup_s), "s");
    m.put("cold_round_s", median(&cold_s), "s");
    m.put("round_p50_ms", median(&round_ms), "ms");
    m.put("round_p90_ms", quantile(&round_ms, 0.9), "ms");
    m.put("polls_per_s", polls_ok as f64 / steady_wall, "1/s");
    m.put("round_sim_s", median(&round_sim), "s");
    m.put("query_p50_ms", median(&queries.latency_ms), "ms");
    m.put("query_p90_ms", quantile(&queries.latency_ms, 0.9), "ms");
    m.put("peak_rss_mb", peak_rss_mb(), "MiB");
    eprintln!(
        "{}: {} steady rounds, {} queries",
        workload.name(),
        round_ms.len(),
        queries.latency_ms.len()
    );
    (m, verdict.into_result(), tallies)
}
