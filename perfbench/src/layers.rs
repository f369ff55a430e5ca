//! The layer-timed run (`--trace 1`): the same inputs, with each layer
//! timed by the benchmark around the public call into it.
//!
//! Phase A runs the service itself, alternating the program's tracer
//! off and on per unit: its steady round is what the layers must add up
//! to, and the traced/untraced difference is the tracing overhead.
//! Phase B rebuilds the round from public parts (`run_until`,
//! `poll_device`, `ingest`, `path_bandwidth_of`, `QosMonitor::evaluate`,
//! the store and the recording rules) on a second, identical network,
//! timing every call and reading simulator and registry counts at the
//! same boundaries. `service.self_ms` is the phase A round minus the
//! phase B layers: the service's own per-round bookkeeping.

use crate::e2e::{self, LivePolls, QueryLog};
use crate::inputs::{self, Inputs, SAVE_TICKS};
use crate::util::{mean, median, Metrics, Tallies, Verdict};
use netqos_monitor::poll;
use netqos_monitor::{NetworkMonitor, QosMonitor, SimNetwork};
use netqos_sim::time::SimDuration;
use netqos_snmp::mib2::{self, bridge::FdbEntry, IfEntry, SystemInfo};
use netqos_snmp::{client, ScalarMib, SnmpAgent};
use netqos_spec::parse_and_validate;
use netqos_telemetry::{
    evaluate_record_rules, LtsCounters, LtsReader, LtsSource, LtsStore, QueryEngine,
    RecordingCounters, Registry, RegistrySampler, RegistrySource, SeriesSource,
};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Repetitions of each set-up layer (parse, build, traversal, open).
const SETUP_LAYER_REPS: usize = 5;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Median wall time of `reps` calls of `f`.
fn timed<T>(reps: usize, mut f: impl FnMut() -> T) -> Duration {
    let t: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_secs_f64()
        })
        .collect();
    Duration::from_secs_f64(median(&t))
}

/// Per-call time of `f` in µs: the median over 31 batches of the mean of
/// a batch of calls.
fn micro(mut f: impl FnMut()) -> f64 {
    const BATCH: usize = 50;
    let batches: Vec<f64> = (0..31)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..BATCH {
                f();
            }
            us(start.elapsed()) / BATCH as f64
        })
        .collect();
    median(&batches)
}

/// SNMP layers on one device with `ifs` interfaces, built the way the
/// simulated agent builds them: system group, forwarding table on a
/// switch, then the interface table.
fn snmp_layers(m: &mut Metrics, ifs: u32) {
    let suffix = format!("if{ifs}");
    let info = SystemInfo::new("bench-node");
    let entries: Vec<IfEntry> = (1..=ifs)
        .map(|i| {
            let mut e =
                IfEntry::ethernet(i, &format!("p{i}"), 100_000_000, [2, 0, 0, 0, 0, i as u8]);
            e.in_octets = 1_000_000 * i;
            e.out_octets = 2_000_000 * i;
            e.in_ucast_pkts = 1_000 * i;
            e.out_nucast_pkts = 10 * i;
            e
        })
        .collect();
    let fdb: Vec<FdbEntry> = (1..=ifs)
        .map(|i| FdbEntry {
            mac: [2, 0, 0, 1, 0, i as u8],
            port: i,
        })
        .collect();
    let build = || {
        let mut mib = ScalarMib::new();
        mib2::system::install(&mut mib, &info, 123_456);
        if ifs > 1 {
            mib2::bridge::install(&mut mib, ifs, &fdb);
        }
        mib2::interfaces::install(&mut mib, &entries);
        mib
    };
    let oids = poll::poll_oids(ifs);
    let mib = build();
    let req = client::build_get("public", 7, &oids).expect("encode request");
    let mut agent = SnmpAgent::new("public");
    let resp = agent.handle(&req, &mib).expect("agent answers");
    let decode = |bytes: &[u8]| {
        let bindings = client::parse_response(bytes)
            .expect("decode response")
            .into_result()
            .expect("response without error");
        poll::parse_snapshot(&bindings, ifs).expect("snapshot parses")
    };
    assert_eq!(decode(&resp).interfaces.len(), ifs as usize);
    m.put(
        &format!("snmp.encode_us.{suffix}"),
        micro(|| {
            black_box(client::build_get("public", 7, black_box(&oids)).expect("encode"));
        }),
        "us",
    );
    m.put(
        &format!("snmp.decode_us.{suffix}"),
        micro(|| {
            black_box(decode(black_box(&resp)));
        }),
        "us",
    );
    m.put(
        &format!("snmp.mib_build_us.{suffix}"),
        micro(|| {
            black_box(build());
        }),
        "us",
    );
    m.put(
        &format!("snmp.agent_handle_us.{suffix}"),
        micro(|| {
            black_box(agent.handle(black_box(&req), &mib));
        }),
        "us",
    );
    m.put(
        &format!("snmp.response_bytes.{suffix}"),
        resp.len() as f64,
        "B",
    );
}

/// Phase A's steady rounds: with the tracer as the workload runs it,
/// and split by tracer setting (each unit flips it).
#[derive(Default)]
struct ServiceRounds {
    own_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    untraced_ms: Vec<f64>,
}

/// One phase B round, layer by layer.
#[derive(Default)]
struct Round {
    run_until: Duration,
    poll: Duration,
    ingest: Duration,
    path_eval: Duration,
    qos: Duration,
    lts_sample: Duration,
    compact: Option<Duration>,
    record: Option<Duration>,
    polls: u64,
    polls_ok: u64,
    paths_ok: u64,
    poll_sim_ms: f64,
    frames: u64,
    floods: u64,
    timeouts: u64,
    retransmits: u64,
    points: u64,
}

impl Round {
    /// The layers the service runs in its own round on this workload:
    /// the store work only where the service has a store.
    fn layers(&self, with_store: bool) -> Duration {
        let core = self.run_until + self.poll + self.ingest + self.path_eval + self.qos;
        if with_store {
            core + self.lts_sample
                + self.compact.unwrap_or_default()
                + self.record.unwrap_or_default()
        } else {
            core
        }
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .map(|e| match e.file_type() {
                    Ok(t) if t.is_dir() => dir_bytes(&e.path()),
                    _ => e.metadata().map(|m| m.len()).unwrap_or(0),
                })
                .sum()
        })
        .unwrap_or(0)
}

pub fn run(
    inputs: &mut Inputs,
    seconds: f64,
    work: &Path,
) -> (Metrics, Result<(), String>, Tallies) {
    let workload = inputs.workload;
    let with_store = inputs.history.is_some();
    let mut m = Metrics::default();
    let mut verdict = Verdict::default();

    // Set-up layers.
    let model = parse_and_validate(&inputs.spec).expect("spec validates");
    m.put(
        "spec.parse_ms",
        ms(timed(SETUP_LAYER_REPS, || parse_and_validate(&inputs.spec))),
        "ms",
    );
    let build_net = || {
        let mut options = inputs::net_options(inputs);
        options.registry = Some(Registry::new());
        SimNetwork::from_model_with(model.clone(), options, |b, devs, model| {
            inputs::install_loads(&inputs.loads, b, devs, model)
        })
        .expect("network builds")
    };
    m.put("sim.build_ms", ms(timed(SETUP_LAYER_REPS, build_net)), "ms");
    let mut monitor = NetworkMonitor::new(model.topology.clone());
    let find_all = |monitor: &NetworkMonitor| {
        model
            .qos_paths
            .iter()
            .map(|q| monitor.path(q.from, q.to).expect("qospath traverses"))
            .collect::<Vec<_>>()
    };
    let per_path = timed(SETUP_LAYER_REPS, || find_all(&monitor));
    m.put(
        "topology.find_path_us",
        us(per_path) / model.qos_paths.len().max(1) as f64,
        "us",
    );
    let paths = find_all(&monitor);

    // Phase B's store: a copy of the history on `ops-1k`, else empty.
    let store_dir = work.join("layers-lts");
    if let Some(h) = &inputs.history {
        inputs::copy_tree(&h.pristine, &store_dir);
    }
    let open_store =
        |counters| LtsStore::open(&store_dir, inputs::lts_config(), counters).expect("open store");
    m.put(
        "lts.open_ms",
        ms(timed(SETUP_LAYER_REPS, || {
            open_store(LtsCounters::detached())
        })),
        "ms",
    );

    for ifs in [1, 25] {
        snmp_layers(&mut m, ifs);
    }

    // Phase A: the service, warmed up as in the end-to-end run.
    let unit = workload.unit_ticks();
    let mut svc = inputs::build_service(inputs, inputs.live_store()).expect("service builds");
    let mut ticks = 0;
    while ticks < 2 || ticks % unit != 0 {
        e2e::tick(&mut svc);
        ticks += 1;
    }
    let mut service = ServiceRounds::default();

    // Phase B.
    let mut net = build_net();
    let registry = net.telemetry().registry().clone();
    let mut qos = QosMonitor::new(&monitor, &model.qos_paths).expect("qos monitor");
    let lts_counters = LtsCounters::register_in(&registry);
    let appends = lts_counters.appends.clone();
    let mut store = open_store(lts_counters);
    let rules = inputs::record_rules();
    let record_counters = RecordingCounters::detached();
    let mut sampler = RegistrySampler::new();
    let source: Arc<dyn SeriesSource> = if with_store {
        Arc::new(LtsSource::new(LtsReader::open(&store_dir)))
    } else {
        Arc::new(RegistrySource::new(registry.clone()))
    };
    let engine = QueryEngine::new().with_source(None, source);
    let epoch = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock after 1970")
        .as_secs();
    let nodes = net.pollable_nodes();
    let counter = |name: &str| registry.counter(name).get();
    let period = SimDuration::from_secs(1);

    let mut round_no = 0u64;
    let mut run_round = |net: &mut SimNetwork,
                         monitor: &mut NetworkMonitor,
                         qos: &mut QosMonitor,
                         store: &mut LtsStore|
     -> Round {
        round_no += 1;
        let mut r = Round::default();
        let stats0 = net.lan.stats();
        let (timeouts0, retrans0) = (
            counter("netqos_monitor_poll_timeouts_total"),
            counter("netqos_monitor_poll_retransmits_total"),
        );
        let next = net.lan.now() + period;
        let start = Instant::now();
        net.run_until(next);
        r.run_until = start.elapsed();
        let sim0 = net.lan.now();
        for &node in &nodes {
            r.polls += 1;
            let start = Instant::now();
            let snap = net.poll_device(node);
            r.poll += start.elapsed();
            if let Ok(snap) = snap {
                let start = Instant::now();
                monitor.ingest(node, snap).expect("ingest");
                r.ingest += start.elapsed();
                r.polls_ok += 1;
            }
        }
        r.poll_sim_ms = net.lan.now().duration_since(sim0).as_secs_f64() * 1e3;
        let start = Instant::now();
        for p in &paths {
            if monitor.path_bandwidth_of(p).is_ok() {
                r.paths_ok += 1;
            }
        }
        r.path_eval = start.elapsed();
        let start = Instant::now();
        black_box(qos.evaluate(monitor));
        r.qos = start.elapsed();
        let t_unix = epoch + net.lan.now().as_secs_f64() as u64;
        let appends0 = appends.get();
        let start = Instant::now();
        sampler.sample(&registry, store, t_unix);
        r.lts_sample = start.elapsed();
        r.points = appends.get() - appends0;
        if round_no.is_multiple_of(SAVE_TICKS) {
            let start = Instant::now();
            store.compact().expect("compact store");
            r.compact = Some(start.elapsed());
            let engine = QueryEngine::new()
                .with_source(None, Arc::new(LtsSource::new(LtsReader::open(&store_dir))));
            let start = Instant::now();
            evaluate_record_rules(&rules, &engine, store, t_unix, &record_counters);
            store.flush().expect("flush store");
            r.record = Some(start.elapsed());
        }
        let stats1 = net.lan.stats();
        r.frames = stats1.frames_delivered - stats0.frames_delivered;
        r.floods = stats1.frames_flooded - stats0.frames_flooded;
        r.timeouts = counter("netqos_monitor_poll_timeouts_total") - timeouts0;
        r.retransmits = counter("netqos_monitor_poll_retransmits_total") - retrans0;
        r
    };

    let mut live = LivePolls::default();
    let push_live = |live: &mut LivePolls, net: &SimNetwork, r: &Round| {
        live.push(net.lan.now().as_secs_f64() as u64, r.polls_ok)
    };
    let cold = run_round(&mut net, &mut monitor, &mut qos, &mut store);
    push_live(&mut live, &net, &cold);
    let mut ticks = 1;
    while ticks < 2 || ticks % unit != 0 {
        let r = run_round(&mut net, &mut monitor, &mut qos, &mut store);
        push_live(&mut live, &net, &r);
        ticks += 1;
    }
    let expected_fail = e2e::expected_poll_failures(&nodes, monitor.topology());
    let mut rounds: Vec<Round> = Vec::new();
    let mut tallies = Tallies::default();
    let mut queries = QueryLog::default();
    // Units of the two phases alternate, so both see the same machine;
    // phase A flips the tracer every unit.
    // Runs past the deadline until a save round has been timed.
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut flipped = false;
    while Instant::now() < deadline || !rounds.iter().any(|r| r.compact.is_some()) {
        let traced = workload.traced() != flipped;
        svc.set_tracing(traced);
        for _ in 0..unit {
            let wall = ms(e2e::tick(&mut svc).wall);
            if !flipped {
                service.own_ms.push(wall);
            }
            if traced {
                service.traced_ms.push(wall);
            } else {
                service.untraced_ms.push(wall);
            }
        }
        flipped = !flipped;
        for _ in 0..unit {
            let r = run_round(&mut net, &mut monitor, &mut qos, &mut store);
            push_live(&mut live, &net, &r);
            tallies.polls.add(r.polls, r.polls - r.polls_ok);
            tallies
                .paths
                .add(paths.len() as u64, paths.len() as u64 - r.paths_ok);
            if r.polls - r.polls_ok != expected_fail {
                verdict.fail(format!(
                    "{} polls failed in a round, expected {expected_fail}",
                    r.polls - r.polls_ok
                ));
            }
            rounds.push(r);
        }
        if let Err(e) = e2e::query_mix(inputs, &engine, &live, &mut queries) {
            verdict.fail(e);
        }
    }
    tallies
        .queries
        .add(queries.latency_ms.len() as u64, queries.failed);

    let per_round =
        |f: &dyn Fn(&Round) -> f64| -> f64 { median(&rounds.iter().map(f).collect::<Vec<_>>()) };
    let saves: Vec<&Round> = rounds.iter().filter(|r| r.compact.is_some()).collect();
    let per_save = |f: &dyn Fn(&Round) -> Option<Duration>| -> f64 {
        median(
            &saves
                .iter()
                .filter_map(|r| f(r))
                .map(ms)
                .collect::<Vec<_>>(),
        )
    };
    m.put("sim.run_until_ms", per_round(&|r| ms(r.run_until)), "ms");
    m.put(
        "sim.frames_per_round",
        per_round(&|r| r.frames as f64),
        "count",
    );
    m.put("sim.floods_cold", cold.floods as f64, "count");
    m.put(
        "sim.floods_per_round",
        per_round(&|r| r.floods as f64),
        "count",
    );
    m.put(
        "poll.device_us",
        per_round(&|r| us(r.poll) / r.polls as f64),
        "us",
    );
    m.put("poll.sim_ms", per_round(&|r| r.poll_sim_ms), "ms");
    m.put(
        "poll.timeouts_per_round",
        per_round(&|r| r.timeouts as f64),
        "count",
    );
    m.put(
        "poll.retransmits_per_round",
        per_round(&|r| r.retransmits as f64),
        "count",
    );
    m.put(
        "monitor.ingest_us",
        per_round(&|r| us(r.ingest) / r.polls_ok.max(1) as f64),
        "us",
    );
    m.put(
        "topology.path_eval_us",
        per_round(&|r| us(r.path_eval) / paths.len().max(1) as f64),
        "us",
    );
    m.put("qos.evaluate_ms", per_round(&|r| ms(r.qos)), "ms");
    m.put(
        "lts.append_us",
        per_round(&|r| us(r.lts_sample) / r.points.max(1) as f64),
        "us",
    );
    m.put(
        "lts.points_per_round",
        per_round(&|r| r.points as f64),
        "count",
    );
    m.put("lts.compact_ms", per_save(&|r| r.compact), "ms");
    m.put("lts.bytes_on_disk", dir_bytes(&store_dir) as f64, "B");
    m.put("record.eval_ms", per_save(&|r| r.record), "ms");
    m.put("query.eval_ms", median(&queries.latency_ms), "ms");
    m.put(
        "query.points_scanned",
        mean(&queries.points_scanned),
        "count",
    );

    let round_ms = median(&service.own_ms);
    let layers_ms = per_round(&|r| ms(r.layers(with_store)));
    m.put("service.round_ms", round_ms, "ms");
    m.put("service.self_ms", round_ms - layers_ms, "ms");
    m.put("layers.share_pct", 100.0 * layers_ms / round_ms, "%");
    m.put(
        "trace.overhead_ms",
        median(&service.traced_ms) - median(&service.untraced_ms),
        "ms",
    );
    eprintln!(
        "{}: phase A {} service rounds, phase B {} rounds, {} queries",
        workload.name(),
        service.own_ms.len(),
        rounds.len(),
        queries.latency_ms.len()
    );
    (m, verdict.into_result(), tallies)
}
