//! Workload inputs, made from the seed alone: the spec text, the
//! constant loads, the pre-written store history and the query mix.
//! The program under test receives only what is built here.

use crate::util::Rng;
use netqos_monitor::service::{MonitoringService, ServiceConfig};
use netqos_monitor::simnet::SimNetworkOptions;
use netqos_monitor::MonitorError;
use netqos_sim::packet::{ECHO_PORT, ETH_OVERHEAD, IP_HEADER, MIN_FRAME, UDP_HEADER};
use netqos_sim::traffic::CbrSource;
use netqos_sim::Ipv4Addr;
use netqos_spec::{generate_spec, parse_and_validate, GenParams, SpecModel};
use netqos_telemetry::{
    parse_record_rules, LtsConfig, LtsCounters, LtsRetention, LtsStore, PointValue,
};
use std::path::{Path, PathBuf};

/// The benchmark's workloads (names as in `BENCHMARK.json`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Access3k,
    Paths2k,
    Ops1k,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "access-3k" => Some(Workload::Access3k),
            "paths-2k" => Some(Workload::Paths2k),
            "ops-1k" => Some(Workload::Ops1k),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Access3k => "access-3k",
            Workload::Paths2k => "paths-2k",
            Workload::Ops1k => "ops-1k",
        }
    }

    fn gen_params(self) -> GenParams {
        match self {
            Workload::Access3k => GenParams {
                hosts: 3_000,
                ..GenParams::default()
            },
            // 12 full 24-port access switches (23 host ports + uplink).
            Workload::Paths2k => GenParams {
                hosts: 12 * 23,
                hosts_per_ap: 23,
                qos_paths: 2_000,
                ..GenParams::default()
            },
            Workload::Ops1k => GenParams {
                hosts: 1_000,
                ..GenParams::default()
            },
        }
    }

    /// Ticks per benchmark unit: a unit is always attempted whole, and
    /// the query mix runs once after each unit. `SAVE_TICKS` is a whole
    /// number of units, so every save tick ends a unit.
    pub fn unit_ticks(self) -> usize {
        match self {
            Workload::Ops1k => 5,
            _ => 1,
        }
    }

    /// Every how many extra set-up samples one runs its cold round: all
    /// of them where a cold round is cheap, every fourth on `access-3k`,
    /// whose cold round floods 3000 hosts for ~2.5 s.
    pub fn cold_every(self) -> usize {
        match self {
            Workload::Access3k => 4,
            _ => 1,
        }
    }

    /// Whether the workload runs with the program's tracer on.
    pub fn traced(self) -> bool {
        self == Workload::Ops1k
    }
}

/// Store save cadence on `ops-1k`: every 20th tick flushes, compacts and
/// runs the recording rules. Save ticks are 4–5x slower than the others
/// and their cost swings with the disk, so they are kept under a tenth
/// of all rounds: `round_p90_ms` then reads the tail of ordinary rounds,
/// and the save ticks show in `polls_per_s` (about a fifth of the wall
/// time) and in the layer metrics.
pub const SAVE_TICKS: u64 = 20;

/// Pre-written store history on `ops-1k`, in seconds of 1 s points.
pub const HISTORY_SECS: u64 = 4 * 3600;

/// Paths of the generated spec that the pre-written history covers.
const HISTORY_PATHS: usize = 8;

/// Seconds between the newest pre-written point and the wall clock at
/// set-up, so live points (stamped from the service's own wall-clock
/// epoch) always land after the history.
const HISTORY_GAP_SECS: u64 = 10;

/// The monitoring host of every generated topology (AP 0, host 0).
pub const MONITOR_HOST: &str = "h0-0";

/// Responses over one unfragmented UDP datagram (1472 B) start at this
/// many interfaces, and the simulator never reassembles fragments: the
/// poll of such a device times out every round.
pub const FRAGMENTING_IF_COUNT: usize = 13;

/// A constant-rate UDP load sent to the receiver's echo service, so the
/// same bytes flow back and every switch on the way learns both ends
/// (a load into the discard port would stay unknown unicast and flood
/// forever).
#[derive(Debug, Clone)]
pub struct Load {
    pub from: String,
    pub to: String,
    pub payload_bytes_per_sec: u64,
    pub chunk_bytes: usize,
}

impl Load {
    /// Bits per second this load puts on each interface it leaves or
    /// enters, counted the way MIB-II counts octets: Ethernet header,
    /// IP and UDP headers and FCS, padded to the 64-byte minimum frame.
    pub fn wire_bps(&self) -> f64 {
        let frame = (self.chunk_bytes + IP_HEADER + UDP_HEADER + ETH_OVERHEAD).max(MIN_FRAME);
        let frames_per_sec = self.payload_bytes_per_sec as f64 / self.chunk_bytes as f64;
        frames_per_sec * frame as f64 * 8.0
    }
}

/// Everything one run feeds the program.
pub struct Inputs {
    pub workload: Workload,
    pub spec: String,
    pub loads: Vec<Load>,
    /// `ops-1k` only: the store directory and what was written to it.
    pub history: Option<History>,
    pub queries: QueryMix,
    pub seed: u64,
}

/// The pre-written history of `ops-1k`.
pub struct History {
    /// The store the monitor opens and writes to.
    pub dir: PathBuf,
    /// An untouched copy, opened by set-up samples and copied for the
    /// layer-timed run's own pipeline.
    pub pristine: PathBuf,
    /// Unix second of the first and last pre-written point.
    pub first_t: u64,
    pub last_t: u64,
    /// `netqos_monitor_polls_total` deltas, one per second from `first_t`.
    pub polls: Vec<u64>,
    /// Per path: `netqos_path_used_bps` and `netqos_path_available_bps`
    /// levels, one per second from `first_t`.
    pub used: Vec<Vec<i64>>,
    pub available: Vec<Vec<i64>>,
}

/// The dashboard query mix, issued after every unit.
pub struct QueryMix {
    /// Instants inside the pre-written window, one per unit, drawn from
    /// the seed (registry workloads ignore them).
    rng: Rng,
}

impl QueryMix {
    /// A pre-written instant at least one hour after the first point, so
    /// `increase(...[1h])` reads a full window of history.
    pub fn history_instant(&mut self, h: &History) -> u64 {
        h.first_t + 3600 + self.rng.below(h.last_t - h.first_t - 3600 + 1)
    }
}

/// Instant queries on historic data (evaluated at a pre-written instant).
pub const HISTORY_QUERIES: [&str; 3] = [
    "sum(netqos_path_used_bps)",
    "max(netqos_path_available_bps)",
    "increase(netqos_monitor_polls_total[1h])",
];

/// Instant queries at the newest live instant.
pub const LIVE_QUERIES: [&str; 3] = [
    "rate(netqos_monitor_polls_total[1m])",
    "netqos_monitor_polls_total",
    "histogram_quantile(0.9, netqos_monitor_poll_rtt_us[5m])",
];

/// Range queries at a 60 s step over the whole history up to the live
/// instant (240 steps). All three read the same counter, on every
/// source, so they cost alike and `query_p90_ms` falls inside their
/// group rather than on the edge between two kinds of query.
pub const RANGE_QUERIES: [&str; 3] = [
    "rate(netqos_monitor_polls_total[5m])",
    "increase(netqos_monitor_polls_total[5m])",
    "netqos_monitor_polls_total",
];

pub const RANGE_STEP_SECS: u64 = 60;

pub fn make_inputs(workload: Workload, seed: u64, work_dir: &Path) -> Inputs {
    let mut rng = Rng::new(seed ^ 0x6e65_7471_6f73);
    let params = workload.gen_params();
    let mut spec = generate_spec(&params);
    if workload == Workload::Paths2k {
        spec = manage_switches(&spec);
    }
    let model = parse_and_validate(&spec).expect("generated spec validates");
    let loads = match workload {
        Workload::Paths2k => path_loads(&model, &params, &mut rng, 4),
        Workload::Access3k => host_loads(&params, &mut rng, 6),
        Workload::Ops1k => host_loads(&params, &mut rng, 4),
    };
    let history = (workload == Workload::Ops1k)
        .then(|| write_history(&work_dir.join("lts"), &model, &mut rng));
    Inputs {
        workload,
        spec,
        loads,
        history,
        queries: QueryMix {
            rng: Rng::new(rng.next()),
        },
        seed,
    }
}

/// Gives every switch of the generated text a management address and a
/// community, as managed access gear has.
fn manage_switches(spec: &str) -> String {
    let mut out = String::with_capacity(spec.len() + 4096);
    let mut n = 0usize;
    for line in spec.lines() {
        out.push_str(line);
        out.push('\n');
        if line.starts_with("device ") && line.ends_with(" switch {") {
            out.push_str(&format!(
                "    address 10.254.{}.{};\n    snmp community \"public\";\n",
                n / 250,
                n % 250 + 1
            ));
            n += 1;
        }
    }
    out
}

fn is_hub_ap(params: &GenParams, g: usize) -> bool {
    params.hub_every != 0 && (g + 1).is_multiple_of(params.hub_every)
}

/// A load of `frames_per_sec` datagrams of a seeded size in
/// `min_chunk..=1400` B (one frame each). The frame rate is fixed per
/// workload, so every seed puts the same number of frames on the wire.
fn load_shape(rng: &mut Rng, frames_per_sec: u64, min_chunk: u64) -> (u64, usize) {
    let chunk = min_chunk + rng.below(1_400 - min_chunk + 1);
    (frames_per_sec * chunk, chunk as usize)
}

/// `count` loads between hosts on switched access points of two
/// different sites (so every load crosses the core), other than the
/// monitor's AP, no AP in two loads. 250 frames/s of 600–1400 B:
/// 1.2–2.8 Mb/s of payload.
fn host_loads(params: &GenParams, rng: &mut Rng, count: usize) -> Vec<Load> {
    let aps = params.ap_count();
    let site = |g: usize| g / params.aps_per_site;
    let switched: Vec<usize> = (1..aps).filter(|&g| !is_hub_ap(params, g)).collect();
    let mut used_aps = Vec::new();
    let mut pick_ap = |rng: &mut Rng, other_site: Option<usize>| loop {
        let g = switched[rng.below(switched.len() as u64) as usize];
        if !used_aps.contains(&g) && other_site != Some(site(g)) {
            used_aps.push(g);
            return g;
        }
    };
    (0..count)
        .map(|_| {
            let from_ap = pick_ap(rng, None);
            let to_ap = pick_ap(rng, Some(site(from_ap)));
            let i = rng.below(params.hosts_per_ap as u64);
            let j = rng.below(params.hosts_per_ap as u64);
            let (rate, chunk) = load_shape(rng, 250, 600);
            Load {
                from: format!("h{from_ap}-{i}"),
                to: format!("h{to_ap}-{j}"),
                payload_bytes_per_sec: rate,
                chunk_bytes: chunk,
            }
        })
        .collect()
}

/// `count` loads that ride qospaths end to end: both endpoints on
/// switched access points of different sites, other than the
/// monitor's, no host in two loads. 100 frames/s of 1000–1400 B:
/// 0.8–1.1 Mb/s of payload.
fn path_loads(model: &SpecModel, params: &GenParams, rng: &mut Rng, count: usize) -> Vec<Load> {
    let topo = &model.topology;
    let ap_of = |name: &str| -> usize {
        name[1..]
            .split('-')
            .next()
            .and_then(|g| g.parse().ok())
            .expect("generated host names are h<ap>-<i>")
    };
    let mut candidates: Vec<(String, String)> = model
        .qos_paths
        .iter()
        .map(|q| {
            (
                topo.node(q.from).expect("path endpoint").name.clone(),
                topo.node(q.to).expect("path endpoint").name.clone(),
            )
        })
        .filter(|(a, b)| {
            let (ga, gb) = (ap_of(a), ap_of(b));
            ga / params.aps_per_site != gb / params.aps_per_site
                && [ga, gb].iter().all(|&g| g != 0 && !is_hub_ap(params, g))
        })
        .collect();
    candidates.dedup();
    let mut loads: Vec<Load> = Vec::new();
    while loads.len() < count && !candidates.is_empty() {
        let (from, to) = candidates.swap_remove(rng.below(candidates.len() as u64) as usize);
        if loads
            .iter()
            .any(|l| [&l.from, &l.to].iter().any(|h| **h == from || **h == to))
        {
            continue;
        }
        let (rate, chunk) = load_shape(rng, 100, 1_000);
        loads.push(Load {
            from,
            to,
            payload_bytes_per_sec: rate,
            chunk_bytes: chunk,
        });
    }
    assert_eq!(loads.len(), count, "not enough disjoint loaded paths");
    loads
}

/// Writes `HISTORY_SECS` of 1 s points under the monitor's own series
/// names, ending `HISTORY_GAP_SECS` before now, then compacts, so the
/// service opens a store in the state a long-running monitor leaves.
fn write_history(dir: &Path, model: &SpecModel, rng: &mut Rng) -> History {
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock after 1970")
        .as_secs();
    let last_t = now - HISTORY_GAP_SECS;
    let first_t = last_t - HISTORY_SECS + 1;
    let n = HISTORY_SECS as usize;
    let polls: Vec<u64> = (0..n).map(|_| 990 + rng.below(11)).collect();
    let paths: Vec<&str> = model
        .qos_paths
        .iter()
        .take(HISTORY_PATHS)
        .map(|q| q.name.as_str())
        .collect();
    let mut used = Vec::new();
    let mut available: Vec<Vec<i64>> = Vec::new();
    for _ in &paths {
        let base = 200_000 + rng.below(2_000_000) as i64;
        let u: Vec<i64> = (0..n).map(|_| base + rng.below(50_000) as i64).collect();
        available.push(u.iter().map(|v| 100_000_000 - v).collect());
        used.push(u);
    }
    let _ = std::fs::remove_dir_all(dir);
    let mut store =
        LtsStore::open(dir, lts_config(), LtsCounters::detached()).expect("open history");
    for (i, t) in (first_t..=last_t).enumerate() {
        store.append(
            "netqos_monitor_polls_total",
            t,
            PointValue::Counter(polls[i]),
        );
        for (p, name) in paths.iter().enumerate() {
            store.append(
                &format!("netqos_path_used_bps{{path=\"{name}\"}}"),
                t,
                PointValue::Gauge(used[p][i]),
            );
            store.append(
                &format!("netqos_path_available_bps{{path=\"{name}\"}}"),
                t,
                PointValue::Gauge(available[p][i]),
            );
        }
    }
    store.compact().expect("compact history");
    let pristine = dir.with_extension("pristine");
    copy_tree(dir, &pristine);
    History {
        dir: dir.to_path_buf(),
        pristine,
        first_t,
        last_t,
        polls,
        used,
        available,
    }
}

/// Store settings: no retention, so a run never deletes history it
/// then queries.
pub fn lts_config() -> LtsConfig {
    LtsConfig {
        retention: NO_RETENTION,
        ..LtsConfig::default()
    }
}

const NO_RETENTION: LtsRetention = LtsRetention {
    max_age_secs: 0,
    max_bytes: 0,
};

/// The program's shipped recording rules.
pub fn record_rules() -> Vec<netqos_telemetry::RecordRule> {
    parse_record_rules(include_str!("../../specs/record.rules"))
        .expect("shipped recording rules parse")
}

/// Copies a directory tree (a store).
pub fn copy_tree(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("create store copy");
    for entry in std::fs::read_dir(from).expect("read store") {
        let entry = entry.expect("store entry");
        let dst = to.join(entry.file_name());
        if entry.file_type().expect("entry type").is_dir() {
            copy_tree(&entry.path(), &dst);
        } else {
            std::fs::copy(entry.path(), &dst).expect("copy store file");
        }
    }
}

impl Inputs {
    /// The store the monitor writes to, if the workload has one.
    pub fn live_store(&self) -> Option<&Path> {
        self.history.as_ref().map(|h| h.dir.as_path())
    }
}

/// The monitor's configuration for the workload, with its store (if
/// any) at `store`.
pub fn service_config(store: Option<&Path>) -> ServiceConfig {
    let mut config = ServiceConfig::default();
    if let Some(dir) = store {
        config.lts_dir = Some(dir.to_path_buf());
        config.lts_retention = NO_RETENTION;
        config.lts_compact = true;
        config.baseline_save_ticks = SAVE_TICKS;
        config.record_rules = record_rules();
    }
    config
}

pub fn net_options(inputs: &Inputs) -> SimNetworkOptions {
    SimNetworkOptions {
        monitor_host: MONITOR_HOST.into(),
        seed: inputs.seed,
        ..SimNetworkOptions::default()
    }
}

/// Installs the loads' senders into a network being built.
pub fn install_loads(
    loads: &[Load],
    b: &mut netqos_sim::LanBuilder,
    devs: &std::collections::HashMap<netqos_topology::NodeId, netqos_sim::DeviceId>,
    model: &SpecModel,
) {
    for l in loads {
        let from = model.topology.node_by_name(&l.from).expect("load sender");
        let to = model.topology.node_by_name(&l.to).expect("load receiver");
        let dst: Ipv4Addr = model.addresses[&to].parse().expect("receiver address");
        let src = CbrSource::new(dst, ECHO_PORT, l.payload_bytes_per_sec, l.chunk_bytes);
        b.install_app(devs[&from], Box::new(src), None)
            .expect("install load");
    }
}

/// Spec text → ready service: parse and validate, build the simulated
/// network with its loads, traverse every qospath, open the store at
/// `store`.
pub fn build_service(
    inputs: &Inputs,
    store: Option<&Path>,
) -> Result<MonitoringService, MonitorError> {
    let model =
        parse_and_validate(&inputs.spec).map_err(|e| MonitorError::Topology(e.to_string()))?;
    let mut svc = MonitoringService::from_model_with(
        model,
        net_options(inputs),
        service_config(store),
        |b, devs, model| install_loads(&inputs.loads, b, devs, model),
    )?;
    svc.set_tracing(inputs.workload.traced());
    Ok(svc)
}
