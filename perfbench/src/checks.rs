//! Outcome checks, each computed apart from the program: rates against
//! the generated loads, path bandwidth against the benchmark's own
//! reading of the paper's model, query answers against the points the
//! benchmark wrote.

use crate::inputs::{History, Load};
use netqos_monitor::NetworkMonitor;
use netqos_topology::{CommPath, ConnId, Endpoint, IfIx, NetworkTopology, NodeId};

/// The paper's error class for one reported rate: at most 4% on
/// average and 8% on any single sample.
pub const MEAN_ERROR: f64 = 0.04;
pub const MAX_ERROR: f64 = 0.08;

/// Used bandwidth an unloaded path may show: the monitor's own SNMP
/// traffic, which is a few kb/s per station, far below the smallest
/// load (two directions of at least 0.8 Mb/s of payload).
pub const BACKGROUND_BPS: u64 = 100_000;

/// Relative errors of reported host-interface rates against the loads.
#[derive(Default)]
pub struct RateErrors {
    errors: Vec<f64>,
}

impl RateErrors {
    /// Samples every loaded host interface once. With the echo service
    /// each end sends and receives the load, so all four directions
    /// should read the load's wire rate. An interface without a rate
    /// counts as a 100% error.
    pub fn sample(&mut self, monitor: &NetworkMonitor, loads: &[Load]) {
        let topo = monitor.topology();
        for l in loads {
            let expected = l.wire_bps();
            for host in [&l.from, &l.to] {
                let node = topo.node_by_name(host).expect("load host");
                let r = monitor.if_rates(node, IfIx(0));
                for got in r.map_or([0, 0], |r| [r.in_bps, r.out_bps]) {
                    self.errors.push((got as f64 - expected).abs() / expected);
                }
            }
        }
    }

    /// `(samples, mean error, max error)`, or a failure message.
    pub fn verdict(&self) -> Result<(usize, f64, f64), String> {
        if self.errors.is_empty() {
            return Err("no loaded interface was sampled".into());
        }
        let mean = crate::util::mean(&self.errors);
        let max = self.errors.iter().copied().fold(0.0, f64::max);
        let out = (self.errors.len(), mean, max);
        if mean <= MEAN_ERROR && max <= MAX_ERROR {
            Ok(out)
        } else {
            Err(format!(
                "load rates outside the paper's class: {} samples, mean {:.4}, max {:.4}",
                out.0, out.1, out.2
            ))
        }
    }
}

/// The rates of `at`, or the mirrored rates of its far end `other`.
fn end_rates(monitor: &NetworkMonitor, at: Endpoint, other: Endpoint) -> Option<(u64, u64)> {
    if let Some(r) = monitor.if_rates(at.node, at.ifix) {
        return Some((r.in_bps, r.out_bps));
    }
    monitor
        .if_rates(other.node, other.ifix)
        .map(|r| (r.out_bps, r.in_bps))
}

/// Used bandwidth `u_i` of one connection: on a hub the sum of every
/// station's traffic in its collision domain (cascaded hubs join it,
/// uplinks to switches are counted at the stations), otherwise the
/// traffic seen at the host end (or either end between devices).
fn connection_used(monitor: &NetworkMonitor, conn: ConnId) -> Option<u64> {
    let topo = monitor.topology();
    let c = *topo.connection(conn).ok()?;
    let kind = |n: NodeId| topo.node(n).expect("connection endpoint").kind;
    let hub = [c.a.node, c.b.node]
        .into_iter()
        .find(|&n| kind(n).is_shared_medium());
    if let Some(hub) = hub {
        let mut domain = vec![hub];
        let mut i = 0;
        let mut sum = 0u64;
        while i < domain.len() {
            let h = domain[i];
            i += 1;
            for id in topo.connections_of(h) {
                let cc = topo.connection(id).ok()?;
                let (near, far) = (cc.endpoint_on(h)?, cc.other_end(h)?);
                let k = kind(far.node);
                if k.is_shared_medium() {
                    if !domain.contains(&far.node) {
                        domain.push(far.node);
                    }
                } else if !k.forwards_selectively() {
                    let (rx, tx) = end_rates(monitor, far, near)?;
                    sum += rx + tx;
                }
            }
        }
        return Some(sum);
    }
    let (first, second) = if kind(c.b.node).is_network_device() && kind(c.a.node).is_host() {
        (c.a, c.b)
    } else {
        (c.b, c.a)
    };
    end_rates(monitor, first, second).map(|(rx, tx)| rx + tx)
}

/// The paper's path model, computed here: `a_i = m_i − u_i` per
/// connection, `A = min a_i`, and the bottleneck's `u_i`. `None` when a
/// connection has no rate.
pub fn path_model(
    topo: &NetworkTopology,
    monitor: &NetworkMonitor,
    p: &CommPath,
) -> Option<(u64, u64)> {
    let mut best: Option<(u64, u64)> = None;
    for &conn in &p.connections {
        let m = topo.connection_speed(conn).ok()?;
        let u = connection_used(monitor, conn)?.min(m);
        let a = m - u;
        if best.is_none_or(|(ba, _)| a < ba) {
            best = Some((a, u));
        }
    }
    best
}

/// Compares the program's `path_bandwidth_of` with [`path_model`] on
/// every path; returns the number of paths compared.
pub fn check_path_model(monitor: &NetworkMonitor, paths: &[CommPath]) -> Result<usize, String> {
    let topo = monitor.topology();
    for (i, p) in paths.iter().enumerate() {
        let ours = path_model(topo, monitor, p);
        let theirs = monitor
            .path_bandwidth_of(p)
            .ok()
            .map(|bw| (bw.available_bps, bw.used_bps));
        if ours != theirs {
            return Err(format!(
                "path {i}: model (available, used) {ours:?} but the monitor reports {theirs:?}"
            ));
        }
    }
    Ok(paths.len())
}

/// Expected answers of the history queries at instant `t`, in
/// `HISTORY_QUERIES` order.
pub fn history_answers(h: &History, t: u64) -> [f64; 3] {
    let i = (t - h.first_t) as usize;
    let sum: i64 = h.used.iter().map(|s| s[i]).sum();
    let max = h
        .available
        .iter()
        .map(|s| s[i])
        .max()
        .expect("history paths");
    let lo = i + 1 - 3600;
    let inc: u64 = h.polls[lo..=i].iter().sum();
    [sum as f64, max as f64, inc as f64]
}

/// Sum of the pre-written poll deltas with time in `(after, upto]`.
pub fn history_polls(h: &History, after: u64, upto: u64) -> u64 {
    (h.first_t..=h.last_t)
        .zip(&h.polls)
        .filter(|(t, _)| *t > after && *t <= upto)
        .map(|(_, v)| v)
        .sum()
}

pub fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// `paths-2k`: the path model holds on every path; every loaded path's
/// used bandwidth (the load both ways, since it is echoed) is at least
/// its generated load in every sample; every path that shares no
/// connection with a load stays at background level in every sample.
pub fn paths_check(
    svc: &mut netqos_monitor::service::MonitoringService,
    loads: &[Load],
) -> Result<(), String> {
    let specs = svc.net_mut().model().qos_paths.clone();
    let monitor = svc.monitor();
    let topo = monitor.topology();
    let route = |from: NodeId, to: NodeId| monitor.path(from, to).expect("qospath traverses");
    let paths: Vec<CommPath> = specs.iter().map(|q| route(q.from, q.to)).collect();
    let n = check_path_model(monitor, &paths)?;
    let mut load_conns = Vec::new();
    let mut loaded = Vec::new();
    for l in loads {
        let from = topo.node_by_name(&l.from).expect("load host");
        let to = topo.node_by_name(&l.to).expect("load host");
        load_conns.extend(route(from, to).connections);
        loaded.push((from, to, 2.0 * l.wire_bps() * (1.0 - MAX_ERROR)));
    }
    let (mut n_loaded, mut n_quiet) = (0, 0);
    for (q, p) in specs.iter().zip(&paths) {
        let series = svc
            .recorder()
            .get(&q.name)
            .ok_or_else(|| format!("no series for {}", q.name))?;
        if series.samples.is_empty() {
            return Err(format!("path {} was never evaluated", q.name));
        }
        if let Some((_, _, floor)) = loaded.iter().find(|l| (l.0, l.1) == (q.from, q.to)) {
            n_loaded += 1;
            if let Some(s) = series.samples.iter().find(|s| (s.used_bps as f64) < *floor) {
                return Err(format!(
                    "loaded path {} reads {} b/s at t={:.1}s, below its load {floor:.0}",
                    q.name, s.used_bps, s.t_s
                ));
            }
        } else if p.connections.iter().all(|c| !load_conns.contains(c)) {
            n_quiet += 1;
            if let Some(s) = series.samples.iter().find(|s| s.used_bps > BACKGROUND_BPS) {
                return Err(format!(
                    "unloaded path {} reads {} b/s at t={:.1}s, above background",
                    q.name, s.used_bps, s.t_s
                ));
            }
        }
    }
    eprintln!("path model matched on {n} paths; {n_loaded} loaded, {n_quiet} background");
    Ok(())
}
