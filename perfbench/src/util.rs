//! Small shared pieces: the seeded generator, quantiles, peak memory and
//! the result line.

use std::fmt::Write as _;

/// SplitMix64: a tiny seeded generator, so inputs depend on `--seed`
/// and nothing else.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The `q`-quantile of `xs` by linear interpolation between order
/// statistics (`q` in `[0, 1]`).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Attempted and failed operations of one kind.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

/// Per-kind operation tallies of one run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tallies {
    pub polls: Tally,
    pub paths: Tally,
    pub queries: Tally,
}

/// Metrics in print order, each with its unit.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.push((name.to_owned(), value, unit));
    }

    /// Prints one human-readable line per metric and per operation kind,
    /// then the result object as the last line of stdout.
    pub fn print(&self, correct: bool, t: &Tallies) {
        for (name, value, unit) in &self.0 {
            println!("{name:>28} {value:>16.6} {unit}");
        }
        for (kind, k) in [
            ("polls", t.polls),
            ("paths", t.paths),
            ("queries", t.queries),
        ] {
            println!(
                "{:>28} attempted {} failed {}",
                format!("ops.{kind}"),
                k.attempted,
                k.failed
            );
        }
        let attempted = t.polls.attempted + t.paths.attempted + t.queries.attempted;
        let failed = t.polls.failed + t.paths.failed + t.queries.failed;
        let mut out =
            format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, ");
        out.push_str("\"metrics\": {");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        println!("{out}");
    }
}

/// The first failed outcome check of a run, if any.
#[derive(Default)]
pub struct Verdict(Option<String>);

impl Verdict {
    pub fn fail(&mut self, e: String) {
        self.0.get_or_insert(e);
    }

    pub fn into_result(self) -> Result<(), String> {
        self.0.map_or(Ok(()), Err)
    }
}
