//! Statistics, seeded inputs, host diagnostics and the result line.

use std::fmt::Write as _;
use std::hint::black_box;

use sbm_aig::{Aig, Lit};
use sbm_metrics::Timer;

/// splitmix64 step: the benchmark's only source of randomness, so one
/// seed always yields the same inputs and the same job order.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded generator; `stream` separates independent uses of one seed
/// (one stream per design, one for the job order).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut state = seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        splitmix64(&mut state);
        Rng(state)
    }

    fn below(&mut self, n: usize) -> usize {
        (splitmix64(&mut self.0) % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Rebuilds `aig` with its primary inputs in a seeded order: new input
/// `j` is old input `perm[j]`. Outputs keep their order, so the result
/// computes the same functions of a reordered input vector.
pub fn permute_inputs(aig: &Aig, rng: &mut Rng) -> Aig {
    let src = aig.cleanup();
    let mut perm: Vec<usize> = (0..src.num_inputs()).collect();
    rng.shuffle(&mut perm);
    let mut map = vec![Lit::FALSE; src.num_nodes()];
    let mut out = Aig::new();
    for &old in &perm {
        map[src.inputs()[old].index()] = out.add_input();
    }
    let tr = |map: &[Lit], l: Lit| map[l.node().index()].complement_if(l.is_complemented());
    for id in src.topo_order() {
        let (a, b) = src.fanins(id);
        map[id.index()] = out.and(tr(&map, a), tr(&map, b));
    }
    for o in src.outputs() {
        out.add_output(tr(&map, o));
    }
    out.cleanup()
}

/// Median (mean of the two middle values for an even count); 0 for none.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` in (0, 1]; 0 for no values.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Fixed-work CPU probe in milliseconds. The work never changes, so a
/// reading above the usual one means the host ran slow at that moment,
/// not that the program did.
pub fn probe_ms() -> f64 {
    let timer = Timer::start();
    let mut state = 0u64;
    let mut acc = 0u64;
    for _ in 0..20_000_000u32 {
        acc ^= splitmix64(black_box(&mut state));
    }
    black_box(acc);
    timer.stop().as_secs_f64() * 1e3
}

/// Peak resident set of this process in MiB (`VmHWM`), if the kernel
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Named metrics in the order they were recorded.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// Names of metrics whose value is not a finite number.
    pub fn non_finite(&self) -> Vec<&str> {
        self.0
            .iter()
            .filter(|(_, v, _)| !v.is_finite())
            .map(|(n, _, _)| n.as_str())
            .collect()
    }

    /// Human-readable table, one metric a line.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.0 {
            let _ = writeln!(out, "  {name:<32} {value:>16.6} {unit}");
        }
        out
    }

    /// The benchmark's result object, on one line.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}
