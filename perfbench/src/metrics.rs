//! The metric registry, sample statistics and the result line.
//!
//! Every metric the benchmark can print is declared once in
//! [`END_TO_END`] or [`PER_LAYER`]; `BENCHMARK.json` lists the same names
//! (a test keeps the two in step). A run prints one JSON object as the
//! last line of standard output:
//!
//! ```json
//! {"correct": true, "attempted": 12, "failed": 0,
//!  "metrics": {"clean_p50_ms": {"value": 812.5, "unit": "ms"}}}
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory, crowd cost).
    Lower,
    /// Larger is better (quality, hit rates).
    Higher,
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics, measured with tracing off. Every workload prints
/// every one of them.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", Lower),
    m("clean_p50_ms", "ms", Lower),
    m("crowd_questions", "count", Lower),
    m("pattern_f1", "ratio", Higher),
    m("peak_rss_mb", "MiB", Lower),
];

/// Per-layer metrics, from the separate traced run. Every workload
/// prints every one of them; a layer a workload does not exercise reads 0
/// (only counts and ratios can: every time here is measured on every
/// workload).
pub const PER_LAYER: &[MetricDef] = &[
    // kb::ntriples
    m("ntriples.parse_s", "s", Lower),
    // kb::label_index
    m("label_index.exact_n", "count", Lower),
    m("label_index.fuzzy_n", "count", Lower),
    m("label_index.lookup_ms", "ms", Lower),
    m("label_index.fuzzy_time_frac", "ratio", Lower),
    m("label_index.fuzzy_hit_frac", "ratio", Higher),
    // kb::store
    m("store.types_ms", "ms", Lower),
    m("store.pair_probe_ms", "ms", Lower),
    m("store.clone_ms", "ms", Lower),
    m("store.apply_delta_ms", "ms", Lower),
    // kb::journal
    m("journal.append_ms", "ms", Lower),
    m("journal.checkpoint_ms", "ms", Lower),
    m("journal.replay_ms", "ms", Lower),
    m("journal.fsyncs", "count", Lower),
    // core::resolve
    m("resolve.build_ms", "ms", Lower),
    m("resolve.distinct_values", "count", Lower),
    m("resolve.fallbacks", "count", Lower),
    m("resolve.hit_frac", "ratio", Higher),
    // discover: core::candidates + core::rank_join
    m("discover.ms", "ms", Lower),
    m("discovery.rel_probes", "count", Lower),
    m("discovery.type_probes", "count", Lower),
    m("discovery.heap_pops", "count", Lower),
    // core::validation and crowd
    m("validate.ms", "ms", Lower),
    m("validation.questions", "count", Lower),
    m("crowd.questions_asked", "count", Lower),
    // core::annotation
    m("annotate.ms", "ms", Lower),
    m("annotate.match_ms", "ms", Lower),
    m("annotate.enrich_ms", "ms", Lower),
    m("annotation.crowd_questions", "count", Lower),
    m("annotation.enriched_facts", "count", Lower),
    // core::repair
    m("repair.index_ms", "ms", Lower),
    m("repair.topk_ms", "ms", Lower),
    m("repair.graphs_built", "count", Lower),
    m("repair.tuples_repaired", "count", Higher),
    m("repair.f1", "ratio", Higher),
    // core::delta
    m("delta.bootstrap_ms", "ms", Lower),
    m("delta.replay_ms", "ms", Lower),
    m("delta.replay_p90_ms", "ms", Lower),
    m("delta.values_resolved", "count", Lower),
    m("delta.tuples_touched", "count", Lower),
    // serve
    m("serve.requests", "count", Higher),
    m("serve.snapshot_hit_frac", "ratio", Higher),
    m("serve.shed", "count", Lower),
    m("serve.rebootstraps", "count", Lower),
    // the traced run itself
    m("trace.overhead_ms", "ms", Lower),
];

/// True when `name` is a valid metric or workload name: starts with a
/// letter or digit, at most 64 characters of letters, digits, `_`, `.`
/// and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// True when `unit` is a valid unit: 1–16 characters of letters, digits,
/// `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The `q`-quantile (0..=1) of `xs` by linear interpolation between
/// order statistics; `NaN` for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: std::time::Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Time one call, in milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = std::time::Instant::now();
    let out = f();
    (out, ms_since(t))
}

/// Peak resident set size of this process so far, in MiB
/// (`getrusage(RUSAGE_SELF).ru_maxrss`).
pub fn peak_rss_mb() -> f64 {
    #[repr(C)]
    struct RUsage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `RUsage` matches the C `struct rusage` layout on 64-bit
    // Linux (two timevals then fourteen longs), and the pointer is valid
    // for the duration of the call.
    let rc = unsafe { getrusage(0, &mut usage) };
    if rc != 0 {
        return f64::NAN;
    }
    // ru_maxrss is in KiB on Linux.
    usage.maxrss as f64 / 1024.0
}

/// What one run measured: named values plus the operation tally and the
/// outcome of every correctness check.
#[derive(Debug, Default)]
pub struct RunResult {
    values: BTreeMap<&'static str, f64>,
    /// Operations attempted (cleans, delta replays, requests).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Correctness checks that did not hold, as messages.
    pub check_failures: Vec<String>,
}

impl RunResult {
    /// Record a metric value (overwriting any earlier one).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// A recorded value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Record a correctness check; a false `ok` fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("perfbench: CHECK FAILED: {msg}");
            self.check_failures.push(msg);
        }
    }

    /// Count one operation and whether it failed.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Render the result line for the given metric set. A declared metric
    /// the run did not record is a check failure (and is left out).
    pub fn to_json(&mut self, defs: &[MetricDef]) -> String {
        let mut body = String::new();
        let mut missing = Vec::new();
        for def in defs {
            match self.values.get(def.name) {
                Some(v) if v.is_finite() => {
                    if !body.is_empty() {
                        body.push_str(", ");
                    }
                    let _ = write!(
                        body,
                        "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                        def.name,
                        json_number(*v),
                        def.unit
                    );
                }
                _ => missing.push(def.name),
            }
        }
        for name in missing {
            self.check(false, || format!("metric {name} was not measured"));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            self.check_failures.is_empty() && self.failed == 0,
            self.attempted.max(1),
            self.failed
        )
    }
}

/// A finite f64 as a JSON number with every digit Rust's shortest
/// round-trip formatting gives.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn result_line_has_exactly_the_declared_metrics() {
        let mut r = RunResult::default();
        r.set("setup_s", 1.25);
        r.op(true);
        let line = r.to_json(&END_TO_END[..1]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
        let line = r.to_json(&END_TO_END[..2]);
        assert!(line.starts_with("{\"correct\": false"), "{line}");
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
