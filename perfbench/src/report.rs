//! Metric names, the result line, and the human-readable notes printed
//! before it.

use crate::ladder::{Ladder, FAMILIES};
use crate::stats::{median, tail};

/// End-to-end metrics (untraced run), in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_minstr_per_s", "Minstr/s"),
    ("unit_ms.p50", "ms"),
    ("unit_ms.tail", "ms"),
    ("pass_ms.p50", "ms"),
    ("pass_ms.tail", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced run), in `BENCHMARK.json` order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = vec![
        ("workloads.next_op.ns_per_memop".into(), "ns/memop"),
        ("workloads.memops".into(), "count"),
        ("sim-cache.l1.ns_per_memop".into(), "ns/memop"),
        ("sim-cache.l1.hit_ratio".into(), "ratio"),
    ];
    for f in FAMILIES {
        v.push((format!("core.{f}.l2org.ns_per_call"), "ns/call"));
        v.push((format!("core.{f}.l2org.calls_per_kmemop"), "calls/kmemop"));
        v.push((format!("core.{f}.l2.hit_ratio"), "ratio"));
    }
    v.extend([
        ("core.cc.spills_per_kcall".into(), "spills/kcall"),
        ("core.snug.spills_per_kcall".into(), "spills/kcall"),
        ("sim-cmp.session.ns_per_memop".into(), "ns/memop"),
        ("sim-cmp.session_self.ns_per_memop".into(), "ns/memop"),
        ("sim-cmp.session_build.ms".into(), "ms"),
        ("sim-cmp.bus.txns_per_kmemop".into(), "txns/kmemop"),
        ("sim-cmp.bus.queue_cycles_per_txn".into(), "cycles/txn"),
        ("sim-mem.dram.reqs_per_kmemop".into(), "reqs/kmemop"),
        ("sim-mem.dram.queue_cycles_per_req".into(), "cycles/req"),
        ("harness.plan.ms".into(), "ms"),
        ("harness.exec.idle_frac".into(), "fraction"),
        ("harness.merge.ms".into(), "ms"),
        ("harness.store.lines_written".into(), "count"),
        ("harness.store_open.ms".into(), "ms"),
        ("harness.lookup.ms".into(), "ms"),
        ("harness.render.ms".into(), "ms"),
        ("harness.store.lines_read".into(), "count"),
        ("trace.overhead_frac".into(), "fraction"),
        ("xcheck.unit_wall.diff_frac".into(), "fraction"),
        ("xcheck.unit_instructions.max_diff".into(), "count"),
        ("xcheck.l1.count_diff".into(), "count"),
        ("xcheck.l2org.count_diff".into(), "count"),
    ]);
    v
}

/// The outcome of one benchmark run.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Worker threads the workload ran on.
    pub workers: usize,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
    metrics: Vec<(String, f64)>,
}

impl Outcome {
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Count one failed operation, with its reason.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        self.notes.push(format!("FAILED: {}", why.into()));
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    /// Set a ratio and print it with its base.
    pub fn ratio(&mut self, name: &str, num: f64, den: f64, scale: f64) {
        let value = if den == 0.0 { 0.0 } else { num / den * scale };
        let per = if scale == 1.0 {
            String::new()
        } else {
            format!(" x {scale}")
        };
        self.notes
            .push(format!("ratio {name} = {value} ({num} / {den}{per})"));
        self.set(name, value);
    }

    /// Set `setup_s` to the median set-up time, noting the spread.
    pub fn setup(&mut self, samples: &[f64]) {
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(0.0, f64::max);
        self.notes.push(format!(
            "setup_s = median of {} set-ups (min {min} s, max {max} s)",
            samples.len()
        ));
        self.set("setup_s", median(samples));
    }

    /// Set `<name>.p50` and `<name>.tail` from samples, noting the tail's
    /// percentile and sample count.
    pub fn latency(&mut self, name: &str, samples: &[f64]) {
        let t = tail(samples);
        self.notes
            .push(format!("{name}.tail = {} ms: {t}", t.value));
        self.set(&format!("{name}.p50"), median(samples));
        self.set(&format!("{name}.tail"), t.value);
    }

    /// Set every per-layer metric not yet measured to 0 and note them as
    /// not applicable: the layers that do no work on this workload.
    pub fn not_applicable(&mut self) {
        let missing: Vec<String> = per_layer_names()
            .into_iter()
            .map(|(name, _)| name)
            .filter(|name| !self.metrics.iter().any(|(n, _)| n == name))
            .collect();
        for name in &missing {
            self.set(name, 0.0);
        }
        self.note(format!(
            "not applicable on this workload (reported as 0): {}",
            missing.join(", ")
        ));
    }

    /// Set every per-layer metric the ladder measures.
    pub fn ladder(&mut self, l: &Ladder) {
        let memops = l.memops as f64;
        self.ratio(
            "workloads.next_op.ns_per_memop",
            l.next_op_ns as f64,
            memops,
            1.0,
        );
        self.set("workloads.memops", memops);
        self.ratio("sim-cache.l1.ns_per_memop", l.l1_ns as f64, memops, 1.0);
        self.ratio(
            "sim-cache.l1.hit_ratio",
            l.l1.hits as f64,
            l.l1.accesses() as f64,
            1.0,
        );
        for f in FAMILIES {
            let fam = l.families.get(f).cloned().unwrap_or_default();
            self.ratio(
                &format!("core.{f}.l2org.ns_per_call"),
                fam.ns as f64,
                fam.calls as f64,
                1.0,
            );
            self.ratio(
                &format!("core.{f}.l2org.calls_per_kmemop"),
                fam.calls as f64,
                fam.memops as f64,
                1000.0,
            );
            self.ratio(
                &format!("core.{f}.l2.hit_ratio"),
                fam.l2.hits as f64,
                fam.l2.accesses() as f64,
                1.0,
            );
            if f == "cc" || f == "snug" {
                self.ratio(
                    &format!("core.{f}.spills_per_kcall"),
                    fam.l2.spills_out as f64,
                    fam.calls_measured as f64,
                    1000.0,
                );
            }
        }
        self.ratio(
            "sim-cmp.session.ns_per_memop",
            l.session_ns as f64,
            memops,
            1.0,
        );
        self.ratio(
            "sim-cmp.session_self.ns_per_memop",
            l.session_self_ns() as f64,
            memops,
            1.0,
        );
        let build_ms: Vec<f64> = l.spans.iter().map(|s| s.build_ns as f64 / 1e6).collect();
        self.set("sim-cmp.session_build.ms", median(&build_ms));
        let txns = (l.bus.address_transactions + l.bus.data_transactions) as f64;
        let measured = l.memops_measured as f64;
        self.ratio("sim-cmp.bus.txns_per_kmemop", txns, measured, 1000.0);
        self.ratio(
            "sim-cmp.bus.queue_cycles_per_txn",
            l.bus.queue_cycles as f64,
            txns,
            1.0,
        );
        let reqs = (l.dram.reads + l.dram.writes) as f64;
        self.ratio("sim-mem.dram.reqs_per_kmemop", reqs, measured, 1000.0);
        self.ratio(
            "sim-mem.dram.queue_cycles_per_req",
            l.dram.queue_cycles as f64,
            reqs,
            1.0,
        );
        self.set(
            "xcheck.unit_instructions.max_diff",
            l.instructions_max_diff as f64,
        );
        self.set("xcheck.l1.count_diff", l.l1_count_diff as f64);
        self.set("xcheck.l2org.count_diff", l.l2org_count_diff as f64);
        self.note(format!(
            "ladder: {} units, {} memops ({} measured), {} ms host",
            l.units,
            l.memops,
            l.memops_measured,
            l.wall_ns as f64 / 1e6
        ));
        let calls: Vec<String> = l
            .families
            .iter()
            .map(|(f, fam)| format!("l2org_calls.{f}={}", fam.calls))
            .collect();
        self.note(format!(
            "counts ladder: memops={} memops_measured={} {} bus_txns={} dram_reqs={}",
            l.memops,
            l.memops_measured,
            calls.join(" "),
            l.bus.address_transactions + l.bus.data_transactions,
            l.dram.reads + l.dram.writes
        ));
        // The spans, written out now that the run is over.
        for s in &l.spans {
            let session = "sim-cmp.session";
            self.note(format!(
                "span {{\"unit\": \"{}\", \"layer\": \"sim-cmp.session_build\", \"ns\": {}}}",
                s.label, s.build_ns
            ));
            self.note(format!(
                "span {{\"unit\": \"{}\", \"layer\": \"{session}\", \"ns\": {}, \"memops\": {}}}",
                s.label, s.session_ns, s.memops
            ));
            for (layer, ns, count) in [
                ("workloads.next_op", s.next_op_ns, s.memops),
                ("sim-cache.l1", s.l1_ns, s.memops),
                ("core.l2org", s.l2org_ns, s.calls),
            ] {
                self.note(format!(
                    "span {{\"unit\": \"{}\", \"layer\": \"{layer}\", \"parent\": \"{session}\", \"ns\": {ns}, \"count\": {count}}}",
                    s.label
                ));
            }
        }
    }

    /// Print the notes and the result line with exactly the metrics of
    /// the requested kind. A missing or unexpected metric is a bug in
    /// this program and panics.
    pub fn print(mut self, trace: bool) {
        let wanted: Vec<(String, &str)> = if trace {
            per_layer_names()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        };
        let mut body = Vec::with_capacity(wanted.len());
        for (name, unit) in &wanted {
            let value = self
                .metrics
                .iter()
                .rev()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
                .unwrap_or_else(|| panic!("metric `{name}` was not measured"));
            let value = if value.is_finite() {
                value
            } else {
                self.notes.push(format!("FAILED: {name} is not finite"));
                self.failed += 1;
                0.0
            };
            body.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
        for line in &self.notes {
            println!("{line}");
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        );
    }
}

/// A JSON number with every digit Rust's shortest round-trip form has.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') || s.contains("inf") || s.contains("NaN") {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names and units this program prints are exactly the
    /// ones `BENCHMARK.json` declares.
    #[test]
    fn names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let (head, per_layer) = text.split_once("\"per_layer\"").unwrap();
        let (_, end_to_end) = head.split_once("\"end_to_end\"").unwrap();
        let pairs = |s: &str| -> Vec<(String, String)> {
            s.split("\"name\": \"")
                .skip(1)
                .map(|chunk| {
                    let name = chunk.split('"').next().unwrap().to_string();
                    let unit = chunk
                        .split("\"unit\": \"")
                        .nth(1)
                        .unwrap()
                        .split('"')
                        .next()
                        .unwrap()
                        .to_string();
                    (name, unit)
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(pairs(end_to_end), e2e);
        let layers: Vec<(String, String)> = per_layer_names()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(pairs(per_layer), layers);
    }

    #[test]
    fn json_numbers_keep_their_digits() {
        assert_eq!(json_number(756.0), "756.0");
        assert_eq!(json_number(0.123456789012), "0.123456789012");
    }
}
