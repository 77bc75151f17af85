//! The replay ladder: per-layer host time for whole unit simulations.
//!
//! A per-call timer costs more than one ~10 ns `next_op`, so spans wrap
//! whole replays and ns/op = span ÷ count. For each unit:
//!
//! 1. a *recording* pass (never timed) runs the unit through a session
//!    whose streams and L2 organisation are wrapped by [`RecStream`] and
//!    [`RecOrg`]. It captures each core's memory-op sequence, every
//!    `(core, block, is_write, now)` access and writeback call with its
//!    outcome, and where the warm-up boundary fell;
//! 2. timed replays of the capture: fresh `BenchmarkSpec` streams for
//!    `next_op`, a fresh L1-geometry `SetAssocCache` per core, a fresh
//!    organisation with a fresh `Bus`/`Dram` for `L2Org`, and the full
//!    `session_for` → `run_to_completion` for the session;
//! 3. self time = session span minus the three child spans.
//!
//! The `L2Org` replay must reproduce every recorded `(latency, fill)`;
//! any difference is a failed unit.

use sim_cache::{CacheStats, SetAssocCache};
use sim_cmp::{BusStats, ChipResources, L2Org, L2Outcome, SchemeEvent, SimSession};
use sim_mem::{BlockAddr, CoreOp, DramStats, OpStream};
use snug_core::AnyOrg;
use snug_experiments::{combo_streams, session_for, CompareConfig, SchemePoint};
use snug_workloads::Combo;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

/// The scheme families the per-layer metrics are split by (cc covers
/// all five spill points).
pub const FAMILIES: [&str; 5] = ["l2p", "l2s", "cc", "dsr", "snug"];

pub fn family(point: &SchemePoint) -> &'static str {
    match point {
        SchemePoint::L2p => "l2p",
        SchemePoint::L2s => "l2s",
        SchemePoint::Cc { .. } => "cc",
        SchemePoint::Dsr => "dsr",
        SchemePoint::Snug => "snug",
    }
}

/// One unit to put through the ladder, with what the workload's own run
/// of it produced.
pub struct LadderUnit {
    pub combo: Combo,
    pub point: SchemePoint,
    pub config: CompareConfig,
    /// Per-core IPCs the sweep stored for this unit.
    pub expected_ipcs: Vec<f64>,
    /// `UnitSpan.instructions` the sweep reported for this unit.
    pub span_instructions: Option<u64>,
}

impl LadderUnit {
    pub fn label(&self) -> String {
        format!("{} [{}]", self.combo.label(), self.point.label())
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum CallKind {
    Read,
    Write,
    Writeback,
}

/// One recorded `L2Org` call.
#[derive(Debug, Clone, Copy)]
struct Call {
    now: u64,
    block: u64,
    core: usize,
    kind: CallKind,
    /// What the organisation answered (accesses only).
    outcome: Option<L2Outcome>,
}

/// Everything a recording pass captures.
#[derive(Default)]
struct Tape {
    /// Per core: `block << 1 | is_write` for every op the session drew.
    ops: Vec<Vec<u64>>,
    /// Per core: ops drawn before the warm-up boundary.
    op_split: Vec<usize>,
    calls: Vec<Call>,
    /// Calls made before the warm-up boundary (`None`: never reached).
    call_split: Option<usize>,
    /// Set when something the replay cannot model happened (an
    /// instruction fetch, a second statistics reset, an oversized block).
    unsupported: Option<String>,
}

/// Records the op sequence of one core's stream.
struct RecStream {
    inner: Box<dyn OpStream>,
    core: usize,
    block_bytes: u64,
    tape: Rc<RefCell<Tape>>,
}

impl OpStream for RecStream {
    fn next_op(&mut self) -> CoreOp {
        let op = self.inner.next_op();
        let block = op.access.addr.block(self.block_bytes).0;
        let mut tape = self.tape.borrow_mut();
        if block >> 63 != 0 {
            tape.unsupported = Some(format!("block {block:#x} does not pack"));
        }
        if matches!(op.access.kind, sim_mem::AccessKind::IFetch) {
            tape.unsupported = Some("instruction fetch (the L1 replay models L1D only)".into());
        }
        tape.ops[self.core].push(block << 1 | u64::from(op.access.kind.is_write()));
        op
    }

    fn label(&self) -> &str {
        self.inner.label()
    }
}

/// Records every call into the organisation and its outcome.
struct RecOrg {
    inner: AnyOrg,
    tape: Rc<RefCell<Tape>>,
}

impl L2Org for RecOrg {
    fn access(
        &mut self,
        core: usize,
        block: BlockAddr,
        is_write: bool,
        now: u64,
        res: &mut ChipResources<'_>,
    ) -> L2Outcome {
        let outcome = self.inner.access(core, block, is_write, now, res);
        self.tape.borrow_mut().calls.push(Call {
            now,
            block: block.0,
            core,
            kind: if is_write {
                CallKind::Write
            } else {
                CallKind::Read
            },
            outcome: Some(outcome),
        });
        outcome
    }

    fn writeback(&mut self, core: usize, block: BlockAddr, now: u64, res: &mut ChipResources<'_>) {
        self.tape.borrow_mut().calls.push(Call {
            now,
            block: block.0,
            core,
            kind: CallKind::Writeback,
            outcome: None,
        });
        self.inner.writeback(core, block, now, res);
    }

    fn slice_stats(&self, core: usize) -> &CacheStats {
        self.inner.slice_stats(core)
    }

    fn aggregate_stats(&self) -> CacheStats {
        self.inner.aggregate_stats()
    }

    fn num_cores(&self) -> usize {
        self.inner.num_cores()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn reset_stats(&mut self) {
        let mut tape = self.tape.borrow_mut();
        if tape.call_split.is_some() {
            tape.unsupported = Some("statistics reset twice".into());
        }
        tape.call_split = Some(tape.calls.len());
        tape.op_split = tape.ops.iter().map(Vec::len).collect();
        drop(tape);
        self.inner.reset_stats();
    }

    fn clone_dyn(&self) -> Box<dyn L2Org> {
        // Snapshots of a recording session replay without recording.
        Box::new(self.inner.clone())
    }

    fn drain_events(&mut self) -> Vec<SchemeEvent> {
        self.inner.drain_events()
    }
}

/// What the recording session itself reported (measured window).
struct Facts {
    ipcs: Vec<f64>,
    instructions: u64,
    l1d: Vec<CacheStats>,
    l2: CacheStats,
    bus: BusStats,
    dram: DramStats,
    /// `SimCounters` fields the ladder's own counts must agree with.
    retired_ops: u64,
    org_accesses: u64,
    org_writebacks: u64,
}

fn record(unit: &LadderUnit) -> (Tape, Facts) {
    let cfg = &unit.config;
    let n = cfg.system.num_cores;
    let tape = Rc::new(RefCell::new(Tape {
        ops: vec![Vec::new(); n],
        ..Tape::default()
    }));
    let streams: Vec<Box<dyn OpStream>> = combo_streams(&unit.combo, &cfg.system)
        .into_iter()
        .enumerate()
        .map(|(core, inner)| {
            Box::new(RecStream {
                inner,
                core,
                block_bytes: cfg.system.l1.block_bytes,
                tape: Rc::clone(&tape),
            }) as Box<dyn OpStream>
        })
        .collect();
    let org = RecOrg {
        inner: unit.point.spec(cfg).build_any(cfg.system),
        tape: Rc::clone(&tape),
    };
    let mut session = SimSession::builder(cfg.system, org)
        .streams(streams)
        .plan(cfg.plan)
        .build();
    let r = session.run_to_completion();
    let counters = session.counters();
    let facts = Facts {
        ipcs: r.ipcs(),
        instructions: r.cores.iter().map(|c| c.instructions).sum(),
        l1d: (0..n).map(|c| *session.l1d_stats(c)).collect(),
        l2: session.org().aggregate_stats(),
        bus: session.bus_stats(),
        dram: session.dram_stats(),
        retired_ops: counters.retired_ops,
        org_accesses: counters.org_accesses,
        org_writebacks: counters.org_writebacks,
    };
    drop(session);
    let tape = Rc::try_unwrap(tape)
        .ok()
        .expect("the session that shared the tape is gone")
        .into_inner();
    (tape, facts)
}

/// Per scheme family totals.
#[derive(Debug, Default, Clone)]
pub struct FamilyTotals {
    pub units: u64,
    /// Memory ops of this family's units (whole run).
    pub memops: u64,
    /// `L2Org` calls (accesses + writebacks), whole run.
    pub calls: u64,
    /// `L2Org` calls in the measured window.
    pub calls_measured: u64,
    /// Organisation statistics over the measured window.
    pub l2: CacheStats,
    /// Host time of the `L2Org` replays.
    pub ns: u64,
}

/// Host-time spans of one unit's replays (children of its session span).
#[derive(Debug, Clone)]
pub struct UnitSpans {
    pub label: String,
    pub memops: u64,
    pub calls: u64,
    pub next_op_ns: u64,
    pub l1_ns: u64,
    pub l2org_ns: u64,
    pub session_ns: u64,
    pub build_ns: u64,
}

/// Ladder totals over every unit of one workload.
#[derive(Debug, Default, Clone)]
pub struct Ladder {
    pub units: u64,
    /// Memory ops drawn (whole run: warm-up + measured window).
    pub memops: u64,
    pub memops_measured: u64,
    pub next_op_ns: u64,
    pub l1_ns: u64,
    /// L1D statistics over the measured window.
    pub l1: CacheStats,
    pub session_ns: u64,
    pub bus: BusStats,
    pub dram: DramStats,
    pub families: BTreeMap<&'static str, FamilyTotals>,
    /// Units whose replay or recording disagreed with the sweep.
    pub failures: Vec<String>,
    /// Σ |ladder count − `SimSession::counters()`/`l1d_stats` count|
    /// over the L1 hit/miss and memory-op tallies.
    pub l1_count_diff: u64,
    /// Σ |ladder count − session count| over `L2Org` accesses,
    /// writebacks and organisation statistics.
    pub l2org_count_diff: u64,
    /// Largest |exact retired instructions − `UnitSpan.instructions`|.
    pub instructions_max_diff: u64,
    /// Host time of the whole ladder (recording included).
    pub wall_ns: u64,
    /// Every unit's spans, kept in memory until the run ends.
    pub spans: Vec<UnitSpans>,
}

fn stats_diff(a: &CacheStats, b: &CacheStats) -> u64 {
    a.hits.abs_diff(b.hits)
        + a.misses.abs_diff(b.misses)
        + a.spills_out.abs_diff(b.spills_out)
        + a.spills_in.abs_diff(b.spills_in)
        + a.writebacks.abs_diff(b.writebacks)
}

/// Whether two IPC vectors are bit-identical.
pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Order-sensitive digest of an op sequence (checks that the `next_op`
/// replay drew exactly what the session drew).
fn fold(digest: u64, packed: u64) -> u64 {
    digest.rotate_left(7) ^ packed
}

fn ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

impl Ladder {
    /// Record and replay every unit, accumulating totals.
    pub fn run(units: &[LadderUnit]) -> Ladder {
        let start = Instant::now();
        let mut ladder = Ladder::default();
        for unit in units {
            ladder.unit(unit);
        }
        ladder.wall_ns = ns(start);
        ladder
    }

    fn fail(&mut self, unit: &LadderUnit, what: String) {
        self.failures.push(format!("{}: {what}", unit.label()));
    }

    fn unit(&mut self, unit: &LadderUnit) {
        let cfg = &unit.config;
        let (tape, facts) = record(unit);
        if let Some(why) = &tape.unsupported {
            self.fail(unit, format!("recording unsupported: {why}"));
            return;
        }
        let Some(call_split) = tape.call_split else {
            self.fail(unit, "the run never reached its warm-up boundary".into());
            return;
        };
        if !same_bits(&facts.ipcs, &unit.expected_ipcs) {
            self.fail(
                unit,
                format!(
                    "recording pass IPCs {:?} differ from the sweep's {:?}",
                    facts.ipcs, unit.expected_ipcs
                ),
            );
        }
        if let Some(span) = unit.span_instructions {
            self.instructions_max_diff = self
                .instructions_max_diff
                .max(span.abs_diff(facts.instructions));
        }
        let memops: u64 = tape.ops.iter().map(|o| o.len() as u64).sum();
        let measured: u64 = tape
            .ops
            .iter()
            .zip(&tape.op_split)
            .map(|(o, &s)| (o.len() - s) as u64)
            .sum();

        // Rung 1: stream generation.
        let mut streams = combo_streams(&unit.combo, &cfg.system);
        let block_bytes = cfg.system.l1.block_bytes;
        let mut replayed = vec![0u64; streams.len()];
        let next_op_start = Instant::now();
        for (core, stream) in streams.iter_mut().enumerate() {
            let mut digest = 0u64;
            for _ in 0..tape.ops[core].len() {
                let op = stream.next_op();
                let packed =
                    op.access.addr.block(block_bytes).0 << 1 | u64::from(op.access.kind.is_write());
                digest = fold(digest, packed);
            }
            replayed[core] = black_box(digest);
        }
        let next_op_ns = ns(next_op_start);
        self.next_op_ns += next_op_ns;
        let recorded: Vec<u64> = tape
            .ops
            .iter()
            .map(|o| o.iter().fold(0, |d, &p| fold(d, p)))
            .collect();
        if recorded != replayed {
            self.fail(unit, "next_op replay drew a different op sequence".into());
        }

        // Rung 2: the L1 data caches.
        let mut l1_stats = Vec::with_capacity(tape.ops.len());
        let l1_start = Instant::now();
        for (ops, &split) in tape.ops.iter().zip(&tape.op_split) {
            let mut l1 = SetAssocCache::new(cfg.system.l1);
            for &p in &ops[..split] {
                black_box(l1.access(BlockAddr(p >> 1), p & 1 == 1));
            }
            l1.reset_stats();
            for &p in &ops[split..] {
                black_box(l1.access(BlockAddr(p >> 1), p & 1 == 1));
            }
            l1_stats.push(*l1.stats());
        }
        let l1_ns = ns(l1_start);
        self.l1_ns += l1_ns;
        for (ladder_l1, session_l1) in l1_stats.iter().zip(&facts.l1d) {
            self.l1_count_diff += ladder_l1.hits.abs_diff(session_l1.hits)
                + ladder_l1.misses.abs_diff(session_l1.misses);
            self.l1.merge(ladder_l1);
        }
        if cfg!(feature = "obs") {
            self.l1_count_diff += measured.abs_diff(facts.retired_ops);
        }

        // Rung 3: the L2 organisation (with its bus and DRAM traffic).
        let mut org = unit.point.spec(cfg).build_any(cfg.system);
        let mut bus = sim_cmp::Bus::new(cfg.system.bus);
        let mut dram = sim_mem::Dram::new(cfg.system.dram);
        let accesses = tape.calls.iter().filter(|c| c.outcome.is_some()).count();
        let mut outcomes: Vec<L2Outcome> = Vec::with_capacity(accesses);
        let t = Instant::now();
        let mut res = ChipResources {
            bus: &mut bus,
            dram: &mut dram,
        };
        let (warmup, measured_calls) = tape.calls.split_at(call_split);
        for (part, calls) in [warmup, measured_calls].into_iter().enumerate() {
            if part == 1 {
                org.reset_stats();
                res.bus.reset_stats();
                res.dram.reset_stats();
            }
            for call in calls {
                let block = BlockAddr(call.block);
                match call.kind {
                    CallKind::Writeback => org.writeback(call.core, block, call.now, &mut res),
                    CallKind::Read | CallKind::Write => outcomes.push(org.access(
                        call.core,
                        block,
                        call.kind == CallKind::Write,
                        call.now,
                        &mut res,
                    )),
                }
            }
        }
        let l2org_ns = ns(t);
        let expected: Vec<L2Outcome> = tape.calls.iter().filter_map(|c| c.outcome).collect();
        if let Some(i) = (0..expected.len()).find(|&i| outcomes.get(i) != Some(&expected[i])) {
            self.fail(
                unit,
                format!(
                    "L2Org replay call {i}: got {:?}, recorded {:?}",
                    outcomes.get(i),
                    expected[i]
                ),
            );
        }
        let l2 = org.aggregate_stats();
        self.l2org_count_diff += stats_diff(&l2, &facts.l2);
        if cfg!(feature = "obs") {
            let m_access = measured_calls
                .iter()
                .filter(|c| c.outcome.is_some())
                .count() as u64;
            let m_wb = measured_calls.len() as u64 - m_access;
            self.l2org_count_diff +=
                m_access.abs_diff(facts.org_accesses) + m_wb.abs_diff(facts.org_writebacks);
        }
        if bus.stats() != facts.bus || dram.stats() != facts.dram {
            self.fail(
                unit,
                "bus/DRAM replay statistics differ from the session's".into(),
            );
        }

        // Rung 4: the whole session, built the way sweeps build it.
        let t = Instant::now();
        let mut session = session_for(&unit.combo, &unit.point.spec(cfg), cfg);
        let build_ns = ns(t);
        let t = Instant::now();
        let r = session.run_to_completion();
        let session_ns = ns(t);
        if !same_bits(&r.ipcs(), &unit.expected_ipcs) {
            self.fail(unit, "session replay IPCs differ from the sweep's".into());
        }

        self.spans.push(UnitSpans {
            label: unit.label(),
            memops,
            calls: tape.calls.len() as u64,
            next_op_ns,
            l1_ns,
            l2org_ns,
            session_ns,
            build_ns,
        });
        self.units += 1;
        self.memops += memops;
        self.memops_measured += measured;
        self.session_ns += session_ns;
        self.bus.address_transactions += facts.bus.address_transactions;
        self.bus.data_transactions += facts.bus.data_transactions;
        self.bus.queue_cycles += facts.bus.queue_cycles;
        self.bus.busy_cycles += facts.bus.busy_cycles;
        self.dram.reads += facts.dram.reads;
        self.dram.writes += facts.dram.writes;
        self.dram.queue_cycles += facts.dram.queue_cycles;
        let fam = self.families.entry(family(&unit.point)).or_default();
        fam.units += 1;
        fam.memops += memops;
        fam.calls += tape.calls.len() as u64;
        fam.calls_measured += measured_calls.len() as u64;
        fam.l2.merge(&l2);
        fam.ns += l2org_ns;
    }

    /// Σ `L2Org` replay time over every family.
    pub fn l2org_ns(&self) -> u64 {
        self.families.values().map(|f| f.ns).sum()
    }

    /// Session time not covered by the `next_op`, L1 and `L2Org`
    /// replays: frontier, core issue, write buffers and obs tallies.
    pub fn session_self_ns(&self) -> i64 {
        self.session_ns as i64 - (self.next_op_ns + self.l1_ns + self.l2org_ns()) as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snug_experiments::run_point;
    use snug_workloads::all_combos;

    /// Replay exactness on one quick-budget unit per scheme family: the
    /// recording reproduces the unit, the `L2Org` replay reproduces
    /// every recorded outcome, and the ladder's counts agree with the
    /// session's own.
    #[test]
    fn replay_is_exact_on_one_quick_unit_per_family() {
        let config = CompareConfig::quick();
        let combo = all_combos()[7]; // ammp+parser+bzip2+mcf
        let points = [
            SchemePoint::L2p,
            SchemePoint::L2s,
            SchemePoint::Cc {
                spill_probability: 0.5,
            },
            SchemePoint::Dsr,
            SchemePoint::Snug,
        ];
        let units: Vec<LadderUnit> = points
            .iter()
            .map(|&point| LadderUnit {
                combo,
                point,
                config,
                expected_ipcs: run_point(&combo, &point, &config).ipcs,
                span_instructions: None,
            })
            .collect();
        let ladder = Ladder::run(&units);
        assert_eq!(ladder.failures, Vec::<String>::new());
        assert_eq!(ladder.units, 5);
        assert_eq!(ladder.l1_count_diff, 0);
        assert_eq!(ladder.l2org_count_diff, 0);
        assert!(ladder.memops > ladder.memops_measured && ladder.memops_measured > 0);
        for f in FAMILIES {
            let fam = &ladder.families[f];
            assert_eq!(fam.units, 1, "{f}");
            assert!(fam.calls > 0 && fam.l2.accesses() > 0, "{f}");
        }
        assert!(ladder.families["cc"].l2.spills_out > 0);
    }

    /// A replay that diverges is reported, not absorbed.
    #[test]
    fn wrong_expected_ipcs_fail_the_unit() {
        let config = CompareConfig::quick();
        let combo = all_combos()[0];
        let mut ipcs = run_point(&combo, &SchemePoint::L2p, &config).ipcs;
        ipcs[0] += 1e-9;
        let ladder = Ladder::run(&[LadderUnit {
            combo,
            point: SchemePoint::L2p,
            config,
            expected_ipcs: ipcs,
            span_instructions: None,
        }]);
        assert_eq!(ladder.failures.len(), 2, "{:?}", ladder.failures);
    }
}
