//! `meter-fat65k`: a `TrafficMeter` on `fat_tree(8, 4)` (65,536
//! computes, 87,381 nodes), the only workload that drives the meter at
//! scale.
//!
//! One cycle is one seeded pass: a set-up (the tree and a meter over
//! it, built afresh), a unicast round
//! (all-to-all from every 128th compute), a multicast round (an
//! all-computes broadcast from every 256th compute), and the final
//! ledger. An operation is one source's charges in one round: a
//! 65,535-send unicast fan-out or one multicast. The seed picks the
//! source offsets and the order sources are charged in. Every offset is
//! the image of every other under a symmetry of the fat-tree, so the
//! ledger's cost is the same for every cycle and every seed; a
//! difference is a metering bug.

use std::time::{Duration, Instant};

use tamp_simulator::metering::oracle::NaivePathMeter;
use tamp_simulator::{Cost, TrafficMeter};
use tamp_topology::{builders, NodeId, Tree};

use crate::report::{
    median, metric, mix_quantile, ms, peak_rss_mb, quantile, us, Counts, Report, SplitMix,
};
use crate::trace::{self, SpanLog};

/// The workload's shape. [`METER_FAT65K`] is the benchmark; tests run a
/// sparser source set on the same tree.
#[derive(Clone, Copy, Debug)]
pub struct MeterSpec {
    pub name: &'static str,
    /// Unicast sources are every `unicast_stride`-th compute.
    pub unicast_stride: usize,
    /// Multicast sources are every `multicast_stride`-th compute.
    pub multicast_stride: usize,
}

pub const METER_FAT65K: MeterSpec = MeterSpec {
    name: "meter-fat65k",
    unicast_stride: 128,
    multicast_stride: 256,
};

/// `fat_tree(LEVELS, FANOUT)`: 65,536 computes, 87,381 nodes.
const LEVELS: u32 = 8;
const FANOUT: usize = 4;
/// Sources of each kind replayed through the per-path oracle.
const ORACLE_SOURCES: usize = 2;

const UNICAST_AMOUNT: u64 = 8;
const MULTICAST_AMOUNT: u64 = 4;

/// The sources of one cycle, in charge order.
#[derive(Clone, Debug)]
pub struct Sources {
    pub unicast: Vec<NodeId>,
    pub multicast: Vec<NodeId>,
}

fn sources(all: &[NodeId], spec: &MeterSpec, rng: &mut SplitMix) -> Sources {
    let pick = |stride: usize, rng: &mut SplitMix| {
        let offset = rng.below(stride as u64) as usize;
        let mut s: Vec<NodeId> = all.iter().copied().skip(offset).step_by(stride).collect();
        rng.shuffle(&mut s);
        s
    };
    Sources {
        unicast: pick(spec.unicast_stride, rng),
        multicast: pick(spec.multicast_stride, rng),
    }
}

fn fan_out(meter: &mut TrafficMeter, s: NodeId, all: &[NodeId]) {
    for &d in all {
        if d != s {
            meter.charge_unicast(s, d, UNICAST_AMOUNT);
        }
    }
}

/// How a run obtains the ledger pair it compares (a test substitutes a
/// corrupted oracle to show the check is not vacuous).
pub type OracleFn = fn(&Tree, &[NodeId], &Sources) -> (Cost, Cost);

/// Ledger of `sources` charged by the aggregate meter and by the
/// per-path oracle: the two must agree edge for edge.
pub fn oracle_ledgers(tree: &Tree, all: &[NodeId], sample: &Sources) -> (Cost, Cost) {
    let mut agg = TrafficMeter::new(tree);
    let mut naive = NaivePathMeter::new(tree);
    for &s in &sample.unicast {
        fan_out(&mut agg, s, all);
        for &d in all {
            if d != s {
                naive.charge_unicast(tree, s, d, UNICAST_AMOUNT);
            }
        }
    }
    agg.commit_round();
    naive.commit_round();
    for &s in &sample.multicast {
        agg.charge_multicast(s, all, MULTICAST_AMOUNT);
        naive.charge_multicast(tree, s, all, MULTICAST_AMOUNT);
    }
    agg.commit_round();
    naive.commit_round();
    (agg.finish(), naive.finish())
}

/// `None` when the two ledgers agree bit for bit.
pub fn compare_ledgers(agg: &Cost, oracle: &Cost) -> Option<String> {
    if agg.edge_totals != oracle.edge_totals {
        let edges = agg
            .edge_totals
            .iter()
            .zip(&oracle.edge_totals)
            .filter(|(a, b)| a != b)
            .count();
        return Some(format!(
            "oracle edge totals differ on {edges} directed edges"
        ));
    }
    let bits =
        |c: &Cost| -> Vec<u64> { c.per_round.iter().map(|r| r.tuple_cost.to_bits()).collect() };
    (bits(agg) != bits(oracle)).then(|| "oracle per-round costs differ".to_string())
}

struct Op {
    multicast: bool,
    traced: bool,
    took: Duration,
}

/// Run the meter workload for `seconds` (whole cycles, each with its own
/// set-up; at least one).
/// `traced` records spans on every other cycle.
pub fn run(spec: &MeterSpec, seed: u64, seconds: f64, traced: bool) -> Report {
    run_checked(spec, seed, seconds, traced, oracle_ledgers)
}

pub fn run_checked(
    spec: &MeterSpec,
    seed: u64,
    seconds: f64,
    traced: bool,
    oracle_ledgers: OracleFn,
) -> Report {
    let mut report = Report {
        workload: spec.name,
        ..Report::default()
    };

    let mut setups: Vec<f64> = Vec::new();
    let mut builds = Vec::new();
    let mut news = Vec::new();
    let mut rng = SplitMix::new(seed);
    let mut ops: Vec<Op> = Vec::new();
    let mut commits = Vec::new();
    let mut costs: Vec<f64> = Vec::new();
    let mut first: Option<Sources> = None;
    let epoch = Instant::now();
    let deadline = epoch + Duration::from_secs_f64(seconds);
    let mut spans = SpanLog::new(epoch);
    // Charging time per cycle: from after the set-up to the final ledger.
    let mut cycle_s: Vec<f64> = Vec::new();
    let mut tree = None;
    let mut cycle: u64 = 0;
    // A traced run traces every other cycle, so it needs two.
    let min_cycles = 1 + u64::from(traced);
    while cycle < min_cycles || Instant::now() < deadline {
        // Set-up, once per cycle so that `setup_s` samples the whole run:
        // this machine's speed drifts over seconds.
        drop(tree.take());
        let b0 = Instant::now();
        let built = builders::fat_tree(LEVELS, FANOUT, 1.0);
        let n0 = Instant::now();
        let mut meter = TrafficMeter::new(&built);
        let n1 = Instant::now();
        builds.push(ms(n0 - b0));
        news.push(ms(n1 - n0));
        setups.push((n1 - b0).as_secs_f64());
        let tracing = traced && cycle % 2 == 1;
        if tracing {
            spans.push(cycle, "topology.build", b0, n0, None);
            spans.push(cycle, "meter.new", n0, n1, None);
        }
        let all = built.compute_nodes();
        let src = sources(all, spec, &mut rng);
        let started = Instant::now();
        for (multicast, list) in [(false, &src.unicast), (true, &src.multicast)] {
            for &s in list {
                let t0 = Instant::now();
                if multicast {
                    meter.charge_multicast(s, all, MULTICAST_AMOUNT);
                } else {
                    fan_out(&mut meter, s, all);
                }
                let t1 = Instant::now();
                if tracing {
                    let name = if multicast {
                        "meter.multicast"
                    } else {
                        "meter.unicast"
                    };
                    spans.push(cycle, name, t0, t1, None);
                }
                ops.push(Op {
                    multicast,
                    traced: tracing,
                    took: t1 - t0,
                });
            }
            let c0 = Instant::now();
            meter.commit_round();
            let c1 = Instant::now();
            commits.push(ms(c1 - c0));
            if tracing {
                spans.push(cycle, "meter.commit", c0, c1, None);
            }
        }
        costs.push(meter.finish().tuple_cost());
        cycle_s.push(started.elapsed().as_secs_f64());
        first.get_or_insert(src);
        tree = Some(built);
        cycle += 1;
    }
    let tree = tree.expect("at least one cycle");
    let all = tree.compute_nodes();
    // Taken before the oracle check below builds its path memo.
    let rss = peak_rss_mb();
    report.attempted = ops.len() as u64;

    // Correctness, outside the timed loop: every cycle's ledger costs
    // the same, and a sample of the first cycle's sends charges the same
    // edges through the per-path oracle.
    let model_cost = costs[0];
    for (i, c) in costs.iter().enumerate() {
        if c.to_bits() != model_cost.to_bits() {
            report.fail(format!(
                "cycle {i}: ledger cost {c} differs from cycle 0's {model_cost}"
            ));
        }
    }
    let first = first.expect("at least one cycle");
    let sample = Sources {
        unicast: first.unicast.iter().copied().take(ORACLE_SOURCES).collect(),
        multicast: first
            .multicast
            .iter()
            .copied()
            .take(ORACLE_SOURCES)
            .collect(),
    };
    let (agg, oracle) = oracle_ledgers(&tree, all, &sample);
    if let Some(why) = compare_ledgers(&agg, &oracle) {
        report.fail(why);
    }

    report.counts = Counts {
        model_cost,
        rounds: 2,
        ..Counts::default()
    };
    let p = all.len() as f64;
    let op_us = |pred: &dyn Fn(&Op) -> bool| -> Vec<f64> {
        ops.iter().filter(|o| pred(o)).map(|o| us(o.took)).collect()
    };
    let plain = op_us(&|o| !o.traced);
    let kinds = [
        op_us(&|o| !o.traced && !o.multicast),
        op_us(&|o| !o.traced && o.multicast),
    ];
    let (unicast_us, multicast_us) = (median(&kinds[0]), median(&kinds[1]));
    // End-to-end timings come from the untraced cycles: latency
    // quantiles over their operations. Throughput, the operations of one
    // cycle (every cycle has the same) over the median cycle's charging
    // time, follows the share of the run the host spent in its slow
    // mode: it is a table row, not a gated metric (see LAYERS.md).
    let untraced: Vec<f64> = (0..cycle)
        .filter(|c| !(traced && c % 2 == 1))
        .map(|c| cycle_s[c as usize])
        .collect();
    let per_cycle = (first.unicast.len() + first.multicast.len()) as f64;
    report.end_to_end = vec![
        metric("latency_p05_us", "us", mix_quantile(&kinds, 0.05)),
        metric("latency_p99_us", "us", quantile(&plain, 0.99)),
        metric("model_cost", "tuples", model_cost),
        metric("setup_s", "s", median(&setups)),
        metric("peak_rss_mb", "MiB", rss),
    ];
    report.notes = vec![
        metric("latency_p50_us", "us", median(&plain)),
        metric("throughput_qps", "1/s", per_cycle / median(&untraced)),
        metric(
            "unicast_sends_per_s",
            "1/s",
            (p - 1.0) / (unicast_us * 1e-6),
        ),
        metric("multicast_sends_per_s", "1/s", 1.0 / (multicast_us * 1e-6)),
        metric("cycles", "count", cycle as f64),
    ];

    if traced {
        let t_unicast = median(&op_us(&|o| o.traced && !o.multicast));
        let t_multicast = median(&op_us(&|o| o.traced && o.multicast));
        let t_all = median(&op_us(&|o| o.traced));
        report.per_layer = vec![
            metric("serve.us", "us", 0.0),
            metric("service.queue_us", "us", 0.0),
            metric("service.cache_hit_ratio", "ratio", 0.0),
            metric("service.write_us", "us", 0.0),
            metric("plan.us", "us", 0.0),
            metric("exec.compute_us", "us", 0.0),
            metric("exec.rows_out", "count", 0.0),
            metric("replay.us", "us", 0.0),
            metric("replay.rounds", "count", 0.0),
            metric("replay.supersteps", "count", 0.0),
            metric(
                "meter.unicast_ns_per_send",
                "ns",
                t_unicast * 1e3 / (p - 1.0),
            ),
            metric("meter.multicast_us_per_send", "us", t_multicast),
            metric("meter.commit_ms", "ms", median(&commits)),
            metric("meter.new_ms", "ms", median(&news)),
            metric("topology.build_ms", "ms", median(&builds)),
            metric("serve.unattributed_us", "us", 0.0),
            metric("trace.overhead_us", "us", t_all - median(&plain)),
        ];
        let path = trace::spans_path(spec.name, seed);
        match trace::write_spans(&path, &spans) {
            Ok(()) => println!("spans: {} ({} spans)", path.display(), spans.spans.len()),
            Err(e) => println!("spans: not written to {}: {e}", path.display()),
        }
    }
    report
}
