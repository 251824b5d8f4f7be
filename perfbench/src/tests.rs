//! Self-tests of the benchmark: short runs of every workload pass their
//! checks, the checks catch a corrupted reference, the plan cache and
//! attribution behave as designed, and the exact counts repeat across
//! seeds and trace modes.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::collections::HashSet;

use tamp_simulator::Cost;
use tamp_topology::{NodeId, Tree};

use crate::meter::{self, MeterSpec, Sources, METER_FAT65K};
use crate::report::Report;
use crate::serve::{self, Expected, ServeSpec, SERVE_HOT, SERVE_REPLAN, WIDE_POOLED};

const SMOKE_SECONDS: f64 = 0.3;

const SERVES: [ServeSpec; 3] = [SERVE_HOT, SERVE_REPLAN, WIDE_POOLED];

/// The meter workload on its own tree with a sparse source set, so a
/// cycle stays short in a debug build.
const METER_SMOKE: MeterSpec = MeterSpec {
    unicast_stride: 8192,
    multicast_stride: 16384,
    ..METER_FAT65K
};

fn smoke(spec: &ServeSpec, seed: u64, traced: bool) -> Report {
    let spec = ServeSpec {
        setup_reps: 1,
        ..*spec
    };
    serve::run(&spec, seed, SMOKE_SECONDS, traced)
}

fn assert_clean(r: &Report) {
    assert!(r.attempted > 0, "{}: nothing attempted", r.workload);
    assert!(r.correct(), "{}: {:?}", r.workload, r.failures);
}

#[test]
fn smoke_runs_of_every_workload_pass_their_checks() {
    for spec in &SERVES {
        assert_clean(&smoke(spec, 11, false));
        assert_clean(&smoke(spec, 12, true));
    }
    assert_clean(&meter::run(&METER_SMOKE, 11, SMOKE_SECONDS, false));
    assert_clean(&meter::run(&METER_SMOKE, 12, SMOKE_SECONDS, true));
}

fn corrupted_reference(
    tree: &Tree,
    spec: &ServeSpec,
    seed: u64,
    version: u64,
    query: usize,
) -> Expected {
    let mut e = serve::reference(tree, spec, seed, version, query);
    e.observed.digest ^= 1;
    e
}

fn corrupted_oracle(tree: &Tree, all: &[NodeId], sample: &Sources) -> (Cost, Cost) {
    let (agg, mut oracle) = meter::oracle_ledgers(tree, all, sample);
    oracle.edge_totals[0] += 1;
    (agg, oracle)
}

#[test]
fn a_corrupted_reference_makes_every_workload_fail() {
    for spec in &SERVES {
        let spec = ServeSpec {
            setup_reps: 1,
            ..*spec
        };
        let r = serve::run_checked(&spec, 21, SMOKE_SECONDS, false, corrupted_reference);
        assert!(!r.correct(), "{}: corruption went unnoticed", r.workload);
        assert_eq!(r.failed, r.attempted, "{}: every read is wrong", r.workload);
    }
    let r = meter::run_checked(&METER_SMOKE, 21, SMOKE_SECONDS, false, corrupted_oracle);
    assert!(!r.correct(), "meter: corruption went unnoticed");
}

#[test]
fn the_plan_cache_hits_when_hot_and_misses_when_replanning() {
    for (spec, want) in [(SERVE_HOT, 1.0), (SERVE_REPLAN, 0.0), (WIDE_POOLED, 1.0)] {
        let r = smoke(&spec, 31, true);
        assert_clean(&r);
        assert_eq!(
            r.get("service.cache_hit_ratio"),
            Some(want),
            "{}",
            r.workload
        );
    }
}

#[test]
fn serve_layers_account_for_all_but_five_percent_of_the_serve_span() {
    for spec in &SERVES {
        let r = smoke(spec, 41, true);
        assert_clean(&r);
        let serve = r.get("serve.us").expect("serve span");
        let rest = r.get("serve.unattributed_us").expect("unattributed");
        assert!(serve > 0.0, "{}: no traced reads", r.workload);
        assert!(
            rest <= 0.05 * serve,
            "{}: {rest} µs of a {serve} µs serve span unattributed",
            r.workload
        );
    }
}

#[test]
fn exact_counts_repeat_across_seeds_and_trace_modes() {
    for spec in &SERVES {
        let a = smoke(spec, 51, false);
        let b = smoke(spec, 52, true);
        assert_clean(&a);
        assert_clean(&b);
        assert_eq!(a.counts, b.counts, "{}", spec.name);
        assert!(a.counts.model_cost > 0.0 && a.counts.rounds > 0);
    }
    // The hot and replanning workloads share their initial catalog.
    assert_eq!(
        smoke(&SERVE_HOT, 53, false).counts.model_cost,
        smoke(&SERVE_REPLAN, 54, false).counts.model_cost
    );
    let a = meter::run(&METER_SMOKE, 51, SMOKE_SECONDS, false);
    let b = meter::run(&METER_SMOKE, 52, SMOKE_SECONDS, true);
    assert_clean(&a);
    assert_clean(&b);
    assert_eq!(a.counts, b.counts);
}

#[test]
fn every_write_installs_a_new_dims_version() {
    for seed in [0, 1, 99] {
        let mut seen = HashSet::from([serve::dims_version(seed, 0)]);
        for write in 1..=20_000 {
            assert!(
                seen.insert(serve::dims_version(seed, write)),
                "seed {seed} write {write}"
            );
        }
    }
    for version in [0, 1, 12_345, 39_916_799] {
        let mut tiers: Vec<u64> = serve::dims_rows(version).iter().map(|r| r[1]).collect();
        tiers.sort_unstable();
        assert_eq!(tiers, (40..51).collect::<Vec<u64>>(), "version {version}");
    }
}

#[test]
fn queries_that_do_not_read_dims_answer_the_same_on_every_version() {
    let tree = tamp_topology::builders::star(32, 1.0);
    let spec = SERVE_REPLAN;
    for q in 0..serve::mix().len() {
        let on = |version| serve::reference(&tree, &spec, 5, version, q).observed;
        assert_eq!(
            on(0) == on(serve::dims_version(5, 1)),
            !serve::READS_DIMS[q],
            "query {q}"
        );
    }
}

#[test]
fn the_seed_alone_determines_the_inputs() {
    let tree = tamp_topology::builders::star(32, 1.0);
    let facts = |seed| {
        let ctx = serve::context(&tree, 96, seed, 0);
        let prepared = ctx
            .prepare(&tamp_query::LogicalPlan::scan("facts"))
            .expect("scan");
        prepared.run().expect("run").rows(false)
    };
    assert_eq!(facts(7), facts(7));
    assert_ne!(facts(7), facts(8));
}
