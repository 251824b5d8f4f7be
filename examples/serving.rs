//! A serving-layer walkthrough: eight client threads, one
//! `QueryService`, one shared pooled cluster.
//!
//! The first four PRs built a single-session pipeline — one
//! `QueryContext`, one prepared plan, one backend run. This example is
//! the "millions of users" shape instead: many client threads firing a
//! mixed analytics workload at one service that
//!
//! 1. publishes its catalog, topology and options as one generation
//!    per catalog version, and caches prepared plans in that generation,
//!    keyed by the logical plan (a re-register starts a new generation
//!    with an empty cache),
//! 2. bounds in-flight queries, granting waiters in arrival order, and
//! 3. executes everything on one shared `ExecBackend` — here the pooled
//!    BSP cluster with a persistent worker crew reused across every
//!    query.
//!
//! Along the way it checks the serving layer's core promise: every
//! concurrently served result is **bit-identical** (rows and metered
//! ledger) to a fresh single-session `prepare().run()`. It finishes by
//! re-registering a table mid-service and showing the cache invalidate
//! and the replanned EXPLAIN.
//!
//! ```text
//! cargo run --release --example serving
//! ```

use std::sync::Arc;
use std::time::Instant;

use tamp::query::prelude::*;
use tamp::query::service::QueryService;
use tamp::runtime::{ExecBackend, PooledClusterBackend};
use tamp::topology::builders;
use tamp::topology::Tree;

const THREADS: usize = 8;
const QUERIES_PER_THREAD: usize = 32;

fn context(tree: &Tree) -> QueryContext {
    let mut ctx = QueryContext::new(tree.clone()).with_seed(41);
    let facts: Vec<Vec<u64>> = (0..300).map(|i| vec![i, i % 12, (i * 53) % 2048]).collect();
    ctx.register(DistributedTable::round_robin(
        "facts",
        Schema::new(vec!["id", "g", "x"]).unwrap(),
        facts,
        tree,
    ))
    .unwrap();
    ctx.register(DistributedTable::round_robin(
        "dims",
        Schema::new(vec!["g", "tier"]).unwrap(),
        (0..12).map(|g| vec![g, g % 4]).collect(),
        tree,
    ))
    .unwrap();
    ctx
}

fn workload() -> Vec<(&'static str, LogicalPlan)> {
    vec![
        (
            "join+aggregate",
            LogicalPlan::scan("facts")
                .join_on(LogicalPlan::scan("dims"), "g", "g")
                .aggregate("tier", AggFunc::Sum, "x"),
        ),
        (
            "top-25 by x",
            LogicalPlan::scan("facts").order_by("x").limit(25),
        ),
        (
            "distinct buckets",
            LogicalPlan::scan("facts")
                .project(vec![("g", col("g")), ("b", col("x").div(lit(256)))])
                .distinct(),
        ),
    ]
}

fn main() {
    let tree = builders::fat_tree(2, 3, 1.0);
    println!(
        "fat-tree 2x3: {} compute nodes; {} client threads x {} queries each\n",
        tree.compute_nodes().len(),
        THREADS,
        QUERIES_PER_THREAD
    );

    // Serial single-session ground truth, per query.
    let serial_ctx = context(&tree);
    let queries = workload();
    let reference: Vec<QueryResult> = queries
        .iter()
        .map(|(_, q)| serial_ctx.prepare(q).unwrap().run().unwrap())
        .collect();

    // One shared backend (persistent 4-thread crew, reused by every
    // query) behind one shared service.
    let backend = Arc::new(PooledClusterBackend::with_shared_pool(4));
    println!("shared backend: {}", backend.name());
    let service = QueryService::new(context(&tree), backend)
        .with_max_inflight(THREADS)
        .unwrap();

    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (service, queries, reference) = (&service, &queries, &reference);
            scope.spawn(move || {
                for i in 0..QUERIES_PER_THREAD {
                    let k = (t + i) % queries.len();
                    let served = service.serve(&queries[k].1).unwrap();
                    assert_eq!(
                        served.result.rows(false),
                        reference[k].rows(false),
                        "{}: rows diverged from single-session execution",
                        queries[k].0
                    );
                    assert_eq!(
                        served.result.cost.edge_totals, reference[k].cost.edge_totals,
                        "{}: metered ledger diverged",
                        queries[k].0
                    );
                }
            });
        }
    });
    let wall = start.elapsed();

    let total = THREADS * QUERIES_PER_THREAD;
    let cache = service.cache_stats();
    let adm = service.admission_stats();
    println!(
        "served {total} queries in {:.1} ms ({:.0} queries/sec), all bit-identical to serial",
        wall.as_secs_f64() * 1e3,
        total as f64 / wall.as_secs_f64()
    );
    println!(
        "plan cache: {} hits / {} misses ({} entries); admission: peak {} in flight (bound {})\n",
        cache.hits, cache.misses, cache.entries, adm.peak_inflight, adm.max_inflight
    );

    // One served query's telemetry.
    let served = service.serve(&queries[0].1).unwrap();
    let s = served.stats;
    println!(
        "one '{}' serve: ticket #{}, queued {:?}, plan {:?} (cache hit: {}), exec {:?}\n",
        queries[0].0, s.ticket, s.queued, s.plan, s.cache_hit, s.exec
    );

    // Re-register `dims` mid-service: version bump, cache invalidated,
    // next serve replans against the new generation.
    service
        .register(DistributedTable::round_robin(
            "dims",
            Schema::new(vec!["g", "tier"]).unwrap(),
            (0..12).map(|g| vec![g, g % 7]).collect(),
            &tree,
        ))
        .unwrap();
    println!(
        "re-registered `dims`: catalog v{}, cache {} entries, {} invalidations",
        service.catalog_version(),
        service.cache_stats().entries,
        service.cache_stats().invalidations
    );
    let replanned = service.serve(&queries[0].1).unwrap();
    assert!(!replanned.stats.cache_hit);
    println!("\nreplanned EXPLAIN after the register:");
    println!("{}", service.explain(&queries[0].1).unwrap());
}
