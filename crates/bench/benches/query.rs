//! Criterion benches for the relational query layer: full analytics
//! pipelines and the weighted-vs-uniform join shuffle under skew.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tamp_query::prelude::*;
use tamp_topology::builders;

fn make_catalog(rows: u64, skew: bool) -> Catalog {
    let tree = builders::heterogeneous_star(&[0.5, 4.0, 4.0, 4.0, 4.0, 4.0]);
    let heavy = tree.compute_nodes()[0];
    let mut c = Catalog::new(tree);
    let facts: Vec<Vec<u64>> = (0..rows).map(|i| vec![i, i % 8, (i * 13) % 1000]).collect();
    let schema = Schema::new(vec!["id", "g", "x"]).unwrap();
    let table = if skew {
        DistributedTable::skewed("facts", schema, facts, c.tree(), heavy, 0.9)
    } else {
        DistributedTable::round_robin("facts", schema, facts, c.tree())
    };
    c.register(table).unwrap();
    let dims: Vec<Vec<u64>> = (0..8).map(|g| vec![g, g % 3]).collect();
    c.register(DistributedTable::round_robin(
        "dims",
        Schema::new(vec!["g", "tier"]).unwrap(),
        dims,
        c.tree(),
    ))
    .unwrap();
    c
}

fn bench_query(c: &mut Criterion) {
    let mut group = c.benchmark_group("query");
    group.sample_size(10);
    for &n in &[1_000u64, 4_000] {
        let session = QueryContext::with_catalog(make_catalog(n, false));
        let q = LogicalPlan::scan("facts")
            .filter(col("x").gt(lit(250)))
            .join_on(LogicalPlan::scan("dims"), "g", "g")
            .aggregate("tier", AggFunc::Sum, "x")
            .order_by("tier");
        group.bench_with_input(BenchmarkId::new("analytics-pipeline", n), &n, |b, _| {
            b.iter(|| {
                let res = session.execute(&q).unwrap();
                black_box(res.cost.tuple_cost())
            })
        });

        let skewed = QueryContext::with_catalog(make_catalog(n, true)).with_seed(1);
        let join = LogicalPlan::scan("facts").join_on(LogicalPlan::scan("dims"), "g", "g");
        for (name, strat) in [
            ("join-weighted", "weighted-repartition"),
            ("join-uniform", "uniform-repartition"),
        ] {
            let forced = skewed.clone().with_strategy(OperatorKind::Join, strat);
            group.bench_with_input(BenchmarkId::new(name, n), &n, |b, _| {
                b.iter(|| {
                    let res = forced.execute(&join).unwrap();
                    black_box(res.cost.tuple_cost())
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_query);
criterion_main!(benches);
