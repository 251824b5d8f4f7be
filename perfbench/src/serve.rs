//! The three serving workloads: closed-loop clients calling
//! `QueryService::serve` over the x-serve catalog and query mix.
//!
//! - `serve-hot`: `star-32`, simulator backend, two clients, warm plan
//!   cache. Steady-state serving; time goes to `exec` compute.
//! - `serve-replan`: same tree and mix, one client that replaces `dims`
//!   before every read, so every read misses the plan cache and `plan`
//!   dominates.
//! - `wide-pooled`: `fat_tree(4, 4)` (p = 256) on a shared two-worker
//!   pooled cluster, one client, warm cache. Per-node fixed costs
//!   dominate: the superstep barrier in `replay`, O(p²) sort buckets in
//!   `exec`.
//!
//! `BENCHMARK.json` gates only `serve-hot`; the other two run by name
//! (see `LAYERS.md` for why they are not steady enough to gate).
//!
//! The seed varies the inputs without moving any routing key: fact ids
//! (payload only), the order each client walks the mix in, and, for
//! `serve-replan`, which permutation of tiers each write installs. The
//! metered model cost of one pass over the mix is therefore the same
//! for every seed, and a change to it is a plan change.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tamp_query::prelude::*;
use tamp_query::reference::preserves_order;
use tamp_query::row::Row;
use tamp_query::QueryError;
use tamp_runtime::{ExecBackend, PooledClusterBackend, SimulatorBackend};
use tamp_simulator::TrafficMeter;
use tamp_topology::{builders, Tree};

use crate::report::{
    median, metric, mix_quantile, ms, peak_rss_mb, quantile, us, Counts, Metric, Report, Reservoir,
    SplitMix,
};
use crate::trace::{self, Replay, SpanLog, TimedBackend};

/// Which backend the service executes on.
#[derive(Clone, Copy, Debug)]
pub enum Engine {
    Simulator,
    /// `PooledClusterBackend::with_shared_pool(workers)`.
    Pooled(usize),
}

/// One serving workload.
#[derive(Clone, Copy, Debug)]
pub struct ServeSpec {
    pub name: &'static str,
    pub tree: fn() -> Tree,
    /// Rows of `facts`.
    pub facts: u64,
    pub engine: Engine,
    /// Closed-loop client threads.
    pub clients: usize,
    /// Replace `dims` before every read (every read misses the cache).
    pub replan: bool,
    /// Set-ups before each slice of the timed loop after the first;
    /// `setup_s` is the median of these and the first set-up.
    pub setup_reps: usize,
}

fn star32() -> Tree {
    builders::star(32, 1.0)
}

fn fat256() -> Tree {
    builders::fat_tree(4, 4, 1.0)
}

pub const SERVE_HOT: ServeSpec = ServeSpec {
    name: "serve-hot",
    tree: star32,
    facts: 96,
    engine: Engine::Simulator,
    clients: 2,
    replan: false,
    setup_reps: 2,
};

pub const SERVE_REPLAN: ServeSpec = ServeSpec {
    name: "serve-replan",
    tree: star32,
    facts: 96,
    engine: Engine::Simulator,
    clients: 1,
    replan: true,
    setup_reps: 2,
};

pub const WIDE_POOLED: ServeSpec = ServeSpec {
    name: "wide-pooled",
    tree: fat256,
    facts: 256,
    engine: Engine::Pooled(2),
    clients: 1,
    replan: false,
    setup_reps: 1,
};

// ---------------------------------------------------------------------
// Inputs.
// ---------------------------------------------------------------------

/// Groups `g` of `facts`; `dims` maps each to one tier in `40..51`.
const GROUPS: u64 = 11;
const FIRST_TIER: u64 = 40;
/// 11!: the number of distinct `dims` versions.
const DIMS_VERSIONS: u64 = 39_916_800;
/// Step between successive written versions; coprime to 11! − 1, so
/// writes `1..11! − 1` install pairwise distinct permutations.
const VERSION_STRIDE: u64 = 1_000_003;

/// The `dims` permutation installed by write number `write` (0 is the
/// initial catalog: the identity). Every later write installs a
/// permutation different from the identity and from every other write.
pub fn dims_version(seed: u64, write: u64) -> u64 {
    if write == 0 {
        return 0;
    }
    let offset = SplitMix::new(seed).next_u64() % (DIMS_VERSIONS - 1);
    let step = (write as u128 * VERSION_STRIDE as u128 % (DIMS_VERSIONS - 1) as u128) as u64;
    1 + (offset + step) % (DIMS_VERSIONS - 1)
}

/// `dims(g, tier)` for permutation number `version` of the tiers
/// (factorial number system; 0 is the identity `tier = g + 40`).
pub fn dims_rows(version: u64) -> Vec<Row> {
    let mut pool: Vec<u64> = (0..GROUPS).collect();
    let mut rest = version;
    let mut fact: u64 = (1..GROUPS).product();
    let mut rows = Vec::with_capacity(GROUPS as usize);
    for g in 0..GROUPS {
        let k = (rest / fact) as usize;
        rest %= fact;
        rows.push(vec![g, FIRST_TIER + pool.remove(k)]);
        fact /= (GROUPS - 1 - g).max(1);
    }
    rows
}

fn dims_table(version: u64, tree: &Tree) -> DistributedTable {
    DistributedTable::round_robin(
        "dims",
        Schema::new(vec!["g", "tier"]).expect("valid schema"),
        dims_rows(version),
        tree,
    )
}

/// The x-serve catalog over `tree` with `facts` fact rows, seeded fact
/// ids and `dims` permutation `version`.
pub fn context(tree: &Tree, facts: u64, seed: u64, version: u64) -> QueryContext {
    // Ids are payload: distinct, seeded, and never a routing key.
    let base = SplitMix::new(seed).next_u64();
    let fact_rows: Vec<Row> = (0..facts)
        .map(|i| {
            let id = base.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) & ((1 << 40) - 1);
            vec![id, i % GROUPS, (i * 29) % 1024]
        })
        .collect();
    let mut ctx = QueryContext::new(tree.clone()).with_seed(17);
    ctx.register(DistributedTable::round_robin(
        "facts",
        Schema::new(vec!["id", "g", "x"]).expect("valid schema"),
        fact_rows,
        tree,
    ))
    .expect("register facts");
    ctx.register(dims_table(version, tree))
        .expect("register dims");
    ctx.register(DistributedTable::round_robin(
        "grps",
        Schema::new(vec!["tier", "band"]).expect("valid schema"),
        (FIRST_TIER..FIRST_TIER + GROUPS)
            .map(|t| vec![t, t % 4])
            .collect(),
        tree,
    ))
    .expect("register grps");
    ctx
}

/// Which queries of [`mix`] read `dims`. The others answer the same on
/// every catalog version, so one reference serves all their reads.
pub const READS_DIMS: [bool; 4] = [true, true, false, false];

/// The catalog version a read's reference is computed on.
pub fn reference_version(query: usize, version: u64) -> u64 {
    if READS_DIMS[query] {
        version
    } else {
        0
    }
}

/// The query mix: the three x-serve analytics plans and one filtered
/// scan that moves no data.
pub fn mix() -> Vec<LogicalPlan> {
    vec![
        LogicalPlan::scan("facts")
            .filter(col("x").lt(lit(700)))
            .join_on(LogicalPlan::scan("dims"), "g", "g")
            .join_on(LogicalPlan::scan("grps"), "tier", "tier")
            .aggregate("band", AggFunc::Sum, "x")
            .order_by("band"),
        LogicalPlan::scan("facts")
            .join_on(LogicalPlan::scan("dims"), "g", "g")
            .order_by("x")
            .limit(20),
        LogicalPlan::scan("facts")
            .project(vec![("g", col("g")), ("b", col("x").div(lit(128)))])
            .distinct()
            .aggregate("g", AggFunc::Count, "b")
            .order_by("g"),
        LogicalPlan::scan("facts").filter(col("x").lt(lit(512))),
    ]
}

// ---------------------------------------------------------------------
// Observing reads.
// ---------------------------------------------------------------------

/// What a read returned, reduced to what the checks compare.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Observed {
    /// Hash of the output rows (in order where the plan orders them) and
    /// the metered `edge_totals`.
    pub digest: u64,
    pub rounds: u32,
    pub supersteps: u32,
    pub rows: u32,
}

fn observe(result: &QueryResult, ordered: bool) -> Observed {
    let mut h = DefaultHasher::new();
    result.rows(ordered).hash(&mut h);
    result.cost.edge_totals.hash(&mut h);
    let small = |n: usize| u32::try_from(n).unwrap_or(u32::MAX);
    Observed {
        digest: h.finish(),
        rounds: small(result.rounds),
        supersteps: small(result.supersteps),
        rows: small(result.num_rows()),
    }
}

/// One distinct outcome of the timed loop. Consecutive reads of a query
/// that returned the same thing share an entry: a warm cache needs one
/// entry per query, `serve-replan` one per read.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Seen {
    pub query: u8,
    /// `dims` permutation of the catalog version the read ran against
    /// (below 11!, so it fits).
    pub version: u32,
    pub observed: Observed,
    pub cache_hit: bool,
    /// The timing backend's `ExecOutcome` agrees with the result
    /// (trivially true for untraced reads).
    pub replay_agrees: bool,
}

/// The uncached single-session answer a read must match.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Expected {
    pub observed: Observed,
    pub cost: f64,
}

/// How a run obtains the answer a read must match (a test substitutes
/// a corrupted one to show the check is not vacuous).
pub type ReferenceFn = fn(&Tree, &ServeSpec, u64, u64, usize) -> Expected;

/// Fresh `QueryContext::prepare(..).run()` on the simulator.
pub fn reference(tree: &Tree, spec: &ServeSpec, seed: u64, version: u64, query: usize) -> Expected {
    let ctx = context(tree, spec.facts, seed, version);
    let plan = &mix()[query];
    let result = ctx
        .prepare(plan)
        .and_then(|p| p.run())
        .expect("the reference run succeeds");
    Expected {
        observed: observe(&result, preserves_order(plan)),
        cost: result.cost.tuple_cost(),
    }
}

/// Compare every distinct outcome with its reference. Returns the
/// number of wrong reads and one line per distinct wrong outcome.
/// `overhead[q]` is the backend's supersteps beyond the metered rounds
/// for query `q`.
pub fn verify(
    seen: &[(Seen, u32)],
    expected: &HashMap<(usize, u64), Expected>,
    overhead: &[u32],
    expect_hit: bool,
) -> (u64, Vec<String>) {
    let mut wrong = 0;
    let mut lines = Vec::new();
    for &(s, n) in seen {
        let got = s.observed;
        let q = usize::from(s.query);
        let why = match expected.get(&(q, reference_version(q, u64::from(s.version)))) {
            None => Some("no reference".to_string()),
            Some(want) if got.digest != want.observed.digest => {
                Some("rows or edge_totals differ from the reference".to_string())
            }
            Some(want) if (got.rounds, got.rows) != (want.observed.rounds, want.observed.rows) => {
                Some(format!(
                    "rounds/rows {}/{} vs reference {}/{}",
                    got.rounds, got.rows, want.observed.rounds, want.observed.rows
                ))
            }
            Some(_) if got.supersteps != got.rounds + overhead[q] => Some(format!(
                "{} supersteps for {} rounds",
                got.supersteps, got.rounds
            )),
            Some(_) if s.cache_hit != expect_hit => Some(format!("cache_hit = {}", s.cache_hit)),
            Some(_) if !s.replay_agrees => {
                Some("the backend's ExecOutcome disagrees with the result".to_string())
            }
            Some(_) => None,
        };
        if let Some(why) = why {
            wrong += u64::from(n);
            lines.push(format!(
                "{n} read(s) of query {} on dims v{}: {why}",
                s.query, s.version
            ));
        }
    }
    (wrong, lines)
}

// ---------------------------------------------------------------------
// Set-up.
// ---------------------------------------------------------------------

/// A ready service (and, in a traced run, its traced twin) with warm
/// caches.
struct Ready {
    tree: Tree,
    plain: QueryService,
    traced: Option<QueryService>,
    /// Per query: supersteps minus rounds on this backend.
    overhead: Vec<u32>,
    /// Per query: what the warm-up read observed.
    warm: Vec<Observed>,
}

struct SetupTimes {
    total: Duration,
    tree: Duration,
    meter_new: Duration,
}

fn backend(engine: Engine) -> Arc<dyn ExecBackend + Send + Sync> {
    match engine {
        Engine::Simulator => Arc::new(SimulatorBackend),
        Engine::Pooled(workers) => Arc::new(PooledClusterBackend::with_shared_pool(workers)),
    }
}

/// `QueryService::with_max_inflight` of every serving workload: a slot
/// for each client of the busiest one, so admission never queues.
const MAX_INFLIGHT: usize = 2;

fn service(ctx: QueryContext, backend: Arc<dyn ExecBackend + Send + Sync>) -> QueryService {
    QueryService::new(ctx, backend)
        .with_max_inflight(MAX_INFLIGHT)
        .expect("MAX_INFLIGHT is positive")
}

/// Build the topology, catalog and service(s) and warm the plan cache.
fn setup(spec: &ServeSpec, seed: u64, traced: bool) -> Result<(Ready, SetupTimes), String> {
    let start = Instant::now();
    let tree = (spec.tree)();
    let built = Instant::now();
    let queries = mix();
    let shared = backend(spec.engine);
    let plain = service(context(&tree, spec.facts, seed, 0), Arc::clone(&shared));
    let twin = traced.then(|| {
        let timed: Arc<dyn ExecBackend + Send + Sync> = Arc::new(TimedBackend::new(shared));
        service(context(&tree, spec.facts, seed, 0), timed)
    });
    let mut overhead: Vec<u32> = Vec::with_capacity(queries.len());
    let mut warm = Vec::with_capacity(queries.len());
    for (q, plan) in queries.iter().enumerate() {
        let failed = |e: QueryError| format!("warm-up of query {q}: {e}");
        let served = plain.serve(plan).map_err(failed)?;
        let seen = observe(&served.result, preserves_order(plan));
        overhead.push(seen.supersteps.saturating_sub(seen.rounds));
        warm.push(seen);
        if let Some(t) = &twin {
            t.serve(plan).map_err(failed)?;
            trace::take_replay();
        }
    }
    let total = start.elapsed();
    // The meter every replay on this tree constructs: a fixed cost each
    // read pays before it moves anything.
    let meter_start = Instant::now();
    std::hint::black_box(TrafficMeter::new(&tree));
    let meter_new = meter_start.elapsed();
    Ok((
        Ready {
            tree,
            plain,
            traced: twin,
            overhead,
            warm,
        },
        SetupTimes {
            total,
            tree: built - start,
            meter_new,
        },
    ))
}

// ---------------------------------------------------------------------
// The timed loop.
// ---------------------------------------------------------------------

/// Layer durations of one traced read, in µs.
#[derive(Clone, Copy, Debug)]
struct Layers {
    serve: f32,
    queue: f32,
    plan: f32,
    exec: f32,
    replay: f32,
}

/// Latency samples kept per client and query: all of them at the read
/// rates seen so far (under 50,000 per client and query in 30 s), a
/// uniform sample beyond.
const LATENCY_SAMPLES: usize = 1 << 16;

/// An empty vector whose `capacity` slots are already written, so
/// filling it does not move the peak RSS.
fn touched<T: Default + Clone>(capacity: usize) -> Vec<T> {
    let mut v = vec![T::default(); capacity];
    v.clear();
    v
}

/// The timed loop runs in this many equal slices with set-ups between
/// them, so that `setup_s` samples the same stretch of time as the
/// reads do: this machine's speed drifts over seconds, and set-ups taken
/// only before the loop would all fall in one stretch.
const SLICES: u32 = 10;

/// One client thread: its place in the mix and what it has measured.
/// Memory that grows with the read count is written before the loop
/// starts, so `peak_rss_mb` measures the program, not the benchmark's
/// bookkeeping.
struct Tally {
    client: usize,
    rng: SplitMix,
    /// Each block of `order.len()` reads runs every query once, in a
    /// seeded order: the mix proportions are exact.
    order: Vec<usize>,
    next: usize,
    reads: u64,
    /// Untraced read latencies (µs), per query of the mix.
    latency_us: Vec<Reservoir>,
    /// Time the untraced reads spent in `register` and `serve`: the
    /// loop's own bookkeeping (building the next `dims` table, digesting
    /// the result) is left out of throughput.
    serving: Duration,
    /// Traced reads (their memory is not part of any reported metric).
    layers: Vec<Layers>,
    /// `register` durations before traced reads (µs).
    writes_us: Vec<f32>,
    /// Distinct outcomes with their read counts, and per query the
    /// index of its latest entry.
    seen: Vec<(Seen, u32)>,
    latest: Vec<Option<usize>>,
    errors: Vec<String>,
    spans: SpanLog,
}

/// The service for read `i`: in a traced run every other read goes
/// through the traced twin, so the untraced reads of the same run give
/// the tracing overhead.
fn pick(ready: &Ready, i: u64) -> (&QueryService, bool) {
    match &ready.traced {
        Some(t) if i % 2 == 1 => (t, true),
        _ => (&ready.plain, false),
    }
}

struct Loop<'a> {
    spec: &'a ServeSpec,
    ready: &'a Ready,
    queries: &'a [LogicalPlan],
    ordered: &'a [bool],
    seed: u64,
    epoch: Instant,
    writes_issued: &'a AtomicU64,
}

impl Tally {
    fn new(l: &Loop<'_>, client: usize) -> Tally {
        let client_seed = l.seed ^ (client as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F);
        Tally {
            client,
            rng: SplitMix::new(client_seed),
            order: (0..l.queries.len()).collect(),
            next: l.queries.len(),
            reads: 0,
            latency_us: (0..l.queries.len() as u64)
                .map(|q| Reservoir::new(LATENCY_SAMPLES, client_seed ^ q))
                .collect(),
            serving: Duration::ZERO,
            layers: Vec::new(),
            writes_us: Vec::new(),
            seen: touched(if l.spec.replan { 1 << 16 } else { 64 }),
            latest: vec![None; l.queries.len()],
            errors: Vec::new(),
            spans: SpanLog::new(l.epoch),
        }
    }
}

/// Closed-loop reads until `deadline`.
fn client(l: &Loop<'_>, t: &mut Tally, deadline: Instant) {
    while Instant::now() < deadline {
        if t.next == t.order.len() {
            t.rng.shuffle(&mut t.order);
            t.next = 0;
        }
        let q = t.order[t.next];
        t.next += 1;
        let i = t.reads;
        let request = ((t.client as u64) << 40) | i;
        let (service, traced) = pick(l.ready, i);
        t.reads += 1;
        let mut version = 0;
        let mut wrote = Duration::ZERO;
        if l.spec.replan {
            let write = l.writes_issued.fetch_add(1, Ordering::Relaxed) + 1;
            version = dims_version(l.seed, write);
            let table = dims_table(version, &l.ready.tree);
            let w0 = Instant::now();
            let registered = service.register(table);
            let w1 = Instant::now();
            wrote = w1 - w0;
            if let Err(e) = registered {
                t.errors.push(format!("register dims v{version}: {e}"));
                continue;
            }
            if traced {
                t.writes_us.push(us(w1 - w0) as f32);
                t.spans.push(request, "service.write", w0, w1, None);
            }
        }
        let t0 = Instant::now();
        let served = service.serve(&l.queries[q]);
        let t1 = Instant::now();
        let replay = if traced { trace::take_replay() } else { None };
        let served = match served {
            Ok(s) => s,
            Err(e) => {
                t.errors.push(format!("query {q} on dims v{version}: {e}"));
                continue;
            }
        };
        let observed = observe(&served.result, l.ordered[q]);
        let stats = served.stats;
        let replay_agrees = replay.map_or(!traced, |r| {
            (r.rounds, r.supersteps) == (observed.rounds as usize, observed.supersteps as usize)
        });
        let seen = Seen {
            query: q as u8,
            version: version as u32,
            observed,
            cache_hit: stats.cache_hit,
            replay_agrees,
        };
        match t.latest[q] {
            Some(k) if t.seen[k].0 == seen => t.seen[k].1 += 1,
            _ => {
                t.latest[q] = Some(t.seen.len());
                t.seen.push((seen, 1));
            }
        }
        match replay {
            Some(r) if traced => {
                record_spans(&mut t.spans, request, t0, t1, &stats, r);
                t.layers.push(Layers {
                    serve: us(t1 - t0) as f32,
                    queue: us(stats.queued) as f32,
                    plan: us(stats.plan) as f32,
                    exec: us(stats.exec) as f32,
                    replay: us(r.end.saturating_duration_since(r.start)) as f32,
                });
            }
            _ => {
                t.latency_us[q].push(us(t1 - t0) as f32);
                t.serving += wrote + (t1 - t0);
            }
        }
    }
}

/// The serve span and its children. Queue, plan and exec are laid out
/// back to back from the durations `ServiceStats` reports; the replay
/// span is the timing backend's own interval.
fn record_spans(
    log: &mut SpanLog,
    request: u64,
    t0: Instant,
    t1: Instant,
    stats: &ServiceStats,
    replay: Replay,
) {
    let root = log.push(request, "serve", t0, t1, None);
    let queued = t0 + stats.queued;
    log.push(request, "service.queue", t0, queued, Some(root));
    let planned = queued + stats.plan;
    log.push(request, "plan", queued, planned, Some(root));
    let exec = log.push(request, "exec", planned, planned + stats.exec, Some(root));
    log.push(request, "replay", replay.start, replay.end, Some(exec));
}

// ---------------------------------------------------------------------
// The run.
// ---------------------------------------------------------------------

/// Run `spec` for `seconds` with `seed`; `traced` interleaves traced
/// reads (through a timing backend, with spans) with untraced ones.
pub fn run(spec: &ServeSpec, seed: u64, seconds: f64, traced: bool) -> Report {
    run_checked(spec, seed, seconds, traced, reference)
}

pub fn run_checked(
    spec: &ServeSpec,
    seed: u64,
    seconds: f64,
    traced: bool,
    reference: ReferenceFn,
) -> Report {
    let mut report = Report {
        workload: spec.name,
        ..Report::default()
    };
    let mut times = Vec::new();
    let ready = match setup(spec, seed, traced) {
        Ok((r, t)) => {
            times.push(t);
            r
        }
        Err(e) => {
            report.attempted = 1;
            report.fail(format!("set-up: {e}"));
            return report;
        }
    };
    let queries = mix();
    let ordered: Vec<bool> = queries.iter().map(preserves_order).collect();
    let services: Vec<&QueryService> = std::iter::once(&ready.plain)
        .chain(ready.traced.as_ref())
        .collect();
    let before: Vec<CacheStats> = services.iter().map(|s| s.cache_stats()).collect();

    let writes_issued = AtomicU64::new(0);
    let epoch = Instant::now();
    let l = Loop {
        spec,
        ready: &ready,
        queries: &queries,
        ordered: &ordered,
        seed,
        epoch,
        writes_issued: &writes_issued,
    };
    let mut tallies: Vec<Tally> = (0..spec.clients).map(|c| Tally::new(&l, c)).collect();
    let slice = Duration::from_secs_f64(seconds / f64::from(SLICES));
    for s in 0..SLICES {
        if s > 0 {
            // Further set-ups (each dropped at once) while the clients wait.
            for _ in 0..spec.setup_reps {
                match setup(spec, seed, traced) {
                    Ok((_, t)) => times.push(t),
                    Err(e) => report.fail(format!("set-up: {e}")),
                }
            }
        }
        let deadline = Instant::now() + slice;
        std::thread::scope(|scope| {
            for t in &mut tallies {
                let l = &l;
                scope.spawn(move || client(l, t, deadline));
            }
        });
    }
    // Taken before the checks below allocate their references.
    let rss = peak_rss_mb();
    let after: Vec<CacheStats> = services.iter().map(|s| s.cache_stats()).collect();

    let mut reads = 0;
    let mut per_query_us: Vec<Vec<f64>> = vec![Vec::new(); queries.len()];
    // Each client's untraced reads per second of serving; the clients
    // run side by side, so their rates add up.
    let mut throughput = 0.0;
    let mut layers: Vec<Layers> = Vec::new();
    let mut writes: Vec<f64> = Vec::new();
    let mut seen: Vec<(Seen, u32)> = Vec::new();
    let mut spans = SpanLog::new(epoch);
    for t in tallies {
        reads += t.reads;
        for (all, kept) in per_query_us.iter_mut().zip(&t.latency_us) {
            all.extend(kept.values());
        }
        if !t.serving.is_zero() {
            let untraced: u64 = t.latency_us.iter().map(Reservoir::seen).sum();
            throughput += untraced as f64 / t.serving.as_secs_f64();
        }
        layers.extend(t.layers);
        writes.extend(t.writes_us.iter().map(|&v| f64::from(v)));
        seen.extend(t.seen);
        for e in t.errors {
            report.fail(e);
        }
        spans.absorb(t.spans);
    }
    report.attempted = reads;

    // Correctness, outside the timed loop.
    let mut expected: HashMap<(usize, u64), Expected> = HashMap::new();
    for q in 0..queries.len() {
        expected.insert((q, 0), reference(&ready.tree, spec, seed, 0, q));
    }
    for (s, _) in &seen {
        let q = usize::from(s.query);
        let v = reference_version(q, u64::from(s.version));
        expected
            .entry((q, v))
            .or_insert_with(|| reference(&ready.tree, spec, seed, v, q));
    }
    let (wrong, lines) = verify(&seen, &expected, &ready.overhead, !spec.replan);
    report.failed += wrong;
    report.failures.extend(lines);
    let (hits, misses) = before.iter().zip(&after).fold((0, 0), |(h, m), (b, a)| {
        (h + a.hits - b.hits, m + a.misses - b.misses)
    });
    let answered: u64 = seen.iter().map(|&(_, n)| u64::from(n)).sum();
    let (want_hits, want_misses) = if spec.replan {
        (0, answered)
    } else {
        (answered, 0)
    };
    if (hits, misses) != (want_hits, want_misses) {
        report.fail(format!(
            "plan cache: {hits} hits / {misses} misses over {answered} reads, \
             expected {want_hits} / {want_misses}"
        ));
    }

    report.counts = Counts {
        model_cost: (0..queries.len()).map(|q| expected[&(q, 0)].cost).sum(),
        rounds: ready.warm.iter().map(|w| w.rounds as usize).sum(),
        supersteps: ready.warm.iter().map(|w| w.supersteps as usize).sum(),
        rows_out: ready.warm.iter().map(|w| w.rows as usize).sum(),
        cache_hit_ratio: hits as f64 / answered.max(1) as f64,
    };

    // End-to-end: the untraced reads. Throughput follows the mean read,
    // and so the share of the run the host spent in its slow mode: it is
    // a table row, not a gated metric (see LAYERS.md).
    let latency_us = per_query_us.concat();
    let setup_s: Vec<f64> = times.iter().map(|t| t.total.as_secs_f64()).collect();
    report.end_to_end = vec![
        metric("latency_p05_us", "us", mix_quantile(&per_query_us, 0.05)),
        metric("latency_p99_us", "us", quantile(&latency_us, 0.99)),
        metric("model_cost", "tuples", report.counts.model_cost),
        metric("setup_s", "s", median(&setup_s)),
        metric("peak_rss_mb", "MiB", rss),
    ];
    report.notes = vec![
        metric("latency_p50_us", "us", median(&latency_us)),
        metric("throughput_qps", "1/s", throughput),
        metric("reads", "count", reads as f64),
    ];

    if traced {
        report.per_layer = per_layer(&layers, &latency_us, &writes, &times, &report.counts);
        let path = trace::spans_path(spec.name, seed);
        match trace::write_spans(&path, &spans) {
            Ok(()) => println!("spans: {} ({} spans)", path.display(), spans.spans.len()),
            Err(e) => println!("spans: not written to {}: {e}", path.display()),
        }
    }
    report
}

/// Per-layer medians over the traced reads. The meter's charge and
/// commit calls run inside `replay` on these workloads and are not
/// timed on their own: they report 0.
fn per_layer(
    layers: &[Layers],
    untraced_us: &[f64],
    writes_us: &[f64],
    times: &[SetupTimes],
    c: &Counts,
) -> Vec<Metric> {
    let col = |f: fn(&Layers) -> f32| -> f64 {
        median(&layers.iter().map(|l| f64::from(f(l))).collect::<Vec<_>>())
    };
    let setup_ms = |f: fn(&SetupTimes) -> Duration| -> f64 {
        median(&times.iter().map(|t| ms(f(t))).collect::<Vec<_>>())
    };
    let serve = col(|l| l.serve);
    vec![
        metric("serve.us", "us", serve),
        metric("service.queue_us", "us", col(|l| l.queue)),
        metric("service.cache_hit_ratio", "ratio", c.cache_hit_ratio),
        metric("service.write_us", "us", median(writes_us)),
        metric("plan.us", "us", col(|l| l.plan)),
        metric("exec.compute_us", "us", col(|l| l.exec - l.replay)),
        metric("exec.rows_out", "count", c.rows_out as f64),
        metric("replay.us", "us", col(|l| l.replay)),
        metric("replay.rounds", "count", c.rounds as f64),
        metric("replay.supersteps", "count", c.supersteps as f64),
        metric("meter.unicast_ns_per_send", "ns", 0.0),
        metric("meter.multicast_us_per_send", "us", 0.0),
        metric("meter.commit_ms", "ms", 0.0),
        metric("meter.new_ms", "ms", setup_ms(|t| t.meter_new)),
        metric("topology.build_ms", "ms", setup_ms(|t| t.tree)),
        metric(
            "serve.unattributed_us",
            "us",
            col(|l| l.serve - l.queue - l.plan - l.exec),
        ),
        metric("trace.overhead_us", "us", serve - median(untraced_us)),
    ]
}
