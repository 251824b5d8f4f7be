//! The concurrent serving layer: one [`QueryService`] fronting many
//! client sessions.
//!
//! [`QueryContext`] is a single-session API: one caller prepares one plan
//! and runs it. A serving deployment looks different — many clients fire
//! queries at one shared catalog and one shared [`ExecBackend`], most of
//! the queries are repeats, and planning cost should be paid once, not
//! per request. `QueryService` is that layer:
//!
//! - **Serving generations.** The service publishes its session state
//!   (catalog, topology, options, strategy registry) as one immutable
//!   generation with a catalog version. [`register`](QueryService::register),
//!   [`register_strategy`](QueryService::register_strategy) and
//!   [`degrade_link`](QueryService::degrade_link) copy it on write and
//!   publish the next version; a query pins the generation current at
//!   its start and plans and executes against it alone.
//! - **Prepared-plan cache.** Each generation owns its plan cache, keyed
//!   by the logical plan alone: within one generation the catalog,
//!   options and topology never change, and a new generation starts with
//!   an empty cache. A hit skips validation, lowering and candidate
//!   pricing entirely and goes straight to execution. Hit/miss/invalidation
//!   counters are exposed via [`cache_stats`](QueryService::cache_stats).
//! - **Admission scheduling.** In-flight queries are bounded
//!   ([`with_max_inflight`](QueryService::with_max_inflight)) by the
//!   crate's one admission gate ([`crate::admission`]), used with a single
//!   implicit tenant: waiting queries are granted in arrival order, so a
//!   burst cannot starve earlier arrivals. Every served query reports
//!   queue / plan / exec timings in its [`ServiceStats`].
//! - **Shared backend.** The service holds an
//!   `Arc<dyn ExecBackend + Send + Sync>`; the pooled cluster backend can
//!   additionally share one persistent worker crew across all queries
//!   ([`PooledClusterBackend::with_shared_pool`]).
//!
//! Results are **bit-identical to single-session execution**: a query
//! served concurrently through the cache returns the same rows and the
//! same metered `edge_totals` as a fresh
//! [`QueryContext::prepare`]`().run()` — the serving stress suite asserts
//! exactly that.
//!
//! # A multi-threaded session
//!
//! ```
//! use std::sync::Arc;
//! use tamp_query::prelude::*;
//! use tamp_query::service::QueryService;
//! use tamp_runtime::SimulatorBackend;
//! use tamp_topology::builders;
//!
//! let mut ctx = QueryContext::new(builders::star(4, 1.0)).with_seed(7);
//! let rows: Vec<Vec<u64>> = (0..120).map(|i| vec![i, i % 5, i * 3]).collect();
//! ctx.register(DistributedTable::round_robin(
//!     "t",
//!     Schema::new(vec!["id", "g", "x"]).unwrap(),
//!     rows,
//!     ctx.tree(),
//! ))
//! .unwrap();
//!
//! let service = QueryService::new(ctx, Arc::new(SimulatorBackend))
//!     .with_max_inflight(4)
//!     .unwrap();
//! let q = LogicalPlan::scan("t").aggregate("g", AggFunc::Sum, "x");
//!
//! // Serial reference, for comparison — and the warm-up serve that
//! // populates the plan cache.
//! let want = service.context().prepare(&q).unwrap().run().unwrap().rows(false);
//! assert!(!service.serve(&q).unwrap().stats.cache_hit);
//!
//! // Four client threads hammer the same query through the service.
//! std::thread::scope(|scope| {
//!     for _ in 0..4 {
//!         let (service, q, want) = (&service, &q, &want);
//!         scope.spawn(move || {
//!             for _ in 0..8 {
//!                 let served = service.serve(q).unwrap();
//!                 assert!(served.stats.cache_hit);
//!                 assert_eq!(&served.result.rows(false), want);
//!             }
//!         });
//!     }
//! });
//!
//! let stats = service.cache_stats();
//! assert_eq!((stats.hits, stats.misses), (32, 1));
//! ```
//!
//! [`PooledClusterBackend::with_shared_pool`]:
//!     tamp_runtime::PooledClusterBackend::with_shared_pool

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::{Duration, Instant};

use tamp_runtime::backend::{ExecBackend, SimulatorBackend};
use tamp_runtime::backend_from_spec;
use tamp_topology::{EdgeId, Tree};

use crate::admission::WeightedAdmission;
use crate::context::{PreparedQuery, QueryContext};
use crate::error::QueryError;
use crate::exec::{self, QueryResult};
use crate::lock_ok;
use crate::physical::strategy::PhysicalStrategy;
use crate::physical::{lower_full, PhysicalPlan};
use crate::plan::LogicalPlan;
use crate::schema::Schema;
use crate::table::DistributedTable;

/// One immutable generation of the service's session state and the
/// plans prepared against it. Every mutation publishes a new generation
/// with an empty plan cache; queries pin the `Arc` once and keep planning
/// and executing against it even if a newer one is published meanwhile.
struct Generation {
    ctx: Arc<QueryContext>,
    version: u64,
    plans: Mutex<PlanCache>,
}

impl Generation {
    fn new(ctx: QueryContext, version: u64) -> Self {
        Generation {
            ctx: Arc::new(ctx),
            version,
            plans: Mutex::default(),
        }
    }
}

/// A cached prepared plan: the lowered physical plan plus its inferred
/// output schema, shared by every query that hits the entry.
struct CachedPlan {
    physical: PhysicalPlan,
    schema: Schema,
}

/// A query pinned to one generation and one prepared plan — see
/// [`QueryService::prepare_pinned`].
pub(crate) struct PinnedQuery {
    generation: Arc<Generation>,
    plan: Arc<CachedPlan>,
    cache_hit: bool,
    plan_time: Duration,
}

impl PinnedQuery {
    /// The topology of the pinned generation.
    pub(crate) fn tree(&self) -> &Tree {
        self.generation.ctx.tree()
    }
}

/// One plan-cache slot.
struct CacheSlot {
    /// Recency tick for eviction at [`PLAN_CACHE_CAPACITY`].
    last_used: u64,
    plan: Arc<CachedPlan>,
}

/// Upper bound on cached prepared plans per generation. A serving
/// workload is repetition-heavy, so steady state is far below this; the
/// cap only protects a long-lived service against a stream of
/// never-repeating ad-hoc plans growing memory without bound. On overflow
/// the least-recently-used entry is evicted.
pub const PLAN_CACHE_CAPACITY: usize = 1024;

/// One generation's prepared plans, keyed by the logical plan.
#[derive(Default)]
struct PlanCache {
    entries: HashMap<LogicalPlan, CacheSlot>,
    /// Monotonic use counter backing LRU eviction.
    tick: u64,
}

impl PlanCache {
    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }
}

/// Point-in-time plan-cache counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries served from a cached prepared plan.
    pub hits: u64,
    /// Queries that had to lower and price their plan.
    pub misses: u64,
    /// Cache invalidation events (`register` / `register_strategy` /
    /// `degrade_link`).
    pub invalidations: u64,
    /// Entries currently cached.
    pub entries: usize,
}

/// Admission-gate counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Queries admitted so far: the gate's grant count.
    pub admitted: u64,
    /// The highest number of queries ever in flight together.
    pub peak_inflight: usize,
    /// The configured bound.
    pub max_inflight: usize,
}

/// Per-query serving telemetry, returned with every result.
#[derive(Clone, Copy, Debug)]
pub struct ServiceStats {
    /// Admission ticket: the query's grant number at the admission gate
    /// — [`QueryService::serve`]'s or the
    /// [`Orchestrator`](crate::orchestrator::Orchestrator)'s. Through
    /// `serve` it is dense and in arrival order.
    pub ticket: u64,
    /// Time spent waiting for admission.
    pub queued: Duration,
    /// Time spent planning (≈0 on a cache hit).
    pub plan: Duration,
    /// Time spent computing fragments and replaying the exchange
    /// schedule on the backend.
    pub exec: Duration,
    /// Whether the prepared plan came from the cache.
    pub cache_hit: bool,
}

/// A served query: the ordinary [`QueryResult`] plus serving telemetry.
#[derive(Clone, Debug)]
pub struct ServedQuery {
    /// The query's result — bit-identical to single-session execution.
    pub result: QueryResult,
    /// Queue/plan/exec timings and cache provenance.
    pub stats: ServiceStats,
}

/// A thread-safe query-serving layer: shared catalog, shared backend,
/// prepared-plan cache, bounded admission in arrival order. See the
/// [module docs](self).
pub struct QueryService {
    generation: RwLock<Arc<Generation>>,
    backend: Arc<dyn ExecBackend + Send + Sync>,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
    admission: WeightedAdmission,
}

impl std::fmt::Debug for QueryService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryService")
            .field("backend", &self.backend.name())
            .field("catalog_version", &self.catalog_version())
            .field("cache", &self.cache_stats())
            .finish()
    }
}

impl QueryService {
    /// Wrap a session into a serving layer over `backend`. The context's
    /// catalog, options and strategy registry become the service's
    /// initial (version 0) state.
    pub fn new(ctx: QueryContext, backend: Arc<dyn ExecBackend + Send + Sync>) -> Self {
        let default_inflight = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .max(2);
        QueryService {
            generation: RwLock::new(Arc::new(Generation::new(ctx, 0))),
            backend,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            admission: WeightedAdmission::single_tenant(default_inflight),
        }
    }

    /// A service over the default centralized engine.
    pub fn with_default_backend(ctx: QueryContext) -> Self {
        QueryService::new(ctx, Arc::new(SimulatorBackend))
    }

    /// A service whose engine is resolved from a backend spec string
    /// (`"simulator"`, `"pooled-cluster:8"`, … — see
    /// [`backend_from_spec`]). Invalid specs surface as typed errors:
    /// unknown engines and zero-width pools are rejected here, not at
    /// first query.
    pub fn from_backend_spec(ctx: QueryContext, spec: &str) -> Result<Self, QueryError> {
        let backend: Arc<dyn ExecBackend + Send + Sync> = Arc::from(backend_from_spec(spec)?);
        Ok(QueryService::new(ctx, backend))
    }

    /// Builder-style: bound concurrent in-flight queries (the admission
    /// gate's capacity). Arrivals beyond the bound queue and are granted
    /// in arrival order.
    ///
    /// A bound of 0 is a typed [`QueryError::InvalidAdmissionLimit`]: a
    /// zero-slot gate could never admit a query, so it is rejected here
    /// instead of deadlocking the first submit.
    pub fn with_max_inflight(mut self, max_inflight: usize) -> Result<Self, QueryError> {
        if max_inflight == 0 {
            return Err(QueryError::InvalidAdmissionLimit);
        }
        self.admission = WeightedAdmission::single_tenant(max_inflight);
        Ok(self)
    }

    /// The shared execution backend.
    pub fn backend(&self) -> &Arc<dyn ExecBackend + Send + Sync> {
        &self.backend
    }

    /// The current generation's session state (catalog + options +
    /// registry). In-flight queries keep the generation they started
    /// with; this returns the newest one.
    pub fn context(&self) -> Arc<QueryContext> {
        Arc::clone(&self.generation().ctx)
    }

    /// The catalog version: bumped by every
    /// [`register`](Self::register) /
    /// [`register_strategy`](Self::register_strategy) /
    /// [`degrade_link`](Self::degrade_link), each of which publishes a
    /// new generation with an empty plan cache.
    pub fn catalog_version(&self) -> u64 {
        self.generation().version
    }

    /// Point-in-time plan-cache counters: hits, misses and invalidations
    /// over the service's lifetime, entries in the current generation.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            entries: lock_ok(&self.generation().plans).entries.len(),
        }
    }

    /// Point-in-time admission counters.
    pub fn admission_stats(&self) -> AdmissionStats {
        self.admission.stats()
    }

    /// Register (or replace) a table: copy-on-write the session state
    /// and publish it as the next generation, whose plan cache starts
    /// empty. In-flight queries finish against the generation they
    /// started with. Returns the new catalog version.
    pub fn register(&self, table: DistributedTable) -> Result<u64, QueryError> {
        self.publish(|ctx| ctx.register(table).map(|_| ()))
    }

    /// Register a custom physical strategy for every subsequent query
    /// (see [`crate::physical::strategy`]): copy-on-write, a new
    /// generation and an empty plan cache, like
    /// [`register`](Self::register). Returns the new catalog version.
    pub fn register_strategy(
        &self,
        strategy: Arc<dyn PhysicalStrategy>,
    ) -> Result<u64, QueryError> {
        self.publish(|ctx| {
            ctx.register_strategy(strategy);
            Ok(())
        })
    }

    /// Degrade one link of the serving topology: divide both directed
    /// bandwidths of `edge` by `factor`, copy-on-write like
    /// [`register`](Self::register) — a new generation whose plan cache
    /// starts empty, so no plan priced on the healthy network is served
    /// again, and in-flight queries finishing on the generation they
    /// started with.
    ///
    /// Every subsequent query re-prices its strategy candidates against
    /// the degraded network; `EXPLAIN` shows the (possibly flipped)
    /// winner. Returns the new catalog version.
    pub fn degrade_link(&self, edge: EdgeId, factor: f64) -> Result<u64, QueryError> {
        self.publish(|ctx| ctx.degrade_link(edge, factor))
    }

    /// Serve one query: admission → plan (cached) → execute on the shared
    /// backend. Blocks while the service is at its in-flight bound.
    ///
    /// The result is bit-identical (rows **and** metered `edge_totals`)
    /// to `QueryContext::prepare(plan)?.run_on(backend)` against the same
    /// catalog generation.
    ///
    /// The queue → plan → exec timeline is monotone by construction: each
    /// phase boundary is captured once and durations are taken between
    /// consecutive boundaries with `saturating_duration_since`, so a
    /// coarse or non-monotone platform clock can underflow none of them.
    pub fn serve(&self, plan: &LogicalPlan) -> Result<ServedQuery, QueryError> {
        let slot = self.admission.acquire(0)?;
        let pinned = self.prepare_pinned(plan)?;
        self.execute_pinned(&pinned, slot.ticket, slot.queued)
    }

    /// Plan (against the current generation, through its cache) and pin
    /// the result: the returned [`PinnedQuery`] holds the generation `Arc`
    /// and the shared prepared plan, so the caller can execute it any
    /// number of times — the orchestrator's recovery loop replays the
    /// *same* plan on the *same* generation even if a concurrent
    /// `register` or [`degrade_link`](Self::degrade_link) publishes a new
    /// one mid-recovery. That pinning is what makes recovered results
    /// bit-identical by construction.
    pub(crate) fn prepare_pinned(&self, plan: &LogicalPlan) -> Result<PinnedQuery, QueryError> {
        let planning = Instant::now();
        let generation = self.generation();
        let (cached, cache_hit) = self.prepare_cached(&generation, plan)?;
        Ok(PinnedQuery {
            generation,
            plan: cached,
            cache_hit,
            plan_time: Instant::now().saturating_duration_since(planning),
        })
    }

    /// Execute a pinned plan on the shared backend, stamping the serving
    /// telemetry. Only the pinned generation is read.
    pub(crate) fn execute_pinned(
        &self,
        pinned: &PinnedQuery,
        ticket: u64,
        queued: Duration,
    ) -> Result<ServedQuery, QueryError> {
        let executing = Instant::now();
        let ctx = &pinned.generation.ctx;
        let result = exec::run_physical(
            ctx.catalog(),
            &pinned.plan.physical,
            ctx.options(),
            &self.backend,
        )?;
        let done = Instant::now();
        debug_assert_eq!(result.schema, pinned.plan.schema);
        Ok(ServedQuery {
            result,
            stats: ServiceStats {
                ticket,
                queued,
                plan: pinned.plan_time,
                exec: done.saturating_duration_since(executing),
                cache_hit: pinned.cache_hit,
            },
        })
    }

    /// Serve and return just the result (stats dropped).
    pub fn execute(&self, plan: &LogicalPlan) -> Result<QueryResult, QueryError> {
        Ok(self.serve(plan)?.result)
    }

    /// Render the query's `EXPLAIN` against the current generation — the
    /// session-layer rendering prefixed with the catalog version the plan
    /// was cached under. Uses (and warms) the plan cache; does not
    /// consume an admission slot.
    pub fn explain(&self, plan: &LogicalPlan) -> Result<String, QueryError> {
        let generation = self.generation();
        let (cached, _) = self.prepare_cached(&generation, plan)?;
        let ctx = &generation.ctx;
        let prepared = PreparedQuery::from_parts(
            ctx.catalog(),
            ctx.options(),
            plan.clone(),
            cached.physical.clone(),
            cached.schema.clone(),
        );
        let version = generation.version;
        Ok(format!("catalog v{version}\n{}", prepared.explain()))
    }

    fn generation(&self) -> Arc<Generation> {
        Arc::clone(
            &self
                .generation
                .read()
                .unwrap_or_else(PoisonError::into_inner),
        )
    }

    /// Copy-on-write the current session state through `mutate` and
    /// publish it as the next generation. A failed mutation publishes
    /// nothing.
    fn publish(
        &self,
        mutate: impl FnOnce(&mut QueryContext) -> Result<(), QueryError>,
    ) -> Result<u64, QueryError> {
        let mut current = self
            .generation
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        let mut ctx = (*current.ctx).clone();
        mutate(&mut ctx)?;
        let version = current.version + 1;
        *current = Arc::new(Generation::new(ctx, version));
        self.invalidations.fetch_add(1, Ordering::Relaxed);
        Ok(version)
    }

    /// Look the plan up in the generation's cache, lowering (and
    /// inserting) on a miss. Returns the shared prepared plan and whether
    /// it was a hit.
    fn prepare_cached(
        &self,
        generation: &Generation,
        plan: &LogicalPlan,
    ) -> Result<(Arc<CachedPlan>, bool), QueryError> {
        {
            let mut cache = lock_ok(&generation.plans);
            let tick = cache.next_tick();
            if let Some(slot) = cache.entries.get_mut(plan) {
                slot.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok((Arc::clone(&slot.plan), true));
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        // Lower outside the cache lock: planning can be slow, and
        // concurrent first-time queries should not serialize on it.
        let ctx = &generation.ctx;
        let (physical, schema) = lower_full(plan, ctx.catalog(), ctx.options(), ctx.strategies())?;
        let cached = Arc::new(CachedPlan { physical, schema });
        // The plan goes into the generation it was lowered against: if a
        // newer one was published meanwhile, this cache is dropped with
        // its generation.
        let mut cache = lock_ok(&generation.plans);
        if cache.entries.len() >= PLAN_CACHE_CAPACITY && !cache.entries.contains_key(plan) {
            // Evict the least-recently-used slot (ticks are unique).
            if let Some(lru) = cache.entries.values().map(|slot| slot.last_used).min() {
                cache.entries.retain(|_, slot| slot.last_used != lru);
            }
        }
        // A racing miss may have inserted first: last writer wins, both
        // plans are correct.
        let last_used = cache.next_tick();
        cache.entries.insert(
            plan.clone(),
            CacheSlot {
                last_used,
                plan: Arc::clone(&cached),
            },
        );
        Ok((cached, false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};
    use crate::plan::AggFunc;
    use crate::schema::Schema;
    use tamp_runtime::PooledClusterBackend;
    use tamp_topology::builders;

    fn ctx() -> QueryContext {
        let tree = builders::rack_tree(&[(3, 1.0, 2.0), (2, 2.0, 1.0)], 1.0);
        let mut ctx = QueryContext::new(tree.clone()).with_seed(11);
        let rows: Vec<Vec<u64>> = (0..150).map(|i| vec![i, i % 6, (i * 37) % 500]).collect();
        ctx.register(DistributedTable::round_robin(
            "facts",
            Schema::new(vec!["id", "g", "x"]).unwrap(),
            rows,
            &tree,
        ))
        .unwrap();
        ctx.register(DistributedTable::round_robin(
            "dims",
            Schema::new(vec!["g", "tier"]).unwrap(),
            (0..6).map(|g| vec![g, g + 10]).collect(),
            &tree,
        ))
        .unwrap();
        ctx
    }

    fn queries() -> Vec<LogicalPlan> {
        vec![
            LogicalPlan::scan("facts")
                .filter(col("x").lt(lit(250)))
                .aggregate("g", AggFunc::Sum, "x"),
            LogicalPlan::scan("facts").join_on(LogicalPlan::scan("dims"), "g", "g"),
            LogicalPlan::scan("facts").order_by("x").limit(10),
        ]
    }

    #[test]
    fn serves_bit_identically_to_a_fresh_session() {
        let service = QueryService::with_default_backend(ctx());
        for q in queries() {
            let served = service.serve(&q).unwrap();
            let fresh = ctx().prepare(&q).unwrap().run().unwrap();
            assert_eq!(served.result.rows(false), fresh.rows(false), "{q}");
            assert_eq!(
                served.result.cost.edge_totals, fresh.cost.edge_totals,
                "{q}"
            );
        }
    }

    #[test]
    fn cache_hits_after_warmup_and_invalidates_on_register() {
        let service = QueryService::with_default_backend(ctx());
        let q = &queries()[0];
        let first = service.serve(q).unwrap();
        assert!(!first.stats.cache_hit);
        for _ in 0..3 {
            assert!(service.serve(q).unwrap().stats.cache_hit);
        }
        let stats = service.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (3, 1, 1));

        // Re-registering a table invalidates; the next serve replans.
        let v = service
            .register(DistributedTable::round_robin(
                "dims",
                Schema::new(vec!["g", "tier"]).unwrap(),
                (0..8).map(|g| vec![g, g + 20]).collect(),
                service.context().tree(),
            ))
            .unwrap();
        assert_eq!(v, 1);
        assert_eq!(service.cache_stats().entries, 0);
        assert_eq!(service.cache_stats().invalidations, 1);
        let replanned = service.serve(q).unwrap();
        assert!(!replanned.stats.cache_hit);
    }

    #[test]
    fn distinct_options_and_plans_get_distinct_entries() {
        let service = QueryService::with_default_backend(ctx());
        for q in queries() {
            service.serve(&q).unwrap();
        }
        let stats = service.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 3, 3));
    }

    #[test]
    fn admission_bounds_inflight_and_keeps_results_exact() {
        let service = Arc::new(
            QueryService::new(ctx(), Arc::new(PooledClusterBackend::with_shared_pool(2)))
                .with_max_inflight(3)
                .unwrap(),
        );
        let qs = queries();
        let serial: Vec<_> = qs
            .iter()
            .map(|q| ctx().prepare(q).unwrap().run().unwrap())
            .collect();
        // Warm the cache serially: the threaded phase then hits
        // deterministically (a cold start could thundering-herd several
        // misses for the same plan, since lowering happens outside the
        // cache lock).
        for (i, q) in qs.iter().enumerate() {
            let warm = service.serve(q).unwrap().stats;
            assert!(!warm.cache_hit);
            assert_eq!(warm.ticket, i as u64);
        }
        let tickets = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for t in 0..6 {
                let (service, qs, serial, tickets) = (&service, &qs, &serial, &tickets);
                scope.spawn(move || {
                    for i in 0..6 {
                        let q = &qs[(t + i) % qs.len()];
                        let want = &serial[(t + i) % qs.len()];
                        let served = service.serve(q).unwrap();
                        assert!(served.stats.cache_hit);
                        assert_eq!(served.result.rows(false), want.rows(false));
                        assert_eq!(served.result.cost.edge_totals, want.cost.edge_totals);
                        tickets.lock().unwrap().push(served.stats.ticket);
                    }
                });
            }
        });
        // Grant numbers are dense: the threaded serves got exactly the
        // tickets after the warm-up's.
        let mut tickets = tickets.into_inner().unwrap();
        tickets.sort_unstable();
        assert_eq!(tickets, (3..=38).collect::<Vec<u64>>());
        let adm = service.admission_stats();
        assert_eq!(adm.admitted, 39); // 3 warm-up + 36 threaded
        assert!(adm.peak_inflight <= 3, "{adm:?}");
        let cache = service.cache_stats();
        assert_eq!((cache.hits, cache.misses), (36, 3));
    }

    #[test]
    fn cache_is_bounded_with_lru_eviction() {
        let service = QueryService::with_default_backend(ctx());
        // A stream of never-repeating plans must not grow the cache past
        // its capacity.
        for n in 0..PLAN_CACHE_CAPACITY + 8 {
            service
                .explain(&LogicalPlan::scan("facts").limit(n + 1))
                .unwrap();
        }
        let stats = service.cache_stats();
        assert_eq!(stats.entries, PLAN_CACHE_CAPACITY);
        assert_eq!(stats.misses, (PLAN_CACHE_CAPACITY + 8) as u64);
        // The oldest plans were evicted, the newest survive.
        assert!(
            !service
                .serve(&LogicalPlan::scan("facts").limit(1))
                .unwrap()
                .stats
                .cache_hit
        );
        assert!(
            service
                .serve(&LogicalPlan::scan("facts").limit(PLAN_CACHE_CAPACITY + 8))
                .unwrap()
                .stats
                .cache_hit
        );
    }

    #[test]
    fn explain_names_the_catalog_version_and_warms_the_cache() {
        let service = QueryService::with_default_backend(ctx());
        let q = queries()[1].clone();
        let text = service.explain(&q).unwrap();
        assert!(text.contains("catalog v0"), "{text}");
        assert!(text.contains("HashJoin"), "{text}");
        // The explain warmed the cache: the first serve is a hit.
        assert!(service.serve(&q).unwrap().stats.cache_hit);
    }

    #[test]
    fn zero_max_inflight_is_a_typed_error_not_a_deadlock() {
        // Regression: a zero-slot gate could never admit a query; reject
        // it at construction like the runtime rejects zero-width pools.
        let err = QueryService::with_default_backend(ctx())
            .with_max_inflight(0)
            .map(|_| ())
            .unwrap_err();
        assert_eq!(err, QueryError::InvalidAdmissionLimit);
        assert!(err.to_string().contains("max_inflight"), "{err}");
        // Every nonzero bound still works, including 1.
        let service = QueryService::with_default_backend(ctx())
            .with_max_inflight(1)
            .unwrap();
        assert!(service.serve(&queries()[0]).is_ok());
        assert_eq!(service.admission_stats().max_inflight, 1);
    }

    #[test]
    fn backend_specs_resolve_and_zero_width_pools_are_rejected() {
        let ok = QueryService::from_backend_spec(ctx(), "pooled-cluster:2").unwrap();
        assert_eq!(ok.backend().name(), "pooled-cluster(2)");
        let err = QueryService::from_backend_spec(ctx(), "pooled-cluster:0").unwrap_err();
        assert!(matches!(err, QueryError::Backend(_)), "{err:?}");
        assert!(err.to_string().contains("zero-width"), "{err}");
    }

    #[test]
    fn degrading_an_uplink_invalidates_the_cache_and_flips_the_explain_winner() {
        // Two racks (4 + 2 computes) behind a fat core. Healthy, the
        // one-round partial repartition wins the aggregate. Degrade the
        // big rack's core uplink 16x and the repartition pays
        // per-(node, group) partials across the now-thin link while the
        // combining convergecast ships one partial set per level — the
        // winner must flip, which requires the degrade to publish a new
        // generation whose plan cache starts empty.
        let tree = builders::rack_tree(&[(4, 4.0, 8.0), (2, 4.0, 8.0)], 16.0);
        let mut ctx = QueryContext::new(tree.clone()).with_seed(7);
        let rows: Vec<Vec<u64>> = (0..600).map(|i| vec![i, i % 4, (i * 31) % 997]).collect();
        ctx.register(DistributedTable::round_robin(
            "facts",
            Schema::new(vec!["id", "g", "x"]).unwrap(),
            rows,
            &tree,
        ))
        .unwrap();
        let service = QueryService::with_default_backend(ctx);
        let q = LogicalPlan::scan("facts").aggregate("g", AggFunc::Sum, "x");

        let healthy = service.serve(&q).unwrap();
        assert!(!healthy.stats.cache_hit);
        assert!(service.serve(&q).unwrap().stats.cache_hit);
        let before = service.explain(&q).unwrap();
        assert!(before.contains("-repartition"), "{before}");
        assert!(!before.contains("via combining-tree"), "{before}");

        // The big rack's core uplink is EdgeId(0) in rack_tree order.
        let version = service.degrade_link(EdgeId(0), 16.0).unwrap();
        assert!(version > 0, "degrade must publish a new catalog version");
        assert_eq!(service.cache_stats().invalidations, 1);

        let repriced = service.serve(&q).unwrap();
        assert!(
            !repriced.stats.cache_hit,
            "degraded topology must invalidate the cached plan"
        );
        let after = service.explain(&q).unwrap();
        assert!(after.contains("via combining-tree"), "{after}");
        // Re-pricing changes the exchange schedule, never the answer.
        assert_eq!(healthy.result.rows(false), repriced.result.rows(false));

        // Bad degrades stay typed and publish no new generation.
        let fp_err = service.degrade_link(EdgeId(99), 2.0).unwrap_err();
        assert!(
            matches!(fp_err, QueryError::InvalidFaultTarget(_)),
            "{fp_err:?}"
        );
        let bw_err = service.degrade_link(EdgeId(0), 0.0).unwrap_err();
        assert!(
            matches!(bw_err, QueryError::InvalidFaultTarget(_)),
            "{bw_err:?}"
        );
        assert_eq!(service.cache_stats().invalidations, 1);
        assert!(service.serve(&q).unwrap().stats.cache_hit);
    }
}
