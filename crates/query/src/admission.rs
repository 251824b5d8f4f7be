//! The admission gate of the query layer: deficit-weighted round-robin
//! (DRR) over tenants.
//!
//! The [orchestrator](crate::orchestrator) declares its tenants here; the
//! plain [`QueryService`](crate::service::QueryService) uses the same gate
//! with one implicit tenant (weight 1, unbounded quota,
//! [`Priority::Normal`]), where DRR reduces to granting in arrival order.
//!
//! - every tenant is declared up front as a [`TenantSpec`]: a share
//!   `weight`, a `quota` bounding its in-flight **plus** queued queries
//!   (submits beyond the quota are rejected with
//!   [`QueryError::TenantQueueFull`], not queued), and a [`Priority`]
//!   class;
//! - admission capacity is a global in-flight bound; when a slot frees,
//!   the scheduler picks the next grant by
//!   strict priority across classes and DRR within the class: each visit
//!   replenishes a tenant's deficit by its weight and grants one query
//!   per deficit unit, so over any backlogged window tenants receive
//!   service proportional to weight — and *every* backlogged tenant is
//!   visited once per rotation, which is the no-starvation guarantee;
//! - queries within one tenant stay FIFO.
//!
//! The fairness telemetry is deliberately structural rather than
//! wall-clock: every grant records how many *other* grants happened
//! between its enqueue and its own grant (`Slot::waited_grants`,
//! surfaced per tenant as `TenantStats::max_waited_grants`). For
//! a backlogged tenant of weight `w` in a system of total weight `W`,
//! DRR bounds that number by about `W / w` per queued position — a
//! deterministic quantity the stress tests can assert exactly, where
//! wall-clock p99s would flake.

use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::error::QueryError;
use crate::lock_ok;
use crate::service::AdmissionStats;

/// Strict priority classes: every queued query of a higher class is
/// granted before any query of a lower class is considered. Weighted
/// fairness (DRR) applies *within* a class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Served before everything else (dashboards, health probes).
    Interactive,
    /// The default class.
    #[default]
    Normal,
    /// Served only when no higher class has queued queries (backfill,
    /// report batches).
    Batch,
}

impl Priority {
    /// All classes, highest first — the scheduler's scan order.
    pub const ALL: [Priority; 3] = [Priority::Interactive, Priority::Normal, Priority::Batch];
}

/// One tenant's admission contract. See the [module docs](self) for how
/// the three knobs interact.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TenantSpec {
    /// Unique tenant name (the key queries are submitted under).
    pub name: String,
    /// Relative service share within the priority class (≥ 1). A
    /// weight-4 tenant gets 4 grants per DRR rotation where a weight-1
    /// tenant gets 1.
    pub weight: u32,
    /// Max in-flight + queued queries (≥ 1); submits beyond it are
    /// rejected with [`QueryError::TenantQueueFull`].
    pub quota: usize,
    /// Strict priority class.
    pub priority: Priority,
}

impl TenantSpec {
    /// A [`Priority::Normal`] tenant.
    pub fn new(name: impl Into<String>, weight: u32, quota: usize) -> Self {
        TenantSpec {
            name: name.into(),
            weight,
            quota,
            priority: Priority::Normal,
        }
    }

    /// Builder-style: set the priority class.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    pub(crate) fn validate(&self) -> Result<(), QueryError> {
        if self.name.is_empty() {
            return Err(QueryError::InvalidTenantSpec("empty tenant name".into()));
        }
        if self.weight == 0 {
            return Err(QueryError::InvalidTenantSpec(format!(
                "tenant `{}` has weight 0 (need \u{2265} 1)",
                self.name
            )));
        }
        if self.quota == 0 {
            return Err(QueryError::InvalidTenantSpec(format!(
                "tenant `{}` has quota 0 (need \u{2265} 1)",
                self.name
            )));
        }
        Ok(())
    }
}

/// A granted admission slot, returned by [`WeightedAdmission::acquire`].
/// Dropping it releases the slot, also when the query errors or its
/// thread panics.
pub(crate) struct Slot<'a> {
    gate: &'a WeightedAdmission,
    /// Index of the tenant holding the slot.
    pub tenant: usize,
    /// Global grant sequence number: the query's ticket.
    pub ticket: u64,
    /// Grants to *other* queries between this query's enqueue and its own
    /// grant — the structural fairness metric (see the module docs).
    pub waited_grants: u64,
    /// Wall-clock time spent queued.
    pub queued: Duration,
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        self.gate.release(self.tenant);
    }
}

/// One tenant's scheduler state.
struct TenantState {
    spec: TenantSpec,
    /// DRR deficit: grants this tenant may take before the cursor moves
    /// on. Replenished by `weight` when the cursor arrives with the
    /// deficit spent; reset to 0 whenever the tenant has no waiters.
    deficit: u32,
    /// Total submits accepted into the queue (assigns per-tenant seqs).
    enqueued: u64,
    /// Total grants; the waiter with seq `s` runs once `granted > s`.
    granted: u64,
    /// Currently executing queries.
    running: usize,
    /// Submits rejected at quota.
    rejected: u64,
    /// Per queued waiter (FIFO): global grant count at its enqueue.
    pending: VecDeque<u64>,
    /// seq → (global ticket, waited_grants), filled at grant time,
    /// drained by the waiter when it wakes.
    waits: HashMap<u64, (u64, u64)>,
}

impl TenantState {
    fn queued(&self) -> usize {
        (self.enqueued - self.granted) as usize
    }

    fn occupancy(&self) -> usize {
        self.queued() + self.running
    }
}

/// Point-in-time per-tenant admission counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TenantAdmission {
    /// Queries granted so far.
    pub granted: u64,
    /// Submits rejected at the tenant's quota.
    pub rejected: u64,
    /// Queries currently queued.
    pub queued: usize,
    /// Queries currently executing.
    pub running: usize,
}

struct SchedState {
    tenants: Vec<TenantState>,
    /// Per priority class: members (indexes into `tenants`, registration
    /// order) and the DRR cursor.
    classes: [(Vec<usize>, usize); 3],
    running_total: usize,
    /// The highest `running_total` ever reached.
    peak_running: usize,
    queued_total: usize,
    grants_total: u64,
}

/// The weighted-fair admission gate (crate-internal: the
/// [`Orchestrator`](crate::orchestrator::Orchestrator) and the
/// [`QueryService`](crate::service::QueryService) are its public faces).
pub(crate) struct WeightedAdmission {
    capacity: usize,
    state: Mutex<SchedState>,
    cv: Condvar,
}

impl WeightedAdmission {
    /// A gate admitting at most `capacity` concurrent queries across all
    /// tenants. `capacity` ≥ 1 and tenant specs are validated by the
    /// orchestrator builder before this is called.
    pub(crate) fn new(capacity: usize, specs: Vec<TenantSpec>) -> Self {
        let mut classes: [(Vec<usize>, usize); 3] = Default::default();
        for (i, spec) in specs.iter().enumerate() {
            let class = Priority::ALL
                .iter()
                .position(|&p| p == spec.priority)
                .expect("every priority is in ALL");
            classes[class].0.push(i);
        }
        let tenants: Vec<TenantState> = specs
            .into_iter()
            .map(|spec| TenantState {
                spec,
                deficit: 0,
                enqueued: 0,
                granted: 0,
                running: 0,
                rejected: 0,
                pending: VecDeque::new(),
                waits: HashMap::new(),
            })
            .collect();
        WeightedAdmission {
            capacity: capacity.max(1),
            state: Mutex::new(SchedState {
                tenants,
                classes,
                running_total: 0,
                peak_running: 0,
                queued_total: 0,
                grants_total: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// The [`QueryService`](crate::service::QueryService)'s gate: one
    /// implicit tenant (index 0) of weight 1, unbounded quota and
    /// [`Priority::Normal`], so grants come in arrival order.
    pub(crate) fn single_tenant(capacity: usize) -> Self {
        WeightedAdmission::new(capacity, vec![TenantSpec::new("service", 1, usize::MAX)])
    }

    /// Block until the next queued query of tenant `tenant` (an index in
    /// declaration order) is granted. Rejects, without queuing, when the
    /// tenant is at its quota.
    pub(crate) fn acquire(&self, tenant: usize) -> Result<Slot<'_>, QueryError> {
        let arrived = Instant::now();
        let mut s = lock_ok(&self.state);
        let t = &mut s.tenants[tenant];
        if t.occupancy() >= t.spec.quota {
            t.rejected += 1;
            return Err(QueryError::TenantQueueFull {
                tenant: t.spec.name.clone(),
                quota: t.spec.quota,
            });
        }
        let seq = t.enqueued;
        t.enqueued += 1;
        let at_enqueue = s.grants_total;
        s.tenants[tenant].pending.push_back(at_enqueue);
        s.queued_total += 1;
        self.schedule(&mut s);
        while s.tenants[tenant].granted <= seq {
            s = match self.cv.wait(s) {
                Ok(s) => s,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
        let (ticket, waited_grants) = s.tenants[tenant]
            .waits
            .remove(&seq)
            .expect("grant recorded a wait for every seq");
        Ok(Slot {
            gate: self,
            tenant,
            ticket,
            waited_grants,
            queued: Instant::now().saturating_duration_since(arrived),
        })
    }

    /// Release a finished (or failed) query's slot: [`Slot`]'s drop.
    fn release(&self, tenant: usize) {
        let mut s = lock_ok(&self.state);
        s.tenants[tenant].running -= 1;
        s.running_total -= 1;
        self.schedule(&mut s);
    }

    /// Grant queued queries while capacity allows: strict priority across
    /// classes, DRR within a class (see the module docs). Called under
    /// the scheduler lock on every arrival and release.
    fn schedule(&self, s: &mut SchedState) {
        let mut granted_any = false;
        while s.running_total < self.capacity && s.queued_total > 0 {
            let Some(i) = Self::pick(s) else { break };
            let ticket = s.grants_total;
            let t = &mut s.tenants[i];
            let seq = t.granted;
            t.granted += 1;
            t.running += 1;
            let at_enqueue = t.pending.pop_front().expect("a waiter per queued seq");
            t.waits.insert(seq, (ticket, ticket - at_enqueue));
            s.grants_total += 1;
            s.queued_total -= 1;
            s.running_total += 1;
            s.peak_running = s.peak_running.max(s.running_total);
            granted_any = true;
        }
        if granted_any {
            self.cv.notify_all();
        }
    }

    /// The DRR pick: the tenant receiving the next grant. `None` only if
    /// no tenant has waiters (callers check `queued_total` first).
    fn pick(s: &mut SchedState) -> Option<usize> {
        let SchedState {
            tenants, classes, ..
        } = s;
        for (members, cursor) in classes.iter_mut() {
            if !members.iter().any(|&i| tenants[i].queued() > 0) {
                continue;
            }
            // One full rotation is guaranteed to land on a backlogged
            // member; idle members spend no deficit.
            loop {
                let at = *cursor % members.len();
                let t = &mut tenants[members[at]];
                if t.queued() == 0 {
                    // Ineligible: reset (DRR's anti-banking rule) and move
                    // on.
                    t.deficit = 0;
                    *cursor = at + 1;
                    continue;
                }
                if t.deficit == 0 {
                    t.deficit = t.spec.weight;
                }
                t.deficit -= 1;
                if t.deficit == 0 {
                    // Quantum spent: the next pick starts at the next
                    // member.
                    *cursor = at + 1;
                }
                return Some(members[at]);
            }
        }
        None
    }

    /// Total queries currently queued (the autoscaler's queue-depth
    /// signal).
    pub(crate) fn queue_depth(&self) -> usize {
        lock_ok(&self.state).queued_total
    }

    /// Total queries currently executing.
    pub(crate) fn inflight(&self) -> usize {
        lock_ok(&self.state).running_total
    }

    /// The global in-flight bound.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Point-in-time gate counters: grants so far, peak in flight, and
    /// the capacity.
    pub(crate) fn stats(&self) -> AdmissionStats {
        let s = lock_ok(&self.state);
        AdmissionStats {
            admitted: s.grants_total,
            peak_inflight: s.peak_running,
            max_inflight: self.capacity,
        }
    }

    /// Point-in-time per-tenant counters, in registration order.
    pub(crate) fn tenant_admission(&self) -> Vec<TenantAdmission> {
        let s = lock_ok(&self.state);
        s.tenants
            .iter()
            .map(|t| TenantAdmission {
                granted: t.granted,
                rejected: t.rejected,
                queued: t.queued(),
                running: t.running,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn specs_validate() {
        assert!(TenantSpec::new("a", 1, 1).validate().is_ok());
        for bad in [
            TenantSpec::new("", 1, 1),
            TenantSpec::new("a", 0, 1),
            TenantSpec::new("a", 1, 0),
        ] {
            assert!(matches!(
                bad.validate(),
                Err(QueryError::InvalidTenantSpec(_))
            ));
        }
    }

    #[test]
    fn quota_overflow_is_rejected_without_queuing() {
        // Capacity 1, quota 2: one running plus one queued query fill the
        // quota, so a third submit is rejected instead of queued.
        let adm = WeightedAdmission::new(1, vec![TenantSpec::new("a", 1, 2)]);
        let g = adm.acquire(0).unwrap();
        assert_eq!((g.ticket, g.waited_grants), (0, 0));
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| adm.acquire(0).map(|g| g.ticket));
            while adm.queue_depth() == 0 {
                std::thread::yield_now();
            }
            let Err(err) = adm.acquire(0) else {
                panic!("a submit beyond the quota must be rejected");
            };
            assert!(matches!(err, QueryError::TenantQueueFull { quota: 2, .. }));
            drop(g);
            assert_eq!(waiter.join().unwrap().unwrap(), 1);
        });
    }

    #[test]
    fn one_tenant_is_granted_in_arrival_order() {
        // The service's gate: hold its only slot, queue the waiters one at
        // a time, then release. Within one tenant DRR grants in arrival
        // order, so the tickets are dense and FIFO.
        const WAITERS: usize = 6;
        let adm = WeightedAdmission::single_tenant(1);
        let order = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            let hold = adm.acquire(0).unwrap();
            for arrival in 0..WAITERS {
                let (adm, order) = (&adm, &order);
                scope.spawn(move || {
                    let g = adm.acquire(0).unwrap();
                    order.lock().unwrap().push((arrival, g.ticket));
                });
                while adm.queue_depth() <= arrival {
                    std::thread::yield_now();
                }
            }
            drop(hold);
        });
        let want: Vec<(usize, u64)> = (0..WAITERS).map(|a| (a, a as u64 + 1)).collect();
        assert_eq!(order.into_inner().unwrap(), want);
    }

    #[test]
    fn drr_shares_grants_by_weight_within_a_rotation() {
        // Two backlogged tenants, weights 3 and 1, capacity 1: grants
        // must interleave 3:1, and the weight-1 tenant's waited_grants
        // stays ≤ 3 — the structural no-starvation bound.
        let adm = Arc::new(WeightedAdmission::new(
            1,
            vec![
                TenantSpec::new("big", 3, 64),
                TenantSpec::new("small", 1, 64),
            ],
        ));
        let order = Arc::new(Mutex::new(Vec::new()));
        let queued = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for (ix, tenant, n) in [(0, "big", 9usize), (1, "small", 3usize)] {
                for _ in 0..n {
                    let (adm, order, queued) = (&adm, &order, &queued);
                    scope.spawn(move || {
                        queued.fetch_add(1, Ordering::SeqCst);
                        let g = adm.acquire(ix).unwrap();
                        order.lock().unwrap().push((tenant, g.waited_grants));
                    });
                }
            }
        });
        let order = order.lock().unwrap();
        assert_eq!(order.len(), 12);
        for (tenant, waited) in order.iter() {
            // W = 4: a weight-1 tenant waits at most ~3 foreign grants
            // per own grant; give slack for its own earlier grants and
            // arrival racing (threads may enqueue after grants started).
            let bound = if *tenant == "small" { 9 } else { 12 };
            assert!(waited <= &bound, "{tenant} waited {waited} grants");
        }
    }

    #[test]
    fn strict_priority_preempts_lower_classes() {
        // Capacity 1; a batch query holds the slot while an interactive
        // and a batch query queue. On release, the interactive one must
        // be granted first despite arriving later.
        let adm = Arc::new(WeightedAdmission::new(
            1,
            vec![
                TenantSpec::new("fg", 1, 8).with_priority(Priority::Interactive),
                TenantSpec::new("bg", 8, 8).with_priority(Priority::Batch),
            ],
        ));
        let hold = adm.acquire(1).unwrap();
        let adm_bg = Arc::clone(&adm);
        let bg = std::thread::spawn(move || {
            let g = adm_bg.acquire(1).unwrap();
            (g.ticket, std::time::Instant::now())
        });
        while adm.queue_depth() < 1 {
            std::thread::yield_now();
        }
        let adm_fg = Arc::clone(&adm);
        let fg = std::thread::spawn(move || {
            let g = adm_fg.acquire(0).unwrap();
            (g.ticket, std::time::Instant::now())
        });
        while adm.queue_depth() < 2 {
            std::thread::yield_now();
        }
        drop(hold); // frees the slot: fg must win it
        let (fg_ticket, fg_at) = fg.join().unwrap();
        let (bg_ticket, bg_at) = bg.join().unwrap();
        assert!(fg_ticket < bg_ticket, "interactive granted first");
        assert!(fg_at <= bg_at);
    }
}
