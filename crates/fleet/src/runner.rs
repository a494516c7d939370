//! Fleet execution: exact RACH contention over static spawn tiles.
//!
//! The street is split into `FleetConfig::n_shards` spawn tiles *by
//! config*: a shard owns a contiguous x-interval of the street and the
//! cells clustered inside it, and every UE lives its whole run on the
//! shard whose tile it spawned in. Each shard runs the shared UE driver
//! (`st_net::driver`) over its UEs; worker threads are merely the labour
//! that steps the shards. Each shard derives every RNG stream from the
//! fleet master seed and global UE ids, and shard results merge in shard
//! order.
//!
//! ## Occasion barriers
//!
//! Shards advance one occasion epoch at a time (the epoch is the minimum
//! BS response delay, so replies always land in the shards' future). At
//! each barrier the RACH attempts that arrived at base stations during
//! the epoch leave the shards' outboxes and meet in a shared
//! [`SharedRachStage`], which resolves the globally merged, canonically
//! ordered attempt set and fans the replies back before the next epoch
//! starts. Contention is therefore exact, and the aggregate is
//! byte-identical across worker counts *and* shard counts — sharding is
//! pure parallelism.
//!
//! ## Contention groups
//!
//! With an interest radius the barrier narrows from global to
//! *neighbor-set*: shards are grouped into the connected components of
//! the "reachable cell sets intersect" relation (tile interval ± interest
//! radius ± whole-run travel margin, plus the tile's own cluster and any
//! out-of-set initial serving attachments). Two shards in different
//! groups can never publish an attempt to the same cell, so each group
//! gets its own [`SharedRachStage`] and its own barrier, and widely
//! separated cell clusters never synchronize with each other. With one
//! group the behaviour degenerates to the single global stage.
//!
//! ## Worker plan
//!
//! `workers` caps the thread count: the runner spawns
//! `min(workers, n_shards)` threads and deals the shards, sorted by
//! (group, shard), into contiguous chunks. Every epoch each thread visits
//! its groups in ascending order, stepping that group's shards and then
//! meeting the group's other threads at the group's barrier. A group's
//! barrier counts only the threads that hold its shards, and because
//! every thread takes its groups in the same order, no wait cycle can
//! form.

use std::any::Any;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::Instant;

use st_des::SimTime;
use st_mac::responder::ResponderStats;
use st_net::driver::responder_config;
use st_net::radio::build_world;
use st_net::stage::{SharedRachStage, StageCounters};

use crate::deployment::FleetConfig;
use crate::metrics::{FleetOutcome, StageReport};
use crate::sim::ShardSim;
use crate::telemetry::{SnapshotRing, SnapshotSlice};

/// Deterministic-interleaving harness knob: the order a thread steps a
/// group's shards and the order the resolution pass drains the group's
/// outboxes. Canonical resolution ordering makes all of these
/// byte-identical — the adversarial variants exist so tests can *prove*
/// that, instead of letting real-thread nondeterminism hide in a lucky
/// merge order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StageOrder {
    /// Natural order (production).
    #[default]
    Forward,
    /// Every iteration order reversed.
    Reversed,
    /// Rotated by the given offset.
    Rotated(usize),
}

impl StageOrder {
    /// The visiting order for `n` items.
    fn permutation(self, n: usize) -> Vec<usize> {
        match self {
            StageOrder::Forward => (0..n).collect(),
            StageOrder::Reversed => (0..n).rev().collect(),
            StageOrder::Rotated(r) => (0..n).map(|i| (i + r) % n.max(1)).collect(),
        }
    }
}

/// Run every shard of the fleet with as many workers as the machine
/// offers.
pub fn run_fleet(cfg: &FleetConfig) -> FleetOutcome {
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    run_fleet_with_workers(cfg, workers)
}

/// Run every shard of the fleet on at most `workers` threads. The result
/// is identical to [`run_fleet`]'s for the same config and seed.
pub fn run_fleet_with_workers(cfg: &FleetConfig, workers: usize) -> FleetOutcome {
    run_fleet_exact_with_order(cfg, workers, StageOrder::Forward)
}

/// The contention-group partition: shard "touch sets" (reachable cells ∪
/// initial serving cells) are closed under intersection into connected
/// components. Returns `(group_of_shard, groups, touch_set_per_shard)`;
/// groups and their member lists ascend.
fn contention_groups(
    cfg: &FleetConfig,
    sims: &[Mutex<ShardSim>],
) -> (Vec<u32>, Vec<Vec<usize>>, Vec<Vec<usize>>) {
    let n_shards = cfg.n_shards;
    let tiles = cfg.tiles();
    let touch: Vec<Vec<usize>> = (0..n_shards)
        .map(|s| {
            let mut t = cfg.reachable_cells(&tiles, s);
            for c in sims[s].lock().unwrap().serving_cells() {
                if !t.contains(&c) {
                    t.push(c);
                }
            }
            t.sort_unstable();
            t
        })
        .collect();

    // Union-find over shards, merged through shared cells.
    let mut parent: Vec<usize> = (0..n_shards).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    let mut cell_owner: BTreeMap<usize, usize> = BTreeMap::new();
    for (s, cells) in touch.iter().enumerate() {
        for &c in cells {
            match cell_owner.get(&c) {
                Some(&o) => {
                    let (a, b) = (find(&mut parent, o), find(&mut parent, s));
                    if a != b {
                        parent[b.max(a)] = b.min(a);
                    }
                }
                None => {
                    cell_owner.insert(c, s);
                }
            }
        }
    }
    let mut group_of = vec![0u32; n_shards];
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut root_to_group: BTreeMap<usize, usize> = BTreeMap::new();
    for (s, slot) in group_of.iter_mut().enumerate() {
        let r = find(&mut parent, s);
        let g = *root_to_group.entry(r).or_insert_with(|| {
            groups.push(Vec::new());
            groups.len() - 1
        });
        *slot = g as u32;
        groups[g].push(s);
    }
    (group_of, groups, touch)
}

/// A poisoned shard or stage lock means another worker panicked
/// mid-epoch; the runner re-raises that panic, so this one just stops.
const POISONED: &str = "another fleet worker panicked";

/// A reusable barrier that a panicking worker can break. `wait` returns
/// `false` once the run's abort flag is up, so a worker never blocks
/// forever on a partner that unwound — `std::sync::Barrier` has no such
/// exit and does not poison.
struct OccasionBarrier {
    threads: usize,
    /// Threads arrived in the current generation, and the generation.
    state: Mutex<(usize, u64)>,
    cvar: Condvar,
}

impl OccasionBarrier {
    fn new(threads: usize) -> OccasionBarrier {
        OccasionBarrier {
            threads,
            state: Mutex::new((0, 0)),
            cvar: Condvar::new(),
        }
    }

    /// Block until every thread of the group arrives (`true`) or the run
    /// aborts (`false`).
    fn wait(&self, abort: &AtomicBool) -> bool {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let generation = st.1;
        st.0 += 1;
        if st.0 == self.threads {
            *st = (0, generation.wrapping_add(1));
            self.cvar.notify_all();
        }
        while st.1 == generation && !abort.load(Ordering::Acquire) {
            st = self.cvar.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        !abort.load(Ordering::Acquire)
    }

    /// Wake every waiter after the abort flag went up.
    fn break_waiters(&self) {
        let _st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        self.cvar.notify_all();
    }
}

/// Test-build hook: a fleet run with this seed panics in shard 1's step
/// of epoch 3, so the runner's unwind handling can be exercised without
/// a config field.
#[cfg(test)]
const INJECTED_PANIC_SEED: u64 = 0x00de_adbe_ef00;

/// One thread's share of an epoch: a run of one group's shards.
struct Segment {
    group: usize,
    shards: Vec<usize>,
    /// The order this thread steps `shards` in.
    step_order: Vec<usize>,
}

/// Barrier-synchronized fleet execution, with an explicit
/// shard-visit/outbox-drain order for the determinism stress tests.
/// Production entry points always pass [`StageOrder::Forward`]; any
/// order must produce byte-identical aggregates.
pub fn run_fleet_exact_with_order(
    cfg: &FleetConfig,
    workers: usize,
    order: StageOrder,
) -> FleetOutcome {
    cfg.validate().expect("invalid fleet config");
    let n_shards = cfg.n_shards;
    let n_cells = cfg.base.cells.len();

    let (sites, ue_codebook) = build_world(&cfg.base);
    let parts = cfg.shard_partition();
    let part_lens: Vec<usize> = parts.iter().map(Vec::len).collect();
    let sims: Vec<Mutex<ShardSim>> = parts
        .into_iter()
        .enumerate()
        .map(|(s, specs)| Mutex::new(ShardSim::new(cfg, s, specs, &sites, &ue_codebook)))
        .collect();
    let (group_of, groups, touch) = contention_groups(cfg, &sims);
    let n_groups = groups.len();

    let rc = responder_config(&cfg.base);
    // The barrier spacing the stage is safe under: no longer than the
    // minimum BS response delay (see the `stage` module docs).
    let epoch = rc.rar_delay.min(rc.msg4_delay);
    let deadline = SimTime::ZERO + cfg.base.duration;
    let n_epochs = cfg.base.duration.as_nanos().div_ceil(epoch.as_nanos());
    let stages: Vec<Mutex<SharedRachStage>> = groups
        .iter()
        .map(|g| {
            let inflight: usize = g.iter().map(|&s| part_lens[s]).sum();
            let mut st = SharedRachStage::new(n_cells, rc, inflight);
            if let Some(dt) = cfg.snapshot_interval {
                // Shards carry no responders, so the timeline's
                // responder-side fields come from the stages' own
                // per-interval attribution.
                st.arm_slices(dt, deadline);
            }
            Mutex::new(st)
        })
        .collect();

    // Worker plan (see the module docs): deal the (group, shard)-sorted
    // shards into contiguous chunks, one per thread, and cut each chunk
    // into per-group segments.
    let n_threads = workers.clamp(1, n_shards);
    let mut dealt: Vec<usize> = (0..n_shards).collect();
    dealt.sort_by_key(|&s| (group_of[s], s));
    let mut plans: Vec<Vec<Segment>> = Vec::with_capacity(n_threads);
    let mut group_threads: Vec<Vec<usize>> = vec![Vec::new(); n_groups];
    let mut rest = dealt.as_slice();
    for t in 0..n_threads {
        let (chunk, tail) =
            rest.split_at(n_shards / n_threads + usize::from(t < n_shards % n_threads));
        rest = tail;
        let mut segments: Vec<Segment> = Vec::new();
        for shards in chunk.chunk_by(|&a, &b| group_of[a] == group_of[b]) {
            let group = group_of[shards[0]] as usize;
            group_threads[group].push(t);
            segments.push(Segment {
                group,
                step_order: order.permutation(shards.len()),
                shards: shards.to_vec(),
            });
        }
        plans.push(segments);
    }
    let barriers: Vec<OccasionBarrier> = group_threads
        .iter()
        .map(|t| OccasionBarrier::new(t.len()))
        .collect();
    let drain_orders: Vec<Vec<usize>> = groups.iter().map(|g| order.permutation(g.len())).collect();
    let barrier_wait_ns = AtomicU64::new(0);
    let shard_run_ns = AtomicU64::new(0);
    // A worker that panics raises `abort` and breaks every barrier, so
    // the others leave at their next wait; the first panic is re-raised
    // once the scope has joined them all.
    let abort = AtomicBool::new(false);
    let first_panic: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);

    std::thread::scope(|scope| {
        for (t, plan) in plans.iter().enumerate() {
            let (sims, stages, groups, barriers) = (&sims, &stages, &groups, &barriers);
            let (group_threads, drain_orders) = (&group_threads, &drain_orders);
            let (barrier_wait_ns, shard_run_ns) = (&barrier_wait_ns, &shard_run_ns);
            let (abort, first_panic) = (&abort, &first_panic);
            scope.spawn(move || {
                let worker = || {
                    for k in 1..=n_epochs {
                        let horizon = (SimTime::ZERO + epoch * k).min(deadline);
                        let mut wait_ns = 0u64;
                        for seg in plan {
                            let t_step = Instant::now();
                            for &j in &seg.step_order {
                                #[cfg(test)]
                                if cfg.base.seed == INJECTED_PANIC_SEED
                                    && seg.shards[j] == 1
                                    && k == 3
                                {
                                    panic!("injected shard panic");
                                }
                                sims[seg.shards[j]]
                                    .lock()
                                    .expect(POISONED)
                                    .run_until(horizon);
                            }
                            shard_run_ns
                                .fetch_add(t_step.elapsed().as_nanos() as u64, Ordering::Relaxed);
                            // Time the two waits separately so the resolver's
                            // own merge work never counts as "barrier waiting"
                            // — the overhead figure must separate idling from
                            // work.
                            let barrier = &barriers[seg.group];
                            let entry = Instant::now();
                            if !barrier.wait(abort) {
                                return;
                            }
                            wait_ns += entry.elapsed().as_nanos() as u64;
                            if group_threads[seg.group][0] == t {
                                // Between the waits no thread touches this
                                // group's shards, so the resolver drains and
                                // answers them directly.
                                let members = &groups[seg.group];
                                let mut stage = stages[seg.group].lock().expect(POISONED);
                                for &m in &drain_orders[seg.group] {
                                    stage.ingest(sims[members[m]].lock().expect(POISONED).outbox());
                                }
                                stage.resolve_up_to(horizon, |shard, reply| {
                                    sims[shard as usize].lock().expect(POISONED).deliver(&reply);
                                });
                            }
                            let fanback = Instant::now();
                            if !barrier.wait(abort) {
                                return;
                            }
                            wait_ns += fanback.elapsed().as_nanos() as u64;
                        }
                        barrier_wait_ns.fetch_add(wait_ns, Ordering::Relaxed);
                    }
                };
                if let Err(payload) = catch_unwind(AssertUnwindSafe(worker)) {
                    abort.store(true, Ordering::Release);
                    for b in barriers {
                        b.break_waiters();
                    }
                    first_panic
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .get_or_insert(payload);
                }
            });
        }
    });
    if let Some(payload) = first_panic
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
    {
        resume_unwind(payload);
    }

    let stages: Vec<SharedRachStage> = stages
        .into_iter()
        .map(|m| m.into_inner().unwrap())
        .collect();
    // Every attempt arrives by the deadline, the last horizon: each was
    // resolved, exactly once.
    for st in &stages {
        st.assert_drained();
    }
    let t_merge = Instant::now();
    let mut out = FleetOutcome::merge(
        cfg.base.seed,
        cfg.base.duration,
        sims.into_iter()
            .map(|m| m.into_inner().unwrap())
            .map(ShardSim::finish),
    );
    // Per-cell responder stats combine trivially: contention groups have
    // disjoint touch sets, so at most one stage's responder for a given
    // cell ever heard anything. `touch` drives an explicit ownership map
    // rather than sniffing for non-default stats.
    let per_stage: Vec<Vec<ResponderStats>> = stages.iter().map(|s| s.responder_stats()).collect();
    let mut per_cell = vec![ResponderStats::default(); n_cells];
    for (s, cells) in touch.iter().enumerate() {
        for &c in cells {
            per_cell[c] = per_stage[group_of[s] as usize][c];
        }
    }
    out.apply_shared_responders(per_cell);
    merge_stage_timeline(&mut out, &stages);
    let mut counters = StageCounters::default();
    for st in &stages {
        let c = st.counters();
        counters.resolved_preambles += c.resolved_preambles;
        counters.resolved_msg3 += c.resolved_msg3;
        counters.busy_barriers += c.busy_barriers;
    }
    out.stage = Some(StageReport {
        epochs: n_epochs,
        barrier_wait_s: barrier_wait_ns.load(Ordering::Relaxed) as f64 * 1e-9,
        counters,
    });
    // The stage counters are functions of the canonical attempt stream,
    // so they belong with the deterministic profiler counters.
    let c = &mut out.totals.profile.counters;
    c.add("stage.resolved_preambles", counters.resolved_preambles);
    c.add("stage.resolved_msg3", counters.resolved_msg3);
    c.add("stage.busy_barriers", counters.busy_barriers);
    c.add("stage.groups", n_groups as u64);
    let p = &mut out.totals.profile;
    p.record_span_nanos(
        "shard.run",
        u128::from(shard_run_ns.load(Ordering::Relaxed)),
        n_shards as u64,
    );
    // One call per thread per epoch, however many groups the thread
    // visits: the call count divided by the epochs is the thread count.
    p.record_span_nanos(
        "stage.barrier_wait",
        u128::from(barrier_wait_ns.load(Ordering::Relaxed)),
        n_epochs * n_threads as u64,
    );
    p.record_span_nanos("fleet.merge", t_merge.elapsed().as_nanos(), 1);
    out
}

/// Fold the stages' per-interval slices into the merged shard timeline
/// as a pseudo-shard: a ring with the same shape (same base interval,
/// capacity and push count compacts identically), whose slices carry
/// only the responder-side fields the shards leave at zero. Group stages
/// attribute disjoint cells, so their counters and gauges sum without
/// double counting.
fn merge_stage_timeline(out: &mut FleetOutcome, stages: &[SharedRachStage]) {
    let Some(mut ring) = out.totals.timeline.take() else {
        return;
    };
    let mut sr = SnapshotRing::new(ring.base_interval(), ring.cap());
    for k in 0..ring.pushed() as usize {
        let mut sl = SnapshotSlice::new();
        for d in stages.iter().filter_map(|st| st.slices().get(k)) {
            sl.preambles_heard += d.preambles_heard;
            sl.collisions += d.collisions;
            sl.contention_losses += d.contention_losses;
            sl.backhaul_wait_us += d.backhaul_wait_us;
            sl.backhaul_backlog_us += d.backhaul_backlog_us;
        }
        sr.push(sl);
    }
    sr.finish();
    if ring.compatible(&sr) {
        ring.merge(&sr);
        out.totals.timeline = Some(ring);
    }
    // Incompatible shapes (only possible if a shard was cut short by the
    // event-budget guard) drop the timeline rather than report it wrong.
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deployment::{Deployment, MobilityKind};
    use crate::sim::build_mobility;
    use st_des::RngStreams;
    use st_net::ProtocolKind;

    fn tiny(seed: u64, shards: usize) -> FleetConfig {
        Deployment::new()
            .street(200.0, 30.0)
            .cell_row(2, 80.0)
            .tx_beams(8)
            .population(4, MobilityKind::Walk, ProtocolKind::SilentTracker)
            .population(2, MobilityKind::Vehicular, ProtocolKind::Reactive)
            .duration_secs(0.8)
            .seed(seed)
            .shards(shards)
            .build()
            .unwrap()
    }

    /// A panic in one worker's shard step fails the whole run: its
    /// partner at the occasion barrier is released instead of waiting
    /// forever, and the original panic reaches the caller. The fleet runs
    /// on its own thread so that a regression times out here rather than
    /// hanging the test binary.
    #[test]
    fn a_panicking_shard_fails_the_run_instead_of_hanging_its_partner() {
        // Two shards, one contention group, one thread each.
        let cfg = tiny(INJECTED_PANIC_SEED, 2);
        let (tx, rx) = std::sync::mpsc::channel();
        let fleet = std::thread::spawn(move || {
            let outcome = catch_unwind(AssertUnwindSafe(|| run_fleet_with_workers(&cfg, 2)));
            let message = outcome.err().map(|e| {
                e.downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| e.downcast_ref::<String>().cloned())
                    .unwrap_or_default()
            });
            tx.send(message).expect("the test is waiting");
        });
        let panic = rx
            .recv_timeout(std::time::Duration::from_secs(120))
            .expect("the fleet hung after a worker panicked");
        fleet.join().expect("the runner's panic was caught");
        assert_eq!(panic.as_deref(), Some("injected shard panic"));
    }

    #[test]
    fn worker_count_does_not_change_the_aggregate() {
        let cfg = tiny(3, 2);
        let a = run_fleet_with_workers(&cfg, 1);
        let b = run_fleet_with_workers(&cfg, 2);
        assert_eq!(a.summary(), b.summary());
        assert_eq!(a.totals.ues, 6);
        assert!(a.totals.events > 0);
    }

    #[test]
    fn same_seed_same_summary_different_seed_differs() {
        let cfg = tiny(3, 2);
        let a = run_fleet(&cfg);
        let b = run_fleet(&cfg);
        assert_eq!(a.summary(), b.summary());
        let c = run_fleet(&tiny(4, 2));
        assert_ne!(a.summary(), c.summary());
    }

    /// A deliberately contended deployment: few preambles, a tight
    /// spawn funnel across the street's centre line, enough UEs that
    /// occasions merge attempts from several shards. Eight cells at
    /// 25 m pitch give every shard count up to 8 a tile, and the funnel
    /// straddles the centre tile boundary at 2, 4 and 8 shards alike.
    fn contended_exact(seed: u64, shards: usize) -> FleetConfig {
        Deployment::new()
            .street(200.0, 30.0)
            .cell_row(8, 25.0)
            .tx_beams(8)
            .prach_preambles(2)
            .spawn_region((-6.0, 6.0), (-3.0, 3.0))
            .population(18, MobilityKind::Walk, ProtocolKind::SilentTracker)
            .population(6, MobilityKind::Vehicular, ProtocolKind::Reactive)
            .duration_secs(0.8)
            .seed(seed)
            .shards(shards)
            .build()
            .unwrap()
    }

    /// The tentpole contract: the aggregate is byte-identical across
    /// *shard* counts, not just worker counts — sharding is pure
    /// parallelism, not an approximation.
    #[test]
    fn exact_contention_is_shard_and_worker_invariant() {
        let exact1 = run_fleet_with_workers(&contended_exact(11, 1), 1);
        let exact4_w2 = run_fleet_with_workers(&contended_exact(11, 4), 2);
        let exact4_w4 = run_fleet_with_workers(&contended_exact(11, 4), 4);
        let exact8_w3 = run_fleet_with_workers(&contended_exact(11, 8), 3);
        assert_eq!(exact1.summary(), exact4_w2.summary());
        assert_eq!(exact1.summary(), exact4_w4.summary());
        assert_eq!(exact1.summary(), exact8_w3.summary());
        // The run exercised the shared stage for real, with UEs of
        // several shards contending.
        assert!(exact1.totals.handovers > 0, "{}", exact1.summary());
        let stage = exact4_w2.stage.expect("stage report");
        assert!(stage.counters.resolved_preambles > 0);
        let populated = contended_exact(11, 4)
            .shard_partition()
            .iter()
            .filter(|p| !p.is_empty())
            .count();
        assert!(populated >= 2, "the funnel must straddle a tile boundary");
    }

    /// Adversarial shard-step and outbox-drain orders must vanish under
    /// the canonical resolution sort.
    #[test]
    fn exact_contention_ignores_adversarial_interleaving() {
        let base = run_fleet_exact_with_order(&contended_exact(11, 4), 2, StageOrder::Forward);
        let rev = run_fleet_exact_with_order(&contended_exact(11, 4), 2, StageOrder::Reversed);
        let rot = run_fleet_exact_with_order(&contended_exact(11, 4), 4, StageOrder::Rotated(3));
        assert_eq!(base.summary(), rev.summary());
        assert_eq!(base.summary(), rot.summary());
    }

    /// Exact mode must reuse the same per-UE processes: a different seed
    /// still changes the outcome.
    #[test]
    fn exact_contention_seeds_reach_the_stochastic_components() {
        let a = run_fleet_with_workers(&contended_exact(11, 2), 2);
        let b = run_fleet_with_workers(&contended_exact(12, 2), 2);
        assert_ne!(a.summary(), b.summary());
    }

    /// UEs never migrate: one that walks or drives out of its spawn tile
    /// stays on its spawn shard, whose reachable-cell set covers its
    /// whole run. Vehicles spawned within a few metres of the tile
    /// boundary cross it mid-run, and the 2-tile run must still match
    /// the 1-tile run byte for byte.
    #[test]
    fn boundary_crossing_ues_match_the_single_shard_run() {
        let straddling = |shards: usize| {
            Deployment::new()
                .street(200.0, 30.0)
                .cell_row(2, 80.0)
                .tx_beams(8)
                .prach_preambles(2)
                .spawn_region((-4.0, 4.0), (-3.0, 3.0))
                .population(12, MobilityKind::Walk, ProtocolKind::SilentTracker)
                .population(12, MobilityKind::Vehicular, ProtocolKind::SilentTracker)
                .population(6, MobilityKind::Vehicular, ProtocolKind::Reactive)
                .interest_radius(60.0)
                .duration_secs(0.8)
                .seed(11)
                .shards(shards)
                .build()
                .unwrap()
        };
        let two = straddling(2);
        // The tile boundary sits at x = 0 between the cells at ±40 m:
        // both tiles are populated and some UEs cross from one to the
        // other during the run.
        assert_eq!(two.tiles().boundaries, vec![0.0]);
        assert!(two.shard_partition().iter().all(|p| !p.is_empty()));
        let streams = RngStreams::new(two.base.seed);
        let crossers = two
            .ue_specs()
            .iter()
            .filter(|u| {
                let mut rng = streams.stream_indexed("fleet-spawn", u.id);
                let (mobility, spawn) = build_mobility(u, &mut rng, &two);
                let end = mobility.pose_at(two.base.duration.as_secs_f64()).position;
                (spawn.x <= 0.0) != (end.x <= 0.0)
            })
            .count();
        assert!(crossers > 0, "no UE crossed the tile boundary");

        let one = run_fleet_with_workers(&straddling(1), 1);
        assert!(one.totals.handovers > 0, "{}", one.summary());
        for workers in [1, 2] {
            let out = run_fleet_with_workers(&two, workers);
            assert_eq!(one.summary(), out.summary());
            assert_eq!(one.causes_json(), out.causes_json());
        }
    }

    /// `workers` caps the thread count even when there are more
    /// contention groups than workers: the barrier span records one call
    /// per thread per epoch, so one worker shows exactly `epochs` calls —
    /// and the aggregate still matches two workers and one shard.
    #[test]
    fn one_worker_steps_every_contention_group_on_one_thread() {
        // Two 2-cell blocks 140 m apart: with a 40 m interest radius the
        // blocks' reachable-cell sets are disjoint, so two shards form two
        // contention groups. The gap-facing cells share a street side, so
        // no UE is first served across the tile boundary at x = 0.
        let gapped = |shards: usize| {
            Deployment::new()
                .street(400.0, 30.0)
                .cell_at(-130.0, -10.0)
                .cell_at(-70.0, 10.0)
                .cell_at(70.0, 10.0)
                .cell_at(130.0, -10.0)
                .tx_beams(8)
                .prach_preambles(2)
                .spawn_region((-150.0, 150.0), (-3.0, 3.0))
                .population(32, MobilityKind::Walk, ProtocolKind::SilentTracker)
                .population(16, MobilityKind::Vehicular, ProtocolKind::SilentTracker)
                .interest_radius(40.0)
                .duration_secs(1.0)
                .seed(5)
                .shards(shards)
                .build()
                .unwrap()
        };
        let cfg = gapped(2);
        let w1 = run_fleet_with_workers(&cfg, 1);
        assert_eq!(w1.profile().counters.get("stage.groups"), 2);
        let epochs = w1.stage.expect("stage report").epochs;
        let calls = w1
            .profile()
            .span("stage.barrier_wait")
            .expect("barrier span")
            .calls;
        assert_eq!(calls, epochs, "one worker must mean one thread");
        let w2 = run_fleet_with_workers(&cfg, 2);
        let w2_calls = w2
            .profile()
            .span("stage.barrier_wait")
            .expect("barrier span")
            .calls;
        assert_eq!(w2_calls, 2 * epochs);
        let one_shard = run_fleet_with_workers(&gapped(1), 1);
        assert_eq!(w1.summary(), w2.summary());
        assert_eq!(w1.summary(), one_shard.summary());
        assert!(w1.totals.handovers > 0, "{}", w1.summary());
    }
}
