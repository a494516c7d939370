//! The acceptance criterion of the zero-allocation refactor, asserted
//! directly: once warmed up, the sweep hot path — advance channels,
//! snapshot the link's `PathSet`, evaluate a full transmit codebook, plus
//! single-beam probes against the same snapshot — performs **zero** heap
//! allocations per measurement instant.
//!
//! A counting global allocator (this test binary only) measures exactly
//! that. Before the refactor every probe re-ran `Environment::trace` and
//! collected a fresh `Vec<PathSample>` — two allocations per probe, tens
//! of millions per fleet run. The same counter covers the shared RACH
//! stage and the UE driver's whole measurement path, observer hooks
//! included.
//!
//! The one place the workspace's `unsafe_code = "deny"` is relaxed: a
//! `GlobalAlloc` impl is unsafe by definition, and it only forwards to
//! `System` around a thread-local counter.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// Only allocations made by the measuring thread, between `arm` and
    /// `disarm`, are counted — the libtest harness's own threads allocate
    /// at unpredictable times and must not pollute the measurement, and
    /// the zero-allocation tests run on different harness threads
    /// concurrently, so the counter itself is thread-local too.
    /// Const-initialized so reading it never allocates.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.with(Cell::get) {
            ALLOCS.with(|c| c.set(c.get() + 1));
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.with(Cell::get) {
            ALLOCS.with(|c| c.set(c.get() + 1));
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static A: Counting = Counting;

use std::sync::Arc;

use silent_tracker_repro::silent_tracker::Action;
use silent_tracker_repro::st_des::{Control, Executive, RngStreams, SimDuration, SimTime};
use silent_tracker_repro::st_env::{BlockerPopulation, DynamicEnvironment};
use silent_tracker_repro::st_mac::pdu::UeId;
use silent_tracker_repro::st_mac::responder::ResponderConfig;
use silent_tracker_repro::st_mobility::{DeviceRotation, HumanWalk, Stationary};
use silent_tracker_repro::st_net::config::{CellConfig, ProtocolKind, ScenarioConfig};
use silent_tracker_repro::st_net::driver::{Driver, Ev, Observer, UeSetup};
use silent_tracker_repro::st_net::radio::{build_world, LinkSet, Sites};
use silent_tracker_repro::st_net::stage::{RachAttemptMsg, RachReply, RachReq, SharedRachStage};
use silent_tracker_repro::st_net::Proto;
use silent_tracker_repro::st_phy::channel::{ChannelConfig, Environment};
use silent_tracker_repro::st_phy::codebook::{BeamId, BeamwidthClass, Codebook};
use silent_tracker_repro::st_phy::geometry::{Pose, Radians, Vec2};
use silent_tracker_repro::st_phy::link::RadioConfig;
use silent_tracker_repro::st_phy::units::{Carrier, Dbm};

#[test]
fn steady_state_sweep_path_allocates_nothing() {
    let sites = Sites::new(
        vec![CellConfig::at(-40.0, 10.0), CellConfig::at(40.0, 10.0)],
        Environment::street_canyon(200.0, 30.0),
        RadioConfig::ni_60ghz_testbed(),
        ChannelConfig::outdoor_60ghz(),
    );
    let streams = RngStreams::new(3);
    let mut links = LinkSet::single_ue(&streams, sites.channel, sites.len());
    let ue_codebook = Codebook::for_class(BeamwidthClass::Narrow);
    let n_beams = sites.codebooks[0].len();
    let mut out = vec![Dbm(0.0); n_beams];

    let instant = |k: u64| SimTime::ZERO + SimDuration::from_millis(5 * (k + 1));
    let pose_at = |k: u64| {
        Pose::new(
            Vec2::new(-30.0 + 0.01 * k as f64, 0.5),
            Radians(0.001 * k as f64),
        )
    };
    // One full measurement instant: sweep every tx beam of both cells on
    // the gap beam (each link advancing to the instant on its first
    // sample), then probe two single beams against the serving snapshot
    // (the serving-probe pattern).
    let mut measure = |links: &mut LinkSet, k: u64| {
        let (now, pose) = (instant(k), pose_at(k));
        for cell in 0..sites.len() {
            assert!(links.rss_tx_sweep(&sites, cell, now, pose, &ue_codebook, BeamId(4), &mut out));
        }
        for b in [BeamId(3), BeamId(5)] {
            links.rss(&sites, 0, 2, now, pose, &ue_codebook, b);
        }
    };

    // Warm-up: scratch buffers (rays, samples) grow to their steady size.
    for k in 0..16 {
        measure(&mut links, k);
    }

    ARMED.with(|f| f.set(true));
    for k in 16..1016 {
        measure(&mut links, k);
    }
    ARMED.with(|f| f.set(false));
    let delta = ALLOCS.with(Cell::get);
    assert_eq!(
        delta, 0,
        "sweep hot path allocated {delta} times over 1000 instants"
    );
}

/// The same guarantee with a dynamic environment attached: tracing the
/// snapshot *and* running the blocker occlusion pass over it (60 moving
/// blockers, time-indexed cull, knife-edge losses folded per ray)
/// allocates nothing once the candidate scratch has warmed up.
#[test]
fn occluded_sweep_path_allocates_nothing() {
    let walls = Environment::street_canyon(200.0, 30.0);
    let blockers = BlockerPopulation::new(5)
        .crowd(52)
        .vehicles(6)
        .buses(2)
        .materialize(200.0, 30.0);
    // Horizon shorter than the sweep (the measurement loop runs past
    // 5 s) so both the indexed and the exhaustive-fallback query paths
    // are exercised under the allocation counter.
    let dynamics = Arc::new(DynamicEnvironment::new(
        walls.clone(),
        blockers,
        Carrier::MM_WAVE_60GHZ,
        3.0,
    ));
    let sites = Sites::new(
        vec![CellConfig::at(-40.0, 10.0), CellConfig::at(40.0, 10.0)],
        walls,
        RadioConfig::ni_60ghz_testbed(),
        ChannelConfig::outdoor_60ghz(),
    )
    .with_dynamics(dynamics);
    let streams = RngStreams::new(3);
    let mut links = LinkSet::single_ue(&streams, sites.channel, sites.len());
    let ue_codebook = Codebook::for_class(BeamwidthClass::Narrow);
    let n_beams = sites.codebooks[0].len();
    let mut out = vec![Dbm(0.0); n_beams];

    let instant = |k: u64| SimTime::ZERO + SimDuration::from_millis(5 * (k + 1));
    let pose_at = |k: u64| {
        Pose::new(
            Vec2::new(-30.0 + 0.01 * k as f64, 0.5),
            Radians(0.001 * k as f64),
        )
    };
    // The trial's pattern: every link advanced to the instant first.
    let mut measure = |links: &mut LinkSet, k: u64| {
        let (now, pose) = (instant(k), pose_at(k));
        links.step_to(now);
        for cell in 0..sites.len() {
            assert!(links.rss_tx_sweep(&sites, cell, now, pose, &ue_codebook, BeamId(4), &mut out));
        }
        for b in [BeamId(3), BeamId(5)] {
            links.rss(&sites, 0, 2, now, pose, &ue_codebook, b);
        }
    };

    // Warm-up: ray/sample scratch plus the occlusion candidate buffer
    // (pre-sized to the blocker count on first use) reach steady state.
    for k in 0..16 {
        measure(&mut links, k);
    }

    ARMED.with(|f| f.set(true));
    for k in 16..1016 {
        measure(&mut links, k);
    }
    ARMED.with(|f| f.set(false));
    let delta = ALLOCS.with(Cell::get);
    assert_eq!(
        delta, 0,
        "occluded sweep hot path allocated {delta} times over 1000 instants"
    );
}

/// The shared cross-shard RACH stage: ingesting outboxes, sorting the
/// holding buffer canonically, resolving merged occasions (with
/// collisions, admission rejections and soft-handover backhaul fetches),
/// routing replies and attributing the timeline's slice counters and
/// backlog gauge must allocate **nothing** once the pre-sized holding
/// buffer is warm — the stage adds barriers, not per-occasion `Vec`
/// churn.
#[test]
fn shared_rach_stage_steady_state_allocates_nothing() {
    let epoch_ns = 2_000_000u64;
    let mut stage = SharedRachStage::new(4, ResponderConfig::nr_default(), 64);
    stage.arm_slices(
        SimDuration::from_millis(20),
        SimTime::from_nanos(1032 * epoch_ns),
    );
    let mut mailbox: Vec<RachAttemptMsg> = Vec::with_capacity(256);
    let mut replies: Vec<RachReply> = Vec::with_capacity(256);

    let run_epoch = |stage: &mut SharedRachStage,
                     mailbox: &mut Vec<RachAttemptMsg>,
                     replies: &mut Vec<RachReply>,
                     k: u64| {
        // One merged PRACH occasion per epoch: 40 UEs from 8 notional
        // shards over 4 cells and a tiny preamble pool, so every epoch
        // resolves real cross-shard collisions plus a few soft-handover
        // Msg3s through the backhaul.
        let occasion = SimTime::from_nanos(k * epoch_ns + 500_000);
        for ue in 0..40u64 {
            mailbox.push(RachAttemptMsg {
                at: occasion,
                ue_global: ue,
                shard: (ue % 8) as u32,
                cell: (ue % 4) as u16,
                req: RachReq::Preamble {
                    preamble: (ue % 3) as u8,
                    ssb_beam: (ue % 2) as u16,
                    distance_m: 80.0 + ue as f64,
                },
            });
        }
        for ue in 0..4u64 {
            mailbox.push(RachAttemptMsg {
                at: occasion + SimDuration::from_micros(100),
                ue_global: 100 + ue,
                shard: (ue % 8) as u32,
                cell: (ue % 4) as u16,
                req: RachReq::Msg3 {
                    temp: None,
                    ue: UeId(100 + ue as u32),
                    context_token: 0xAB00 + ue,
                    reply_tx_beam: 1,
                },
            });
        }
        stage.ingest(mailbox);
        replies.clear();
        stage.resolve_up_to(SimTime::from_nanos((k + 1) * epoch_ns), |_, r| {
            replies.push(r)
        });
        assert!(!replies.is_empty());
    };

    // Warm-up: holding buffer, reply sink and the responders' pending
    // tables (bounded by `max_pending` + TTL expiry) reach steady size.
    for k in 0..32 {
        run_epoch(&mut stage, &mut mailbox, &mut replies, k);
    }

    ARMED.with(|f| f.set(true));
    for k in 32..1032 {
        run_epoch(&mut stage, &mut mailbox, &mut replies, k);
    }
    ARMED.with(|f| f.set(false));
    let delta = ALLOCS.with(Cell::get);
    assert_eq!(
        delta, 0,
        "shared RACH stage allocated {delta} times over 1000 merged occasions"
    );
}

/// The shared UE driver's measurement path — SSB bursts with batched
/// neighbor sweeps, serving measurements, dwell ends and timer ticks,
/// each folded through the protocol's reused action buffer and reported
/// through the observer hooks the fleet's hot path calls — allocates
/// nothing once warm. Three reactive UEs (walking, spinning, parked)
/// hold their serving link while the driver sweeps the neighbor cell in
/// every gap. (The Silent Tracker fold appends to its transition audit
/// log, which grows by design, so it stays out of this measurement.)
#[test]
fn driver_measurement_path_allocates_nothing() {
    /// Counter-only hooks, as the fleet's ledger keeps them.
    #[derive(Default)]
    struct Tally {
        serving: u64,
        bursts: u64,
        actions: u64,
    }
    impl Observer for Tally {
        fn on_serving_rss(&mut self, _i: usize, _now: SimTime, _rss: Dbm, _proto: &Proto) {
            self.serving += 1;
        }
        fn on_burst_done(&mut self, _i: usize, _now: SimTime, _pose: Pose, _proto: &Proto) {
            self.bursts += 1;
        }
        fn on_action(&mut self, _i: usize, _now: SimTime, _action: &Action, _proto: &Proto) {
            self.actions += 1;
        }
    }

    let cfg = ScenarioConfig::two_cell_edge();
    let streams = RngStreams::new(3);
    let (sites, ue_codebook) = build_world(&cfg);
    let n_cells = sites.len();
    let mut driver = Driver::new(cfg.clone(), sites, ue_codebook, None, 0, Tally::default());
    let walker = HumanWalk::paper_walk(Vec2::new(-30.0, 0.5), Radians(0.0));
    let spinner = DeviceRotation::paper_rotation(Vec2::new(-35.0, 2.0), Radians(0.3));
    let parked = Stationary::at(Vec2::new(-35.0, 2.0), Radians(std::f64::consts::FRAC_PI_2));
    for (id, protocol, mobility) in [
        (0, ProtocolKind::Reactive, Box::new(walker) as _),
        (1, ProtocolKind::Reactive, Box::new(spinner) as _),
        (2, ProtocolKind::Reactive, Box::new(parked) as _),
    ] {
        driver.add_ue(UeSetup {
            id,
            protocol,
            mobility,
            serving: 0,
            rach_rng: streams.stream_indexed("rach", id),
            fault_rng: streams.stream_indexed("fault", id),
            links: LinkSet::for_ue(&streams, cfg.channel, n_cells, id),
            record: false,
        });
    }
    let mut ex: Executive<Ev> = Executive::new();
    driver.start(&mut ex);
    fn run_to(ex: &mut Executive<Ev>, driver: &mut Driver<Tally>, ms: u64) {
        ex.run(
            SimTime::ZERO + SimDuration::from_millis(ms),
            |ex, now, ev| {
                driver.dispatch(ex, now, ev);
                Control::Continue
            },
        );
    }

    // Warm-up: sweep scratch, path snapshots, the action buffers and the
    // event heap reach steady size, and the protocols' per-beam probe
    // tables (which grow once per newly probed receive beam) fill up.
    run_to(&mut ex, &mut driver, 6000);
    let before = (driver.obs.serving, driver.obs.bursts, driver.obs.actions);
    ARMED.with(|f| f.set(true));
    run_to(&mut ex, &mut driver, 10_000);
    ARMED.with(|f| f.set(false));
    let delta = ALLOCS.with(Cell::get);
    assert!(driver.outbox().is_empty(), "no RACH attempt in the window");
    let after = (driver.obs.serving, driver.obs.bursts, driver.obs.actions);
    assert!(after.0 > before.0 && after.1 > before.1 && after.2 > before.2);
    assert_eq!(
        delta, 0,
        "driver measurement path allocated {delta} times over 4 s"
    );
}
