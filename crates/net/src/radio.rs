//! Radio plumbing of the UE driver: the static cell sites (poses +
//! transmit codebooks) and one mobile's set of stochastic links to every
//! cell.
//!
//! The driver ([`crate::driver`]) keeps one [`LinkSet`] per UE, all
//! sharing one [`Sites`] — a single trial has exactly one, a fleet shard
//! one per UE. RNG streams are derived per link, so adding UEs never
//! perturbs the channel draws of existing ones.

use std::sync::Arc;

use rand::rngs::StdRng;

use st_des::{RngStreams, SimTime};
use st_env::{DynamicEnvironment, OcclusionScratch};
use st_mac::timing::{SsbConfig, TxBeamIndex};
use st_phy::channel::{ChannelConfig, Environment, PathSet};
use st_phy::codebook::{BeamId, Codebook};
use st_phy::geometry::{Pose, Vec2};
use st_phy::link::{rss, rss_sweep_tx, RadioConfig};
use st_phy::units::Dbm;
use st_phy::LinkChannel;

use crate::config::{CellConfig, ScenarioConfig};

/// The static side of a deployment: every base station's pose, transmit
/// codebook and SSB sweep, plus the propagation environment and the radio
/// front-end parameters shared by all links.
#[derive(Debug, Clone)]
pub struct Sites {
    pub cells: Vec<CellConfig>,
    pub codebooks: Vec<Codebook>,
    pub environment: Environment,
    /// Moving geometric blockers occluding rays after each trace; `None`
    /// keeps the static world (every pre-existing scenario's behaviour).
    pub dynamics: Option<Arc<DynamicEnvironment>>,
    pub radio: RadioConfig,
    pub channel: ChannelConfig,
}

impl Sites {
    pub fn new(
        cells: Vec<CellConfig>,
        environment: Environment,
        radio: RadioConfig,
        channel: ChannelConfig,
    ) -> Sites {
        let codebooks = cells
            .iter()
            .map(|c| Codebook::uniform_sectored(c.n_tx_beams as usize, st_phy::Degrees(30.0)))
            .collect();
        Sites {
            cells,
            codebooks,
            environment,
            dynamics: None,
            radio,
            channel,
        }
    }

    /// Attach a dynamic environment. Its static walls become *the* walls
    /// (single source of truth), so a `Sites` can never trace against a
    /// different geometry than its blockers were built for.
    pub fn with_dynamics(mut self, dynamics: Arc<DynamicEnvironment>) -> Sites {
        self.environment = dynamics.statics().clone();
        self.dynamics = Some(dynamics);
        self
    }

    pub fn len(&self) -> usize {
        self.cells.len()
    }

    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    pub fn pose(&self, cell: usize) -> Pose {
        Pose::new(self.cells[cell].position, self.cells[cell].heading)
    }

    /// SSB sweep configuration of cell `idx`.
    pub fn ssb(&self, idx: usize) -> SsbConfig {
        SsbConfig::nr_fr2(self.cells[idx].n_tx_beams)
    }

    /// The transmit beam whose boresight best covers the given UE position
    /// (what the BS converges to after re-training towards that UE).
    pub fn best_tx_beam_towards(&self, cell: usize, ue_position: st_phy::Vec2) -> TxBeamIndex {
        self.codebooks[cell]
            .best_beam_towards(self.pose(cell).local_bearing_to(ue_position))
            .0
    }
}

/// Build the shared static side of a deployment: one [`Sites`] (with the
/// dynamic environment attached, if any) and the UE codebook, behind
/// `Arc`s so every UE's protocol and every fleet shard share them.
pub fn build_world(cfg: &ScenarioConfig) -> (Arc<Sites>, Arc<Codebook>) {
    let mut sites = Sites::new(
        cfg.cells.clone(),
        cfg.environment.clone(),
        cfg.radio,
        cfg.channel,
    );
    if let Some(dynamics) = &cfg.dynamics {
        // One blocker field shared by every link: the same bus shadows
        // every link it crosses.
        sites = sites.with_dynamics(Arc::clone(dynamics));
    }
    let ue_codebook = cfg
        .custom_ue_codebook
        .clone()
        .unwrap_or_else(|| Codebook::for_class(cfg.ue_codebook));
    (Arc::new(sites), Arc::new(ue_codebook))
}

/// One mobile's stochastic links: a [`LinkChannel`] plus its dedicated
/// RNG stream per (this UE, cell) pair.
///
/// Links are stored in per-cell *slots* created the first time a cell
/// enters the UE's interest set or is sampled. Each link draws only from
/// its own stream, and a fresh stream is a pure function of the master
/// seed, so creating, skipping or resuming one link never perturbs the
/// channel draws of any other.
///
/// Sampling a link ([`LinkSet::rss`], [`LinkSet::rss_tx_sweep`]) first
/// advances that link alone, in one step from its own last step to the
/// sample instant. This is the fleet's only stepping path: a link nobody
/// reads is never stepped. It is exact in law. Shadowing and the per-ray
/// fading I/Q are Ornstein–Uhlenbeck processes stepped with the exact
/// discretization, so one step of dt₁ + dt₂ has the law of two; blockage
/// consumes exponential holding times, so it is exact over any dt; and a
/// link's state is only ever read when it is traced. The single trial
/// instead advances every link at every event ([`LinkSet::step_to`]), so
/// its samples find their link already stepped and its realization is
/// the one its seeded figures were drawn from.
///
/// The **interest set** ([`LinkSet::set_interest`]) chooses which cells
/// the fleet's gap sweep measures, restricting a fleet UE to cells within
/// radio range; it never steps a link.
///
/// Each slot keeps a [`PathSet`] snapshot tagged with the (instant, UE
/// position) it was traced at. Every RSS evaluation at the same instant —
/// all beams of an SSB sweep, the serving probe fan, a PDU delivery
/// sample — reuses the snapshot, so one measurement instant costs one
/// trace per touched link and zero heap allocation in steady state.
/// Snapshot reuse is RNG-neutral by construction: within one instant the
/// geometry is fixed, so a re-trace would create no new fading processes
/// and consume no draws (see [`LinkChannel::trace_into`]).
#[derive(Debug)]
pub struct LinkSet {
    config: ChannelConfig,
    streams: RngStreams,
    seeding: LinkSeeding,
    n_cells: usize,
    /// Per-cell link state, sorted by cell id; slots persist once
    /// created (struct-of-arrays friendly: one contiguous scratch run
    /// per UE, only as long as the cells this UE ever heard).
    slots: Vec<LinkSlot>,
    /// The interest set: sorted cell ids swept by the fleet's
    /// measurement pass and advanced by [`Self::step_to`].
    active: Vec<u16>,
    /// Occlusion candidate scratch for the dynamic-environment pass,
    /// reused every snapshot (sized once to the blocker count).
    occl: OcclusionScratch,
    /// Profiler counters, see [`LinkStats`].
    stats: LinkStats,
}

/// Which RNG-stream labelling scheme seeds a lazily created link.
#[derive(Debug, Clone, Copy)]
enum LinkSeeding {
    /// `"channel"` × cell index — the single trial's labels.
    SingleUe,
    /// `"fleet-channel"` × `(ue << 20) | cell` — fleet labels, disjoint
    /// per UE.
    Fleet { ue: u64 },
}

#[derive(Debug)]
struct LinkSlot {
    cell: u16,
    channel: LinkChannel,
    rng: StdRng,
    /// The instant this link's processes were last advanced to.
    last_step: SimTime,
    /// Path snapshot (scratch buffer, reused forever) and the
    /// (instant, UE position) it was traced at.
    snap: PathSet,
    snap_key: Option<(SimTime, Vec2)>,
}

impl LinkSlot {
    /// Advance this link's processes from its last step to `now` in one
    /// step; returns whether a step was taken.
    fn advance(&mut self, now: SimTime) -> bool {
        debug_assert!(now >= self.last_step, "a link is sampled forward in time");
        let dt = now.since(self.last_step).as_secs_f64();
        if dt > 0.0 {
            self.channel.step(&mut self.rng, dt);
            self.last_step = now;
        }
        dt > 0.0
    }
}

/// Deterministic per-link-set work counters — pure functions of the
/// measurement sequence — drained into the run profiler when a shard
/// collects its outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Geometry traces actually performed (snapshot-cache misses).
    pub traces_cast: u64,
    /// Rays produced by those traces (post-occlusion path count).
    pub rays_tested: u64,
    /// Channel steps taken: one per link advance over a nonzero `dt`.
    pub link_steps: u64,
}

impl LinkSet {
    /// Streams labelled exactly as the single trial always labelled
    /// them (`"channel"` × cell index), preserving seeded baselines.
    /// Every cell is in the interest set from the start.
    pub fn single_ue(streams: &RngStreams, config: ChannelConfig, n_cells: usize) -> LinkSet {
        let mut set = Self::empty(streams, config, n_cells, LinkSeeding::SingleUe);
        set.activate_all();
        set
    }

    /// Streams for UE number `ue` of a fleet; disjoint from every other
    /// UE's streams and from the single-trial labels. Every cell is in the
    /// interest set from the start (the pre-interest-management
    /// behaviour, byte-identical draws).
    pub fn for_ue(streams: &RngStreams, config: ChannelConfig, n_cells: usize, ue: u64) -> LinkSet {
        let mut set = Self::empty(streams, config, n_cells, LinkSeeding::Fleet { ue });
        set.activate_all();
        set
    }

    /// Fleet streams with an *empty* interest set: no link exists until
    /// [`Self::set_interest`] (or a sample) touches its cell.
    pub fn for_ue_interest(
        streams: &RngStreams,
        config: ChannelConfig,
        n_cells: usize,
        ue: u64,
    ) -> LinkSet {
        Self::empty(streams, config, n_cells, LinkSeeding::Fleet { ue })
    }

    fn empty(
        streams: &RngStreams,
        config: ChannelConfig,
        n_cells: usize,
        seeding: LinkSeeding,
    ) -> LinkSet {
        LinkSet {
            config,
            streams: streams.clone(),
            seeding,
            n_cells,
            slots: Vec::new(),
            active: Vec::new(),
            occl: OcclusionScratch::new(),
            stats: LinkStats::default(),
        }
    }

    fn activate_all(&mut self) {
        let cells: Vec<u16> = (0..self.n_cells as u16).collect();
        self.set_interest(&cells);
    }

    /// The fresh, never-advanced RNG stream of (this UE, `cell`) — a pure
    /// function of the master seed, so a slot created at `t > 0` draws
    /// exactly what it would have drawn if created at `t = 0`.
    fn seed_rng(&self, cell: u16) -> StdRng {
        match self.seeding {
            LinkSeeding::SingleUe => self.streams.stream_indexed("channel", u64::from(cell)),
            LinkSeeding::Fleet { ue } => self
                .streams
                .stream_indexed("fleet-channel", (ue << 20) | u64::from(cell)),
        }
    }

    fn ensure_slot(&mut self, cell: u16) -> usize {
        debug_assert!((cell as usize) < self.n_cells);
        match self.slots.binary_search_by_key(&cell, |s| s.cell) {
            Ok(i) => i,
            Err(i) => {
                let mut rng = self.seed_rng(cell);
                let channel = LinkChannel::new(&mut rng, self.config);
                self.slots.insert(
                    i,
                    LinkSlot {
                        cell,
                        channel,
                        rng,
                        last_step: SimTime::ZERO,
                        snap: PathSet::new(),
                        snap_key: None,
                    },
                );
                i
            }
        }
    }

    /// Replace the interest set with `cells` (sorted, deduplicated cell
    /// ids). Links for newly interesting cells are created on the spot
    /// from their own streams (a fresh stream is a pure function of the
    /// seed, so when a link is created never changes its draws); no link
    /// is stepped. The fleet engine refreshes this from each UE's
    /// position every SSB burst, always force-including the serving cell
    /// and any in-flight RACH target.
    pub fn set_interest(&mut self, cells: &[u16]) {
        debug_assert!(cells.windows(2).all(|w| w[0] < w[1]), "sorted, deduped");
        for &c in cells {
            self.ensure_slot(c);
        }
        self.active.clear();
        self.active.extend_from_slice(cells);
    }

    /// The current interest set, ascending.
    pub fn active_cells(&self) -> &[u16] {
        &self.active
    }

    /// Number of cells this set indexes (interesting or not).
    pub fn n_cells(&self) -> usize {
        self.n_cells
    }

    /// Trace/ray/step work counters accumulated since construction.
    pub fn stats(&self) -> LinkStats {
        self.stats
    }

    /// The single trial's eager advance: step every *interesting* link's
    /// time-correlated processes to `now`, whether or not it is sampled
    /// there. The trial calls this at every event, which keeps its
    /// realization (and every seeded figure) fixed; the fleet never does,
    /// and leaves each link to be stepped by its own samples.
    pub fn step_to(&mut self, now: SimTime) {
        let mut ai = 0;
        for slot in &mut self.slots {
            if ai == self.active.len() {
                break;
            }
            if slot.cell == self.active[ai] {
                ai += 1;
                if slot.advance(now) {
                    self.stats.link_steps += 1;
                }
            }
        }
    }

    /// The path snapshot of `cell` at instant `now` for a UE at `ue_pos`,
    /// traced at most once per (instant, position) and reused for every
    /// beam evaluated against it. The link is first advanced to `now` in
    /// one step from its own last step (its own stream — no other link
    /// notices). With a dynamic environment attached, the occlusion pass
    /// runs once here, on the snapshot — it consumes no RNG draws and
    /// allocates nothing in steady state, so the zero-allocation and
    /// determinism contracts of the sweep path carry over unchanged.
    fn snapshot(&mut self, sites: &Sites, cell: usize, now: SimTime, ue_pos: Vec2) -> &PathSet {
        let i = self.ensure_slot(cell as u16);
        let slot = &mut self.slots[i];
        if slot.advance(now) {
            self.stats.link_steps += 1;
        }
        let key = Some((now, ue_pos));
        if slot.snap_key != key {
            let bs_pos = sites.pose(cell).position;
            slot.channel.trace_into(
                &mut slot.rng,
                &sites.environment,
                bs_pos,
                ue_pos,
                &mut slot.snap,
            );
            if let Some(dynamics) = &sites.dynamics {
                dynamics.occlude(
                    now.as_secs_f64(),
                    bs_pos,
                    ue_pos,
                    &mut slot.snap,
                    &mut self.occl,
                );
            }
            self.stats.traces_cast += 1;
            self.stats.rays_tested += slot.snap.len() as u64;
            slot.snap_key = key;
        }
        &self.slots[i].snap
    }

    /// Downlink RSS from `cell` on (`tx_beam`, `rx_beam`) at instant
    /// `now` for a UE at `ue_pose`. By channel reciprocity the same figure
    /// serves the uplink. Instants must not go back in time per link.
    #[allow(clippy::too_many_arguments)]
    pub fn rss(
        &mut self,
        sites: &Sites,
        cell: usize,
        tx_beam: TxBeamIndex,
        now: SimTime,
        ue_pose: Pose,
        ue_codebook: &Codebook,
        rx_beam: BeamId,
    ) -> Option<Dbm> {
        let bs = sites.pose(cell);
        let set = self.snapshot(sites, cell, now, ue_pose.position);
        rss(
            sites.radio.tx_power,
            bs,
            &sites.codebooks[cell],
            BeamId(tx_beam),
            ue_pose,
            ue_codebook,
            rx_beam,
            set.samples(),
        )
    }

    /// RSS of *every* transmit beam of `cell` on the fixed `rx_beam` at
    /// instant `now`, in one trace and one pass over the rays — the
    /// SSB-sweep hot path. `out` must be `sites.codebooks[cell].len()`
    /// long; returns `false` (out untouched) when the link has no paths.
    #[allow(clippy::too_many_arguments)]
    pub fn rss_tx_sweep(
        &mut self,
        sites: &Sites,
        cell: usize,
        now: SimTime,
        ue_pose: Pose,
        ue_codebook: &Codebook,
        rx_beam: BeamId,
        out: &mut [Dbm],
    ) -> bool {
        let bs = sites.pose(cell);
        let set = self.snapshot(sites, cell, now, ue_pose.position);
        rss_sweep_tx(
            sites.radio.tx_power,
            bs,
            &sites.codebooks[cell],
            ue_pose,
            ue_codebook,
            rx_beam,
            set.samples(),
            out,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_phy::codebook::BeamwidthClass;
    use st_phy::geometry::{Radians, Vec2};
    use st_phy::link::detectable;

    fn sites() -> Sites {
        Sites::new(
            vec![CellConfig::at(-40.0, 10.0), CellConfig::at(40.0, 10.0)],
            Environment::street_canyon(200.0, 30.0),
            RadioConfig::ni_60ghz_testbed(),
            ChannelConfig::deterministic(),
        )
    }

    #[test]
    fn sites_expose_geometry_and_sweeps() {
        let s = sites();
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        assert_eq!(s.pose(1).position, Vec2::new(40.0, 10.0));
        assert_eq!(s.ssb(0).n_tx_beams, 16);
        let beam = s.best_tx_beam_towards(0, Vec2::new(0.0, 0.0));
        assert!(beam < 16);
    }

    #[test]
    fn linkset_rss_is_detectable_on_good_geometry() {
        let s = sites();
        let streams = RngStreams::new(1);
        let mut links = LinkSet::single_ue(&streams, s.channel, s.len());
        let ue_pose = Pose::new(Vec2::new(-30.0, 0.0), Radians(0.0));
        let ue_cb = Codebook::for_class(BeamwidthClass::Narrow);
        let tx = s.best_tx_beam_towards(0, ue_pose.position);
        let rx = ue_cb.best_beam_towards(ue_pose.local_bearing_to(s.cells[0].position));
        let r = links
            .rss(&s, 0, tx, SimTime::ZERO, ue_pose, &ue_cb, rx)
            .expect("paths exist");
        assert!(detectable(r, &s.radio), "{r}");
    }

    #[test]
    fn tx_sweep_matches_per_beam_rss_and_snapshot_is_rng_neutral() {
        let s = sites();
        let mut cfg = s.channel;
        cfg.fading_enabled = true; // exercise the stochastic path
        let s = Sites::new(s.cells.clone(), s.environment.clone(), s.radio, cfg);
        let streams = RngStreams::new(11);
        let ue_cb = Codebook::for_class(BeamwidthClass::Narrow);
        let ue_pose = Pose::new(Vec2::new(-20.0, 0.0), Radians(0.3));
        let rx = BeamId(5);

        // Sweep vs per-beam on identically-seeded link sets; sample at
        // successive instants so the fading processes actually advance.
        let mut a = LinkSet::single_ue(&streams, cfg, s.len());
        let mut b = LinkSet::single_ue(&streams, cfg, s.len());
        let n = s.codebooks[0].len();
        let mut out = vec![Dbm(0.0); n];
        for step in 1..=10u64 {
            let now = SimTime::ZERO + st_des::SimDuration::from_millis(step * 3);
            assert!(a.rss_tx_sweep(&s, 0, now, ue_pose, &ue_cb, rx, &mut out));
            for (beam, &got) in out.iter().enumerate() {
                let want = b
                    .rss(&s, 0, beam as TxBeamIndex, now, ue_pose, &ue_cb, rx)
                    .unwrap();
                assert_eq!(got, want, "beam {beam} at step {step}");
            }
            // Mixing snapshot reuse (sweep, then single rss at the same
            // instant) must not perturb the draws of later instants.
            let again = a.rss(&s, 0, 3, now, ue_pose, &ue_cb, rx).unwrap();
            assert_eq!(again, out[3]);
        }
        assert_eq!(a.stats().link_steps, 10);
        assert_eq!(b.stats(), a.stats());
    }

    #[test]
    fn stats_count_traces_not_snapshot_hits() {
        let s = sites();
        let streams = RngStreams::new(1);
        let mut links = LinkSet::single_ue(&streams, s.channel, s.len());
        let ue_pose = Pose::new(Vec2::new(-30.0, 0.0), Radians(0.0));
        let ue_cb = Codebook::for_class(BeamwidthClass::Narrow);
        assert_eq!(links.stats(), LinkStats::default());
        links.rss(&s, 0, 2, SimTime::ZERO, ue_pose, &ue_cb, BeamId(0));
        let after_one = links.stats();
        assert_eq!(after_one.traces_cast, 1);
        assert!(after_one.rays_tested >= 1);
        assert_eq!(after_one.link_steps, 0, "no time has passed");
        // Same instant + position: snapshot reuse, no new trace.
        links.rss(&s, 0, 3, SimTime::ZERO, ue_pose, &ue_cb, BeamId(1));
        assert_eq!(links.stats(), after_one);
        // A new instant steps the sampled link alone and re-traces it.
        let t1 = SimTime::ZERO + st_des::SimDuration::from_millis(5);
        links.rss(&s, 0, 2, t1, ue_pose, &ue_cb, BeamId(0));
        assert_eq!(links.stats().traces_cast, 2);
        assert_eq!(links.stats().link_steps, 1);
        // The trial's eager advance steps every interesting link, and a
        // sample at that instant then finds its link already stepped.
        let t2 = t1 + st_des::SimDuration::from_millis(5);
        links.step_to(t2);
        assert_eq!(links.stats().link_steps, 3);
        links.rss(&s, 1, 2, t2, ue_pose, &ue_cb, BeamId(0));
        assert_eq!(links.stats().link_steps, 3);
    }

    #[test]
    fn per_ue_streams_are_disjoint() {
        let s = sites();
        let streams = RngStreams::new(9);
        let mut a = LinkSet::for_ue(&streams, s.channel, s.len(), 0);
        let mut b = LinkSet::for_ue(&streams, s.channel, s.len(), 1);
        let ue_pose = Pose::new(Vec2::new(0.0, 0.0), Radians(0.0));
        let ue_cb = Codebook::for_class(BeamwidthClass::Narrow);
        // Different UEs see different shadowing states on the same link.
        a.step_to(SimTime::ZERO + st_des::SimDuration::from_secs(5));
        b.step_to(SimTime::ZERO + st_des::SimDuration::from_secs(5));
        let mut cfg = s.channel;
        cfg.shadowing_sigma_db = 6.0;
        let s2 = Sites::new(s.cells.clone(), s.environment.clone(), s.radio, cfg);
        let mut a2 = LinkSet::for_ue(&streams, cfg, s2.len(), 0);
        let mut b2 = LinkSet::for_ue(&streams, cfg, s2.len(), 1);
        let t0 = SimTime::ZERO;
        let ra = a2.rss(&s2, 0, 8, t0, ue_pose, &ue_cb, BeamId(0)).unwrap();
        let rb = b2.rss(&s2, 0, 8, t0, ue_pose, &ue_cb, BeamId(0)).unwrap();
        assert_ne!(ra, rb);
        // Same UE id reproduces the same draw.
        let mut a3 = LinkSet::for_ue(&streams, cfg, s2.len(), 0);
        let ra3 = a3.rss(&s2, 0, 8, t0, ue_pose, &ue_cb, BeamId(0)).unwrap();
        assert_eq!(ra, ra3);
    }

    /// The fleet's stepping invariant, exactly: a link advances only when
    /// it is sampled, so sampling other cells of the same UE at other
    /// instants leaves its RSS sequence bit-identical. (Stepping the whole
    /// set before every sample would step cell 0 at the other cells'
    /// instants too and change its draws.)
    #[test]
    fn sampling_other_cells_never_moves_a_links_draws() {
        let s = Sites::new(
            vec![
                CellConfig::at(-40.0, 10.0),
                CellConfig::at(0.0, 10.0),
                CellConfig::at(40.0, 10.0),
            ],
            Environment::street_canyon(200.0, 30.0),
            RadioConfig::ni_60ghz_testbed(),
            ChannelConfig::outdoor_60ghz(),
        );
        let streams = RngStreams::new(21);
        let ue_cb = Codebook::for_class(BeamwidthClass::Narrow);
        let mut alone = LinkSet::for_ue(&streams, s.channel, s.len(), 7);
        let mut busy = LinkSet::for_ue(&streams, s.channel, s.len(), 7);
        let mut out = vec![Dbm(0.0); s.codebooks[1].len()];
        let ms = |m: u64| SimTime::ZERO + st_des::SimDuration::from_millis(m);
        let (mut seq_alone, mut seq_busy) = (Vec::new(), Vec::new());
        for k in 1..=60u64 {
            let pose = Pose::new(Vec2::new(-30.0 + 0.05 * k as f64, 0.5), Radians(0.0));
            let tx = s.best_tx_beam_towards(0, pose.position);
            let rx = BeamId((k % 16) as u16);
            for (set, seq) in [(&mut alone, &mut seq_alone), (&mut busy, &mut seq_busy)] {
                let r = set.rss(&s, 0, tx, ms(5 * k), pose, &ue_cb, rx);
                seq.push(r.expect("paths exist").0.to_bits());
            }
            // Only `busy` also hears cells 1 and 2, between cell 0's
            // samples and at instants of their own.
            for cell in 1..3 {
                busy.rss_tx_sweep(
                    &s,
                    cell,
                    ms(5 * k + cell as u64),
                    pose,
                    &ue_cb,
                    rx,
                    &mut out,
                );
            }
        }
        assert_eq!(seq_alone, seq_busy);
        assert_eq!(alone.stats().link_steps, 60);
        assert_eq!(busy.stats().link_steps, 3 * 60);
    }
}
