//! Declarative fleet deployments: cell layouts and heterogeneous UE
//! populations, snowcap-example-network style — a small builder that
//! assembles one validated [`FleetConfig`] the engine consumes.
//!
//! ```
//! use st_fleet::{Deployment, MobilityKind};
//! use st_net::ProtocolKind;
//!
//! let cfg = Deployment::new()
//!     .street(320.0, 30.0)
//!     .cell_row(4, 80.0)
//!     .population(24, MobilityKind::Walk, ProtocolKind::SilentTracker)
//!     .population(8, MobilityKind::Vehicular, ProtocolKind::Reactive)
//!     .duration_secs(1.0)
//!     .seed(7)
//!     .shards(2)
//!     .build()
//!     .unwrap();
//! assert_eq!(cfg.n_ues(), 32);
//! ```

use std::sync::Arc;

use rand::RngExt;
use st_des::SimDuration;
use st_env::{BlockerPopulation, DynamicEnvironment};
use st_net::config::{CellConfig, ProtocolKind, ScenarioConfig};
use st_phy::channel::Environment;
use st_phy::geometry::Vec2;

/// Which mobility model a UE runs (paper kinematics, per-UE seeded).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MobilityKind {
    /// 1.4 m/s pedestrian with gait sway and yaw wobble.
    Walk,
    /// 20 mph drive along the street.
    Vehicular,
    /// Stationary with 120 °/s device rotation.
    Rotation,
    /// Walking while turning the device 90° mid-walk.
    WalkAndTurn,
}

/// A homogeneous slice of the UE population.
#[derive(Debug, Clone, Copy)]
pub struct PopulationSpec {
    pub count: u32,
    pub mobility: MobilityKind,
    pub protocol: ProtocolKind,
}

/// One UE of the flattened population.
#[derive(Debug, Clone, Copy)]
pub struct UeSpec {
    /// Global UE index (stable across shard counts).
    pub id: u64,
    pub mobility: MobilityKind,
    pub protocol: ProtocolKind,
}

impl MobilityKind {
    /// Upper bound on sustained translational speed, m/s — the travel
    /// margin used when expanding a tile's reachable-cell set.
    pub fn max_speed_mps(self) -> f64 {
        match self {
            MobilityKind::Walk | MobilityKind::WalkAndTurn => 1.4,
            MobilityKind::Vehicular => st_mobility::mph_to_mps(20.0),
            MobilityKind::Rotation => 0.0,
        }
    }
}

/// The geometric tile partition derived from a [`FleetConfig`]: which
/// cells each tile owns and where the tile boundaries sit on the street
/// axis. Each tile is one simulation shard.
#[derive(Debug, Clone)]
pub struct TilePartition {
    /// Cell indices owned by each tile, ascending by street-axis
    /// position (ties broken by y then index).
    pub clusters: Vec<Vec<usize>>,
    /// `n_tiles - 1` boundary abscissae: tile `k` owns
    /// `x ∈ (boundaries[k-1], boundaries[k]]` (open-ended at the ends).
    pub boundaries: Vec<f64>,
}

impl TilePartition {
    /// The tile owning street-axis position `x`.
    pub fn tile_of_x(&self, x: f64) -> usize {
        self.boundaries.partition_point(|b| *b < x)
    }

    /// The closed x-interval tile `k` spans (unbounded ends clamped to
    /// ±`extent`).
    pub fn tile_interval(&self, k: usize, extent: f64) -> (f64, f64) {
        let lo = if k == 0 {
            -extent
        } else {
            self.boundaries[k - 1]
        };
        let hi = if k == self.boundaries.len() {
            extent
        } else {
            self.boundaries[k]
        };
        (lo, hi)
    }
}

/// Full fleet description: the shared radio/world parameters (reusing the
/// single-trial [`ScenarioConfig`] — its `protocol` and `initial_serving`
/// fields are per-UE concerns here and ignored) plus the population mix
/// and execution shape.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Shared world: cells, environment, radio, channel, MAC timing,
    /// tracker parameters, faults, duration, master seed.
    pub base: ScenarioConfig,
    pub populations: Vec<PopulationSpec>,
    /// Number of spawn tiles the street is split into, one simulation
    /// shard each: a UE lives its whole run on the shard whose tile it
    /// spawned in. Results depend on neither shard nor worker count.
    pub n_shards: usize,
    /// Interest-management radius, metres: each UE's link set is
    /// restricted to cells within this radius of its current position
    /// (its serving cell and any active RACH target are always kept).
    /// `None` (default) keeps the full link set — byte-identical to the
    /// pre-interest behaviour.
    pub interest_radius_m: Option<f64>,
    /// DES event budget per shard.
    pub event_budget: u64,
    /// UEs spawn uniformly over x ∈ [spawn_x.0, spawn_x.1].
    pub spawn_x: (f64, f64),
    /// …and y ∈ [spawn_y.0, spawn_y.1].
    pub spawn_y: (f64, f64),
    /// Record every UE's protocol event stream for trace replay
    /// ([`st_net::replay`]). Off by default — recording buffers the
    /// full event history in memory.
    pub record_traces: bool,
    /// Emit a time-sliced telemetry snapshot every `dt` of simulated
    /// time (the [`crate::SnapshotRing`] timeline). `None` (default)
    /// records no timeline and schedules no snapshot events.
    pub snapshot_interval: Option<SimDuration>,
}

impl FleetConfig {
    pub fn n_ues(&self) -> u64 {
        self.populations.iter().map(|p| p.count as u64).sum()
    }

    /// The flattened population in global-id order: population slices
    /// concatenated in declaration order.
    pub fn ue_specs(&self) -> Vec<UeSpec> {
        let mut specs = Vec::with_capacity(self.n_ues() as usize);
        let mut id = 0u64;
        for p in &self.populations {
            for _ in 0..p.count {
                specs.push(UeSpec {
                    id,
                    mobility: p.mobility,
                    protocol: p.protocol,
                });
                id += 1;
            }
        }
        specs
    }

    /// The whole population partitioned into its spawn tiles in one pass
    /// (index = shard). Every shard's slice is ascending by global id.
    pub fn shard_partition(&self) -> Vec<Vec<UeSpec>> {
        let mut shards: Vec<Vec<UeSpec>> = vec![Vec::new(); self.n_shards];
        let tiles = self.tiles();
        for u in self.ue_specs() {
            shards[tiles.tile_of_x(self.spawn_x_of(u.id))].push(u);
        }
        shards
    }

    /// The street-axis spawn abscissa of UE `id`, re-derived from the
    /// master seed. This draws the same first variate `build_mobility`
    /// draws from the UE's `"fleet-spawn"` stream, so tile assignment
    /// agrees with the position the UE actually materializes at without
    /// perturbing any stream.
    pub fn spawn_x_of(&self, id: u64) -> f64 {
        let streams = st_des::RngStreams::new(self.base.seed);
        let mut rng = streams.stream_indexed("fleet-spawn", id);
        self.spawn_x.0 + rng.random::<f64>() * (self.spawn_x.1 - self.spawn_x.0)
    }

    /// The geometric tile partition: cells sorted along the street axis
    /// are chunked into `n_shards` contiguous near-equal clusters, and
    /// tile boundaries sit at the midpoints between adjacent clusters'
    /// facing cells. Pure config — identical on every worker.
    pub fn tiles(&self) -> TilePartition {
        let n_cells = self.base.cells.len();
        let n = self.n_shards;
        let mut order: Vec<usize> = (0..n_cells).collect();
        order.sort_by(|&a, &b| {
            let (pa, pb) = (self.base.cells[a].position, self.base.cells[b].position);
            (pa.x, pa.y, a)
                .partial_cmp(&(pb.x, pb.y, b))
                .expect("finite cell positions")
        });
        let (div, rem) = (n_cells / n, n_cells % n);
        let mut clusters = Vec::with_capacity(n);
        let mut at = 0usize;
        for k in 0..n {
            let take = div + usize::from(k < rem);
            clusters.push(order[at..at + take].to_vec());
            at += take;
        }
        let boundaries = clusters
            .windows(2)
            .map(|w| {
                let hi = self.base.cells[*w[0].last().unwrap()].position.x;
                let lo = self.base.cells[w[1][0]].position.x;
                (hi + lo) / 2.0
            })
            .collect();
        TilePartition {
            clusters,
            boundaries,
        }
    }

    /// The worst-case distance a UE can travel over the whole run, plus
    /// slack for gait sway — the margin by which a tile's reachable-cell
    /// set is expanded so a UE that walks or drives out of its spawn tile
    /// never hears a cell outside it.
    pub fn travel_margin_m(&self) -> f64 {
        let vmax = self
            .populations
            .iter()
            .map(|p| p.mobility.max_speed_mps())
            .fold(0.0, f64::max);
        vmax * self.base.duration.as_secs_f64() + 5.0
    }

    /// The cells UEs of tile `k` can ever hear: cells within
    /// `interest_radius_m + travel_margin` of the tile's x-interval,
    /// plus the tile's own cluster (a UE's serving cell is always in its
    /// link set). With no interest radius every cell is reachable.
    pub fn reachable_cells(&self, tiles: &TilePartition, k: usize) -> Vec<usize> {
        let n_cells = self.base.cells.len();
        let Some(radius) = self.interest_radius_m else {
            return (0..n_cells).collect();
        };
        let extent = self
            .base
            .cells
            .iter()
            .map(|c| c.position.x.abs())
            .fold(self.spawn_x.0.abs().max(self.spawn_x.1.abs()), f64::max)
            + radius
            + 1.0;
        let (lo, hi) = tiles.tile_interval(k, extent);
        let reach = radius + self.travel_margin_m();
        let mut cells: Vec<usize> = (0..n_cells)
            .filter(|&c| {
                let x = self.base.cells[c].position.x;
                (x - x.clamp(lo, hi)).abs() <= reach
            })
            .collect();
        for &c in &tiles.clusters[k] {
            if !cells.contains(&c) {
                cells.push(c);
            }
        }
        cells.sort_unstable();
        cells
    }

    pub fn validate(&self) -> Result<(), String> {
        self.base.validate()?;
        if self.populations.is_empty() || self.n_ues() == 0 {
            return Err("fleet needs at least one UE".into());
        }
        if self.n_shards == 0 {
            return Err("need at least one shard".into());
        }
        if self.event_budget == 0 {
            return Err("event budget must be positive".into());
        }
        if self.spawn_x.0 >= self.spawn_x.1 || self.spawn_y.0 >= self.spawn_y.1 {
            return Err("degenerate spawn region".into());
        }
        if self.n_ues() > u64::from(u32::MAX) {
            return Err("population exceeds u32 UE-id space".into());
        }
        if self.n_shards > self.base.cells.len() {
            return Err("tile sharding needs at least one cell per shard".into());
        }
        if self.interest_radius_m.is_some_and(|r| r <= 0.0) {
            return Err("interest radius must be positive".into());
        }
        if self.snapshot_interval.is_some_and(|dt| dt.as_nanos() == 0) {
            return Err("snapshot interval must be positive".into());
        }
        if self.record_traces && self.base.custom_ue_codebook.is_some() {
            // Replay rebuilds the codebook from the recorded
            // `BeamwidthClass`; a custom table would not round-trip.
            return Err("trace recording requires a class codebook, not a custom one".into());
        }
        Ok(())
    }
}

/// Builder for [`FleetConfig`]. Defaults mirror the paper's street-canyon
/// world (`ScenarioConfig::two_cell_edge`) with a 1-second horizon.
#[derive(Debug, Clone)]
pub struct Deployment {
    base: ScenarioConfig,
    cells_set: bool,
    populations: Vec<PopulationSpec>,
    blockers: Option<BlockerPopulation>,
    street_dims: (f64, f64),
    n_shards: usize,
    interest_radius_m: Option<f64>,
    exact_contention: bool,
    event_budget: u64,
    spawn_x: Option<(f64, f64)>,
    spawn_y: (f64, f64),
    record_traces: bool,
    snapshot_interval: Option<SimDuration>,
}

impl Default for Deployment {
    fn default() -> Self {
        Self::new()
    }
}

impl Deployment {
    pub fn new() -> Deployment {
        let mut base = ScenarioConfig::two_cell_edge();
        base.duration = SimDuration::from_secs(1);
        Deployment {
            base,
            cells_set: false,
            populations: Vec::new(),
            blockers: None,
            street_dims: (200.0, 30.0),
            n_shards: 1,
            interest_radius_m: None,
            exact_contention: true,
            event_budget: 200_000_000,
            spawn_x: None,
            spawn_y: (-3.0, 3.0),
            record_traces: false,
            snapshot_interval: None,
        }
    }

    /// Street-canyon environment `length × width` metres, centred on the
    /// origin. Also sets the default spawn span to the inner 80%.
    pub fn street(mut self, length_m: f64, width_m: f64) -> Deployment {
        self.base.environment = Environment::street_canyon(length_m, width_m);
        self.street_dims = (length_m, width_m);
        if self.spawn_x.is_none() {
            self.spawn_x = Some((-0.4 * length_m, 0.4 * length_m));
        }
        self
    }

    /// Share a population of moving geometric blockers (crowds, cars,
    /// buses) across every UE of every shard: one bus shadows every link
    /// it crosses, which is the *correlated* blockage the per-link
    /// stochastic process cannot express. Opting in switches the
    /// stochastic blockage duty cycle off — the dynamic environment is
    /// the blockage model. Deployments without blockers are untouched.
    pub fn blockers(mut self, population: BlockerPopulation) -> Deployment {
        self.blockers = Some(population);
        self
    }

    /// A row of `n` cells spaced `spacing` metres apart along the street,
    /// alternating street sides (replaces previously declared cells).
    pub fn cell_row(mut self, n: usize, spacing: f64) -> Deployment {
        let half = (n.saturating_sub(1)) as f64 * spacing / 2.0;
        self.base.cells = (0..n)
            .map(|i| {
                let side = if i % 2 == 0 { 10.0 } else { -10.0 };
                CellConfig::at(i as f64 * spacing - half, side)
            })
            .collect();
        self.cells_set = true;
        self
    }

    /// Add one cell at an explicit position (replaces the default two-cell
    /// layout on first use).
    pub fn cell_at(mut self, x: f64, y: f64) -> Deployment {
        if !self.cells_set {
            self.base.cells.clear();
            self.cells_set = true;
        }
        self.base.cells.push(CellConfig::at(x, y));
        self
    }

    /// Transmit beams swept per SSB burst on every cell.
    pub fn tx_beams(mut self, n: u16) -> Deployment {
        for c in &mut self.base.cells {
            c.n_tx_beams = n;
        }
        self
    }

    /// Add a population slice.
    pub fn population(
        mut self,
        count: u32,
        mobility: MobilityKind,
        protocol: ProtocolKind,
    ) -> Deployment {
        self.populations.push(PopulationSpec {
            count,
            mobility,
            protocol,
        });
        self
    }

    pub fn duration(mut self, d: SimDuration) -> Deployment {
        self.base.duration = d;
        self
    }

    pub fn duration_secs(self, s: f64) -> Deployment {
        self.duration(SimDuration::from_secs_f64(s))
    }

    pub fn seed(mut self, seed: u64) -> Deployment {
        self.base.seed = seed;
        self
    }

    pub fn shards(mut self, n: usize) -> Deployment {
        self.n_shards = n;
        self
    }

    /// Shard by geographic cell-cluster tiles. Spawn tiles are the only
    /// partition, so this is a no-op kept for existing callers.
    pub fn tile_sharding(self) -> Deployment {
        self
    }

    /// Restrict each UE's link set to cells within `m` metres (see
    /// [`FleetConfig::interest_radius_m`]).
    pub fn interest_radius(mut self, m: f64) -> Deployment {
        self.interest_radius_m = Some(m);
        self
    }

    /// Exact cross-shard RACH contention is the only execution model:
    /// `true` is accepted for existing callers, and `false` makes
    /// [`Self::build`] fail rather than silently run exact anyway.
    pub fn exact_contention(mut self, on: bool) -> Deployment {
        self.exact_contention = on;
        self
    }

    pub fn event_budget(mut self, budget: u64) -> Deployment {
        self.event_budget = budget;
        self
    }

    /// Record every UE's protocol event stream for trace replay (see
    /// [`FleetConfig::record_traces`]).
    pub fn record_traces(mut self, on: bool) -> Deployment {
        self.record_traces = on;
        self
    }

    /// Emit a telemetry snapshot slice every `dt` of simulated time
    /// (see [`FleetConfig::snapshot_interval`]).
    pub fn snapshot_interval(mut self, dt: SimDuration) -> Deployment {
        self.snapshot_interval = Some(dt);
        self
    }

    /// [`Self::snapshot_interval`] in seconds.
    pub fn snapshot_interval_secs(self, s: f64) -> Deployment {
        self.snapshot_interval(SimDuration::from_secs_f64(s))
    }

    /// Override the UE spawn region.
    pub fn spawn_region(mut self, x: (f64, f64), y: (f64, f64)) -> Deployment {
        self.spawn_x = Some(x);
        self.spawn_y = y;
        self
    }

    /// Fewer contention preambles per occasion (raises collision pressure
    /// for load studies).
    pub fn prach_preambles(mut self, n: u8) -> Deployment {
        self.base.prach.n_preambles = n;
        self
    }

    pub fn build(self) -> Result<FleetConfig, String> {
        if !self.exact_contention {
            return Err("per-shard (non-exact) contention is no longer supported".into());
        }
        let spawn_x = self.spawn_x.unwrap_or((-80.0, 80.0));
        let mut base = self.base;
        if let Some(pop) = self.blockers {
            let (length, width) = self.street_dims;
            // `set_dynamics` also disarms the stochastic blockage duty
            // cycle — geometric occlusion is the blockage model now.
            base.set_dynamics(Arc::new(DynamicEnvironment::new(
                base.environment.clone(),
                pop.materialize(length, width),
                base.channel.carrier,
                base.duration.as_secs_f64(),
            )));
        }
        let cfg = FleetConfig {
            base,
            populations: self.populations,
            n_shards: self.n_shards,
            interest_radius_m: self.interest_radius_m,
            event_budget: self.event_budget,
            spawn_x,
            spawn_y: self.spawn_y,
            record_traces: self.record_traces,
            snapshot_interval: self.snapshot_interval,
        };
        cfg.validate()?;
        Ok(cfg)
    }
}

/// Nearest cell to a position — the cell a freshly spawned UE is attached
/// to (it completed initial access before the fleet run starts).
pub fn nearest_cell(cells: &[CellConfig], p: Vec2) -> usize {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (i, c) in cells.iter().enumerate() {
        let d = c.position.distance(p);
        if d < best_d {
            best_d = d;
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> FleetConfig {
        Deployment::new()
            .street(320.0, 30.0)
            .cell_row(4, 80.0)
            .population(6, MobilityKind::Walk, ProtocolKind::SilentTracker)
            .population(2, MobilityKind::Vehicular, ProtocolKind::Reactive)
            .shards(2)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_assembles_valid_config() {
        let cfg = small();
        assert_eq!(cfg.base.cells.len(), 4);
        assert_eq!(cfg.n_ues(), 8);
        // Cells alternate street sides around the origin.
        assert_eq!(cfg.base.cells[0].position.x, -120.0);
        assert_eq!(cfg.base.cells[1].position.y, -10.0);
    }

    #[test]
    fn ue_specs_flatten_in_declaration_order() {
        let cfg = small();
        let specs = cfg.ue_specs();
        assert_eq!(specs.len(), 8);
        assert_eq!(specs[0].mobility, MobilityKind::Walk);
        assert_eq!(specs[6].mobility, MobilityKind::Vehicular);
        assert_eq!(specs[7].protocol, ProtocolKind::Reactive);
        assert!(specs.iter().enumerate().all(|(i, s)| s.id == i as u64));
    }

    #[test]
    fn validation_rejects_nonsense() {
        assert!(Deployment::new().build().is_err(), "no population");
        assert!(Deployment::new()
            .population(0, MobilityKind::Walk, ProtocolKind::SilentTracker)
            .build()
            .is_err());
        assert!(Deployment::new()
            .population(1, MobilityKind::Walk, ProtocolKind::SilentTracker)
            .shards(0)
            .build()
            .is_err());
    }

    #[test]
    fn build_rejects_per_shard_contention() {
        let one_ue =
            || Deployment::new().population(1, MobilityKind::Walk, ProtocolKind::SilentTracker);
        assert!(one_ue().exact_contention(true).build().is_ok());
        assert!(one_ue().exact_contention(false).build().is_err());
    }

    #[test]
    fn build_rejects_more_shards_than_cells() {
        // The default world has two cells: one spawn tile each at most.
        let shards = |n: usize| {
            Deployment::new()
                .population(4, MobilityKind::Walk, ProtocolKind::SilentTracker)
                .shards(n)
                .build()
        };
        assert!(shards(2).is_ok());
        assert!(shards(3).is_err());
    }

    #[test]
    fn validation_rejects_degenerate_spawn_axes() {
        let flat_y = Deployment::new()
            .population(1, MobilityKind::Walk, ProtocolKind::SilentTracker)
            .spawn_region((-10.0, 10.0), (1.0, 1.0))
            .build();
        assert!(flat_y.is_err(), "zero-height spawn_y must be rejected");
        let flat_x = Deployment::new()
            .population(1, MobilityKind::Walk, ProtocolKind::SilentTracker)
            .spawn_region((3.0, 3.0), (-1.0, 1.0))
            .build();
        assert!(flat_x.is_err(), "zero-width spawn_x must be rejected");
    }

    #[test]
    fn tiles_cluster_cells_contiguously() {
        // small(): 4 cells along x at -120, -40, 40, 120 over 2 shards.
        let cfg = small();
        let tiles = cfg.tiles();
        assert_eq!(tiles.clusters, vec![vec![0, 1], vec![2, 3]]);
        // Boundary at the midpoint between the facing cells (±40).
        assert_eq!(tiles.boundaries, vec![0.0]);
        assert_eq!(tiles.tile_of_x(-1.0), 0);
        assert_eq!(tiles.tile_of_x(0.0), 0, "boundary belongs to the left tile");
        assert_eq!(tiles.tile_of_x(0.1), 1);
        assert_eq!(tiles.tile_interval(0, 500.0), (-500.0, 0.0));
        assert_eq!(tiles.tile_interval(1, 500.0), (0.0, 500.0));
    }

    #[test]
    fn reachable_cells_respect_radius_plus_travel_margin() {
        let mut cfg = small();
        let tiles = cfg.tiles();
        // No interest radius: every tile can hear every cell.
        assert_eq!(cfg.reachable_cells(&tiles, 0), vec![0, 1, 2, 3]);
        // 60 m radius, 1 s horizon, fastest slice vehicular (8.9408
        // m/s): margin = 8.9408 · 1 + 5 ≈ 13.94 m, so tile 0 (x ≤ 0)
        // reaches the near far-side cell at x = 40 but not the one at
        // x = 120 (dist 120 > 60 + 13.94).
        cfg.interest_radius_m = Some(60.0);
        let vmax = MobilityKind::Vehicular.max_speed_mps();
        assert!((cfg.travel_margin_m() - (vmax + 5.0)).abs() < 1e-9);
        assert_eq!(cfg.reachable_cells(&tiles, 0), vec![0, 1, 2]);
        assert_eq!(cfg.reachable_cells(&tiles, 1), vec![1, 2, 3]);
    }

    #[test]
    fn tile_shard_partition_assigns_by_spawn_abscissa() {
        let cfg = small();
        let tiles = cfg.tiles();
        let shards = cfg.shard_partition();
        assert_eq!(shards.iter().map(Vec::len).sum::<usize>(), 8);
        for (s, shard) in shards.iter().enumerate() {
            for u in shard {
                assert_eq!(tiles.tile_of_x(cfg.spawn_x_of(u.id)), s);
            }
            // Slices stay ascending by global id within each shard.
            assert!(shard.windows(2).all(|w| w[0].id < w[1].id));
        }
    }

    #[test]
    fn nearest_cell_picks_closest() {
        let cells = vec![CellConfig::at(-40.0, 10.0), CellConfig::at(40.0, 10.0)];
        assert_eq!(nearest_cell(&cells, Vec2::new(-30.0, 0.0)), 0);
        assert_eq!(nearest_cell(&cells, Vec2::new(35.0, 0.0)), 1);
    }
}
