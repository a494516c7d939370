//! The dynamic environment: static walls plus moving blockers, with a
//! per-instant occlusion pass over an already-traced path snapshot.
//!
//! Integration contract (kept by `st_net::radio::LinkSet`):
//!
//! 1. trace the link once per (instant, position) into its reusable
//!    [`PathSet`] against the *static* walls ([`DynamicEnvironment::statics`]);
//! 2. call [`DynamicEnvironment::occlude`] on the snapshot — every ray
//!    leg is tested against the blockers active at that instant and
//!    knife-edge losses are folded into the sample gains in place.
//!
//! The pass is zero-allocation in steady state (the candidate scratch is
//! caller-owned and pre-sized to the blocker count), consumes no RNG
//! draws, and is a pure function of time — so occluded runs remain
//! bit-identical across shard and worker counts.
//!
//! ## The time-indexed spatial cull
//!
//! Testing every ray against every blocker would cost `rays × blockers`
//! segment intersections per snapshot; with crowds of 100+ that dominates
//! the hot path. Instead the constructor precomputes, per coarse time
//! bucket, a conservative axis-aligned bounding box of each blocker's
//! swept segment over that bucket. A query gathers only the blockers
//! whose bucket box overlaps the link's ray bounding box — typically a
//! handful — and only those are intersection-tested per ray.

use st_phy::channel::{Environment, PathSet};
use st_phy::geometry::{Segment, Vec2};
use st_phy::units::{Carrier, Db};

use crate::blocker::Blocker;
use crate::diffraction::leg_occlusion;

/// Axis-aligned bounding box.
#[derive(Debug, Clone, Copy)]
struct Aabb {
    min: Vec2,
    max: Vec2,
}

impl Aabb {
    fn of_points(points: impl IntoIterator<Item = Vec2>) -> Option<Aabb> {
        let mut it = points.into_iter();
        let first = it.next()?;
        let mut bb = Aabb {
            min: first,
            max: first,
        };
        for p in it {
            bb.grow(p);
        }
        Some(bb)
    }

    fn grow(&mut self, p: Vec2) {
        self.min.x = self.min.x.min(p.x);
        self.min.y = self.min.y.min(p.y);
        self.max.x = self.max.x.max(p.x);
        self.max.y = self.max.y.max(p.y);
    }

    fn pad(&mut self, r: f64) {
        self.min.x -= r;
        self.min.y -= r;
        self.max.x += r;
        self.max.y += r;
    }

    fn overlaps(&self, other: &Aabb) -> bool {
        self.min.x <= other.max.x
            && other.min.x <= self.max.x
            && self.min.y <= other.max.y
            && other.min.y <= self.max.y
    }

    fn of_segment(s: Segment) -> Aabb {
        let mut bb = Aabb { min: s.a, max: s.a };
        bb.grow(s.b);
        bb
    }
}

/// Trajectory sample points per bucket when building the index. The
/// bucket box covers every sampled segment, padded by the distance a
/// blocker can travel between samples — conservative for any trajectory
/// whose speed between samples stays near the sampled speeds.
const BUCKET_SAMPLES: usize = 5;
/// Extra padding (metres) absorbing sway/wobble between samples.
const BUCKET_SLACK_M: f64 = 0.75;

/// One blocker's conservative bounds within one time bucket.
#[derive(Debug, Clone, Copy)]
struct BucketEntry {
    bounds: Aabb,
    blocker: u32,
}

/// A blocker placed at the query instant: its exact segment plus its
/// through-body loss cap, computed once per snapshot and shared by every
/// ray of the sweep.
#[derive(Debug, Clone, Copy)]
struct Placed {
    seg: Segment,
    cap: Db,
}

/// Caller-owned scratch for [`DynamicEnvironment::occlude`]: lives beside
/// the [`PathSet`] it serves (one per `LinkSet`), reused every instant so
/// steady-state occlusion allocates nothing.
#[derive(Debug, Default)]
pub struct OcclusionScratch {
    placed: Vec<Placed>,
}

impl OcclusionScratch {
    pub fn new() -> OcclusionScratch {
        OcclusionScratch::default()
    }
}

/// Static walls + moving blockers + the time-indexed cull.
pub struct DynamicEnvironment {
    statics: Environment,
    blockers: Vec<Blocker>,
    lambda_m: f64,
    bucket_s: f64,
    /// `buckets[k]` covers scenario time `[k·bucket_s, (k+1)·bucket_s)`.
    buckets: Vec<Vec<BucketEntry>>,
}

impl std::fmt::Debug for DynamicEnvironment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DynamicEnvironment")
            .field("walls", &self.statics.walls.len())
            .field("blockers", &self.blockers.len())
            .field("bucket_s", &self.bucket_s)
            .field("buckets", &self.buckets.len())
            .finish()
    }
}

impl DynamicEnvironment {
    /// Bucket width of the time index, seconds. Coarse on purpose: the
    /// index only has to cull, not to answer exactly.
    pub const BUCKET_S: f64 = 0.25;

    /// Build the environment and its cull index covering scenario time
    /// `[0, horizon_s)`. Queries beyond the horizon stay correct — they
    /// fall back to testing every blocker — so the horizon is a
    /// performance knob, not a correctness bound; size it to the
    /// simulated duration.
    pub fn new(
        statics: Environment,
        blockers: Vec<Blocker>,
        carrier: Carrier,
        horizon_s: f64,
    ) -> DynamicEnvironment {
        let bucket_s = Self::BUCKET_S;
        let n_buckets = if horizon_s > 0.0 {
            (horizon_s / bucket_s).ceil() as usize
        } else {
            0
        };
        let mut buckets = Vec::with_capacity(n_buckets);
        for k in 0..n_buckets {
            let t0 = k as f64 * bucket_s;
            let mut entries = Vec::new();
            for (i, b) in blockers.iter().enumerate() {
                let mut bounds: Option<Aabb> = None;
                let mut v_max = 0.0f64;
                for s in 0..BUCKET_SAMPLES {
                    let t = t0 + bucket_s * s as f64 / (BUCKET_SAMPLES - 1) as f64;
                    let seg = b.segment_at(t);
                    match &mut bounds {
                        Some(bb) => {
                            bb.grow(seg.a);
                            bb.grow(seg.b);
                        }
                        None => bounds = Some(Aabb::of_segment(seg)),
                    }
                    v_max = v_max.max(b.speed_at(t));
                }
                let mut bounds = bounds.expect("BUCKET_SAMPLES > 0");
                // Between consecutive samples the blocker can stray by at
                // most roughly v·Δt from the sampled hull.
                let dt = bucket_s / (BUCKET_SAMPLES - 1) as f64;
                bounds.pad(v_max * dt + BUCKET_SLACK_M);
                entries.push(BucketEntry {
                    bounds,
                    blocker: i as u32,
                });
            }
            buckets.push(entries);
        }
        DynamicEnvironment {
            statics,
            blockers,
            lambda_m: carrier.wavelength_m(),
            bucket_s,
            buckets,
        }
    }

    /// The static walls — what [`st_phy::LinkChannel::trace_into`] traces
    /// against before the occlusion pass.
    pub fn statics(&self) -> &Environment {
        &self.statics
    }

    pub fn blocker_count(&self) -> usize {
        self.blockers.len()
    }

    pub fn blockers(&self) -> &[Blocker] {
        &self.blockers
    }

    /// Gather the blockers that could touch `query` at `t_s` into
    /// `scratch.placed`, segments materialized at the exact instant.
    fn gather(&self, t_s: f64, query: &Aabb, scratch: &mut OcclusionScratch) {
        scratch.placed.clear();
        // One-time reservation: never more candidates than blockers, so
        // after the first call at full capacity the scratch is stable.
        if scratch.placed.capacity() < self.blockers.len() {
            scratch.placed.reserve(self.blockers.len());
        }
        let bucket = if t_s >= 0.0 {
            self.buckets.get((t_s / self.bucket_s) as usize)
        } else {
            None
        };
        let mut consider = |i: usize| {
            let b = &self.blockers[i];
            let seg = b.segment_at(t_s);
            let mut bb = Aabb::of_segment(seg);
            bb.pad(1e-9);
            if bb.overlaps(query) {
                scratch.placed.push(Placed {
                    seg,
                    cap: b.shadow_cap(),
                });
            }
        };
        match bucket {
            Some(entries) => {
                for e in entries {
                    if e.bounds.overlaps(query) {
                        consider(e.blocker as usize);
                    }
                }
            }
            // Outside the indexed horizon: exhaustive (still exact).
            None => {
                for i in 0..self.blockers.len() {
                    consider(i);
                }
            }
        }
    }

    /// Fold the occlusion losses of the blockers active at `t_s` into an
    /// already-traced snapshot of the link `tx → rx`.
    ///
    /// Every ray is tested leg-by-leg (direct ray: one leg; reflected
    /// ray: tx→bounce and bounce→rx) against the culled candidate set; a
    /// crossing adds the knife-edge loss of [`crate::leg_occlusion`]. A
    /// blocker clear of every leg contributes exactly zero — the sample
    /// powers stay bit-identical, which is what keeps opt-out scenarios
    /// (and clear instants of opt-in ones) byte-stable.
    pub fn occlude(
        &self,
        t_s: f64,
        tx: Vec2,
        rx: Vec2,
        set: &mut PathSet,
        scratch: &mut OcclusionScratch,
    ) {
        if self.blockers.is_empty() || set.is_empty() {
            return;
        }
        // The ray hull: every leg endpoint is tx, rx or a bounce point.
        let mut query = Aabb::of_points([tx, rx]).expect("two points");
        for ray in set.rays() {
            if let Some(v) = ray.via {
                query.grow(v);
            }
        }
        self.gather(t_s, &query, scratch);
        if scratch.placed.is_empty() {
            return;
        }
        let lambda = self.lambda_m;
        let placed = &scratch.placed;
        set.attenuate(|ray| {
            let mut loss = Db::ZERO;
            for p in placed {
                match ray.via {
                    None => loss += leg_occlusion(tx, rx, p.seg, p.cap, lambda),
                    Some(bounce) => {
                        loss += leg_occlusion(tx, bounce, p.seg, p.cap, lambda);
                        loss += leg_occlusion(bounce, rx, p.seg, p.cap, lambda);
                    }
                }
            }
            loss
        });
    }

    /// Total occlusion loss the blockers at `t_s` inflict on the bare
    /// direct path `tx → rx` (no trace needed) — a cheap probe for tests
    /// and figure code.
    pub fn los_loss(&self, t_s: f64, tx: Vec2, rx: Vec2) -> Db {
        let mut loss = Db::ZERO;
        for b in &self.blockers {
            loss += leg_occlusion(tx, rx, b.segment_at(t_s), b.shadow_cap(), self.lambda_m);
        }
        loss
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocker::Orientation;
    use st_mobility::{Stationary, Vehicular};
    use st_phy::geometry::Radians;

    fn carrier() -> Carrier {
        Carrier::MM_WAVE_60GHZ
    }

    fn standing_at(x: f64, y: f64) -> Blocker {
        Blocker::pedestrian(Box::new(Stationary::at(Vec2::new(x, y), Radians(0.0))))
            .with_orientation(Orientation::Fixed(Radians(std::f64::consts::FRAC_PI_2)))
    }

    #[test]
    fn cull_finds_the_blocker_the_exhaustive_path_finds() {
        // A bus driving down the street crosses the LOS around t ≈ 1.1 s.
        let bus = Blocker::bus(Box::new(Vehicular::paper_vehicular(
            Vec2::new(-20.0, 2.0),
            Radians(0.0),
        )));
        let indexed = DynamicEnvironment::new(Environment::open(), vec![bus], carrier(), 4.0);
        let (tx, rx) = (Vec2::new(0.0, 10.0), Vec2::new(0.0, -5.0));
        for k in 0..400 {
            let t = k as f64 * 0.01;
            // `los_loss` is the exhaustive reference; the indexed query
            // must agree at every instant (the cull may only cull
            // non-crossers).
            let want = indexed.los_loss(t, tx, rx);
            let mut scratch = OcclusionScratch::new();
            let mut query = Aabb::of_points([tx, rx]).unwrap();
            query.pad(0.0);
            indexed.gather(t, &query, &mut scratch);
            let got: Db = scratch
                .placed
                .iter()
                .map(|p| leg_occlusion(tx, rx, p.seg, p.cap, indexed.lambda_m))
                .fold(Db::ZERO, |a, b| a + b);
            assert_eq!(got, want, "t = {t}");
        }
        // And the bus really does cross at some point.
        let peak = (0..400)
            .map(|k| indexed.los_loss(k as f64 * 0.01, tx, rx).0)
            .fold(0.0f64, f64::max);
        assert!(peak > 10.0, "bus never shadowed the link: {peak}");
    }

    #[test]
    fn beyond_horizon_falls_back_to_exhaustive() {
        let env = DynamicEnvironment::new(
            Environment::open(),
            vec![standing_at(5.0, 0.0)],
            carrier(),
            1.0,
        );
        let mut scratch = OcclusionScratch::new();
        let query = Aabb::of_points([Vec2::ZERO, Vec2::new(10.0, 0.0)]).unwrap();
        env.gather(100.0, &query, &mut scratch);
        assert_eq!(scratch.placed.len(), 1);
    }

    #[test]
    fn clear_blocker_leaves_snapshot_untouched() {
        use rand::rngs::StdRng;
        use rand::SeedableRng as _;
        use st_phy::channel::{ChannelConfig, LinkChannel};

        let walls = Environment::street_canyon(100.0, 20.0);
        let env = DynamicEnvironment::new(
            walls.clone(),
            vec![standing_at(0.0, 40.0)], // far outside the canyon
            carrier(),
            2.0,
        );
        let mut rng = StdRng::seed_from_u64(7);
        let mut ch = LinkChannel::new(&mut rng, ChannelConfig::outdoor_60ghz());
        let (tx, rx) = (Vec2::new(-10.0, 3.0), Vec2::new(12.0, -2.0));
        let mut a = PathSet::new();
        ch.trace_into(&mut rng, &walls, tx, rx, &mut a);
        let before: Vec<_> = a.samples().to_vec();
        let mut scratch = OcclusionScratch::new();
        env.occlude(0.5, tx, rx, &mut a, &mut scratch);
        for (x, y) in before.iter().zip(a.samples()) {
            assert_eq!(x.power, y.power, "bit-identical when clear");
        }
    }

    #[test]
    fn blocker_on_los_attenuates_only_the_crossed_legs() {
        use rand::rngs::StdRng;
        use rand::SeedableRng as _;
        use st_phy::channel::{ChannelConfig, LinkChannel};

        let walls = Environment::street_canyon(100.0, 20.0);
        // Standing mid-way on the direct path, well clear of the
        // reflection bounce points at y = ±10.
        let env =
            DynamicEnvironment::new(walls.clone(), vec![standing_at(0.0, 0.0)], carrier(), 2.0);
        let mut rng = StdRng::seed_from_u64(8);
        let mut ch = LinkChannel::new(&mut rng, ChannelConfig::deterministic());
        let (tx, rx) = (Vec2::new(-10.0, 0.0), Vec2::new(10.0, 0.0));
        let mut set = PathSet::new();
        ch.trace_into(&mut rng, &walls, tx, rx, &mut set);
        let before: Vec<_> = set.samples().to_vec();
        let mut scratch = OcclusionScratch::new();
        env.occlude(0.0, tx, rx, &mut set, &mut scratch);
        for (x, y) in before.iter().zip(set.samples()) {
            if y.is_los {
                assert!(y.gain().0 < x.gain().0 - 3.0, "LOS not shadowed");
            } else {
                assert_eq!(x.power, y.power, "reflection wrongly shadowed");
            }
        }
    }
}
