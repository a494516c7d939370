//! RSS measurement filtering and per-beam bookkeeping.
//!
//! Everything the protocol decides is a comparison between *smoothed* RSS
//! values: raw per-SSB samples carry several dB of fading noise, so the 3
//! and 10 dB thresholds of Fig. 2b are evaluated against an EWMA. A
//! [`LinkMonitor`] additionally tracks the *reference* level — the best
//! smoothed RSS seen since the current beam pair was selected — because
//! the paper's "RSS drops by 3 dB" is a drop relative to how good this
//! beam was, not relative to the previous sample.

use st_des::SimTime;
use st_phy::codebook::BeamId;
use st_phy::units::{Db, Dbm};

/// Exponentially-weighted moving average over dBm samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EwmaRss {
    alpha: f64,
    value: Option<Dbm>,
}

impl EwmaRss {
    pub fn new(alpha: f64) -> EwmaRss {
        assert!(alpha > 0.0 && alpha <= 1.0);
        EwmaRss { alpha, value: None }
    }

    pub fn update(&mut self, sample: Dbm) -> Dbm {
        let next = match self.value {
            None => sample,
            Some(prev) => Dbm(prev.0 + self.alpha * (sample.0 - prev.0)),
        };
        self.value = Some(next);
        next
    }

    pub fn get(&self) -> Option<Dbm> {
        self.value
    }

    pub fn reset(&mut self) {
        self.value = None;
    }

    pub(crate) fn encode<B: bytes::BufMut>(&self, buf: &mut B) {
        let Self { alpha, value } = *self;
        crate::wire::put_f64(buf, alpha);
        crate::wire::put_opt_f64(buf, value.map(|d| d.0));
    }
}

/// Monitors one link (a beam pair) and reports drops below reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkMonitor {
    ewma: EwmaRss,
    reference: Option<Dbm>,
    last_update: Option<SimTime>,
    samples: u32,
    /// How fast the reference relaxes toward the current level, dB per
    /// sample. Zero keeps the classic "best level ever seen" reference.
    reference_decay: f64,
}

impl LinkMonitor {
    pub fn new(alpha: f64) -> LinkMonitor {
        LinkMonitor {
            ewma: EwmaRss::new(alpha),
            reference: None,
            last_update: None,
            samples: 0,
            reference_decay: 0.0,
        }
    }

    /// A monitor whose reference *decays* toward the current level by
    /// `decay_db_per_sample` each sample. With a hard best-ever
    /// reference, one lucky fading/wobble peak pins the baseline and
    /// every ordinary oscillation afterwards reads as a "loss"; a slow
    /// decay makes the loss threshold mean "this far below the
    /// *sustained* level", which is what beam-failure detection wants.
    pub fn with_reference_decay(alpha: f64, decay_db_per_sample: f64) -> LinkMonitor {
        assert!(decay_db_per_sample >= 0.0);
        LinkMonitor {
            reference_decay: decay_db_per_sample,
            ..LinkMonitor::new(alpha)
        }
    }

    /// Feed a sample; returns the current drop below reference (0 dB if
    /// at or above reference).
    pub fn on_sample(&mut self, at: SimTime, rss: Dbm) -> Db {
        let smoothed = self.ewma.update(rss);
        self.last_update = Some(at);
        self.samples += 1;
        if let Some(r) = &mut self.reference {
            r.0 -= self.reference_decay;
        }
        match self.reference {
            None => {
                self.reference = Some(smoothed);
                Db::ZERO
            }
            Some(r) if smoothed.0 > r.0 => {
                self.reference = Some(smoothed);
                Db::ZERO
            }
            Some(r) => r - smoothed,
        }
    }

    /// Current smoothed level.
    pub fn level(&self) -> Option<Dbm> {
        self.ewma.get()
    }

    pub fn last_update(&self) -> Option<SimTime> {
        self.last_update
    }

    /// Samples folded into the estimate since construction or the last
    /// [`LinkMonitor::rebase`] — the estimate's maturity.
    pub fn samples(&self) -> u32 {
        self.samples
    }

    /// Reset reference and smoothing after a beam switch: the new beam
    /// starts a fresh baseline.
    pub fn rebase(&mut self) {
        self.ewma.reset();
        self.reference = None;
        self.samples = 0;
    }

    /// Canonical binary encoding (exact: floats as bit patterns).
    pub fn encode<B: bytes::BufMut>(&self, buf: &mut B) {
        let Self {
            ewma,
            reference,
            last_update,
            samples,
            reference_decay,
        } = *self;
        ewma.encode(buf);
        crate::wire::put_opt_f64(buf, reference.map(|d| d.0));
        crate::wire::put_opt_time(buf, last_update);
        crate::wire::put_varu64(buf, u64::from(samples));
        crate::wire::put_f64(buf, reference_decay);
    }
}

/// Smoothed RSS per receive beam for one cell — what the mobile learned
/// from sweeping/probing, used to pick the best adjacent beam to switch to.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BeamTable {
    entries: Vec<(BeamId, EwmaRss, SimTime)>,
    alpha: f64,
}

impl BeamTable {
    pub fn new(alpha: f64) -> BeamTable {
        assert!(alpha > 0.0 && alpha <= 1.0);
        BeamTable {
            entries: Vec::new(),
            alpha,
        }
    }

    pub fn observe(&mut self, at: SimTime, beam: BeamId, rss: Dbm) {
        match self.entries.iter_mut().find(|(b, _, _)| *b == beam) {
            Some((_, ewma, t)) => {
                ewma.update(rss);
                *t = at;
            }
            None => {
                let mut ewma = EwmaRss::new(self.alpha);
                ewma.update(rss);
                self.entries.push((beam, ewma, at));
            }
        }
    }

    pub fn get(&self, beam: BeamId) -> Option<Dbm> {
        self.entries
            .iter()
            .find(|(b, _, _)| *b == beam)
            .and_then(|(_, e, _)| e.get())
    }

    pub fn last_seen(&self, beam: BeamId) -> Option<SimTime> {
        self.entries
            .iter()
            .find(|(b, _, _)| *b == beam)
            .map(|&(_, _, t)| t)
    }

    /// The strongest beam among `candidates` that has a measurement not
    /// older than `staleness` relative to `now`.
    ///
    /// Levels are ordered by `total_cmp`: it agrees with `partial_cmp` on
    /// every level a link produces (finite, never −0.0), and it orders the
    /// NaN that a forged trace's samples near `±f64::MAX` leave in an EWMA
    /// (inf − inf) instead of panicking.
    pub fn best_among(
        &self,
        now: SimTime,
        staleness: st_des::SimDuration,
        candidates: &[BeamId],
    ) -> Option<(BeamId, Dbm)> {
        candidates
            .iter()
            .filter_map(|&b| {
                let (_, e, t) = self.entries.iter().find(|(x, _, _)| *x == b)?;
                if now.since(*t) > staleness {
                    return None;
                }
                Some((b, e.get()?))
            })
            .max_by(|a, b| a.1 .0.total_cmp(&b.1 .0))
    }

    pub(crate) fn encode<B: bytes::BufMut>(&self, buf: &mut B) {
        let Self { entries, alpha } = self;
        crate::wire::put_f64(buf, *alpha);
        crate::wire::put_varu64(buf, entries.len() as u64);
        for (beam, ewma, at) in entries {
            buf.put_u16(beam.0);
            ewma.encode(buf);
            crate::wire::put_time(buf, *at);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_des::SimDuration;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn ewma_converges() {
        let mut e = EwmaRss::new(0.5);
        assert_eq!(e.get(), None);
        e.update(Dbm(-60.0));
        assert_eq!(e.get(), Some(Dbm(-60.0)));
        for _ in 0..30 {
            e.update(Dbm(-70.0));
        }
        assert!((e.get().unwrap().0 + 70.0).abs() < 0.01);
        e.reset();
        assert_eq!(e.get(), None);
    }

    #[test]
    fn ewma_smooths_spikes() {
        let mut e = EwmaRss::new(0.3);
        e.update(Dbm(-60.0));
        let after_spike = e.update(Dbm(-40.0));
        // One spike moves the estimate only 30% of the way.
        assert!((after_spike.0 + 54.0).abs() < 1e-9);
    }

    #[test]
    fn monitor_tracks_reference_and_drop() {
        let mut m = LinkMonitor::new(1.0); // alpha 1: no smoothing, exact arithmetic
        assert_eq!(m.on_sample(t(0), Dbm(-60.0)), Db::ZERO);
        // Improvement raises the reference...
        assert_eq!(m.on_sample(t(1), Dbm(-58.0)), Db::ZERO);
        // ...so a fall is reported relative to the best seen.
        let drop = m.on_sample(t(2), Dbm(-62.5));
        assert!((drop.0 - 4.5).abs() < 1e-12);
        assert_eq!(m.level(), Some(Dbm(-62.5)));
        assert_eq!(m.last_update(), Some(t(2)));
    }

    #[test]
    fn rebase_starts_fresh() {
        let mut m = LinkMonitor::new(1.0);
        m.on_sample(t(0), Dbm(-50.0));
        m.on_sample(t(1), Dbm(-65.0));
        m.rebase();
        assert_eq!(m.level(), None);
        // First sample after rebase defines the new reference: the old
        // −50 dBm one is gone.
        assert_eq!(m.on_sample(t(2), Dbm(-64.0)), Db::ZERO);
        assert_eq!(m.on_sample(t(3), Dbm(-66.0)), Db(2.0));
    }

    #[test]
    fn beam_table_best_among_respects_staleness() {
        let mut bt = BeamTable::new(1.0);
        bt.observe(t(0), BeamId(1), Dbm(-70.0));
        bt.observe(t(90), BeamId(2), Dbm(-75.0));
        // At t=100 with 20 ms staleness, beam 1 is stale.
        let best = bt.best_among(
            t(100),
            SimDuration::from_millis(20),
            &[BeamId(1), BeamId(2)],
        );
        assert_eq!(best, Some((BeamId(2), Dbm(-75.0))));
        // With a generous window the stronger (but older) beam 1 wins.
        let best = bt.best_among(
            t(100),
            SimDuration::from_millis(200),
            &[BeamId(1), BeamId(2)],
        );
        assert_eq!(best, Some((BeamId(1), Dbm(-70.0))));
        // Candidates not in the table are skipped.
        let none = bt.best_among(t(100), SimDuration::from_millis(200), &[BeamId(9)]);
        assert_eq!(none, None);
    }

    #[test]
    fn beam_table_updates_in_place() {
        let mut bt = BeamTable::new(0.5);
        bt.observe(t(0), BeamId(3), Dbm(-60.0));
        bt.observe(t(1), BeamId(3), Dbm(-70.0));
        // One entry, smoothed over both samples: a second entry for the
        // beam would leave the first sample's −60 dBm here.
        assert!((bt.get(BeamId(3)).unwrap().0 + 65.0).abs() < 1e-9);
        assert_eq!(bt.last_seen(BeamId(3)), Some(t(1)));
    }
}
