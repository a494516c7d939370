//! Directional neighbor-cell search (the N-A/R state).
//!
//! The mobile dwells its receive beam for one SSB burst period per
//! codebook entry, listening for any neighbor cell's synchronization
//! signals. A dwell either detects one or more SSBs (the strongest wins)
//! or advances to the next receive beam. The number of dwells spent is
//! exactly the paper's Fig. 2a "Number of Beam Searches" metric, and a
//! pass that exhausts its dwell budget without a detection is a failed
//! search (the complement of Fig. 2a's "Search Success Rate").
//!
//! The dwell order starts from a *hint* beam (typically the serving-link
//! receive beam, since at cell edge the neighbor tends to lie in the
//! forward hemisphere) and spirals outward through directionally adjacent
//! beams — the cheap prior that makes re-acquisition (edge D → N-A/R)
//! much faster than a cold search.
//!
//! A sweep detection does not end the pass immediately: the spiral visits
//! beams in hint order, not gain order, so the first beam that hears the
//! neighbor is frequently the *edge* of the main lobe rather than its
//! center. The controller therefore finishes with a short **refinement**
//! (NR's P3 receive-beam sweep): one dwell on each beam directionally
//! adjacent to the detected one, acquiring the strongest of the three.
//! Refinement dwells are charged to the same Fig. 2a dwell count.

use st_des::SimTime;
use st_mac::pdu::CellId;
use st_mac::timing::TxBeamIndex;
use st_phy::codebook::{AdjacentBeams, BeamId, Codebook};
use st_phy::units::Dbm;

use crate::wire;

/// A detected neighbor-cell beam.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Discovery {
    pub cell: CellId,
    pub tx_beam: TxBeamIndex,
    pub rx_beam: BeamId,
    pub rss: Dbm,
    pub at: SimTime,
}

impl Discovery {
    pub(crate) fn encode<B: bytes::BufMut>(&self, buf: &mut B) {
        let Self {
            cell,
            tx_beam,
            rx_beam,
            rss,
            at,
        } = *self;
        buf.put_u16(cell.0);
        buf.put_u16(tx_beam);
        buf.put_u16(rx_beam.0);
        wire::put_f64(buf, rss.0);
        wire::put_time(buf, at);
    }
}

/// Outcome of completing one dwell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SearchStep {
    /// Keep searching; dwell on this receive beam next.
    Continue(BeamId),
    /// A neighbor beam was found.
    Found(Discovery),
    /// Dwell budget exhausted without a detection.
    Failed { dwells_used: usize },
}

/// Controller for one search pass.
///
/// Holds no reference to the codebook: the dwell order is a pure function
/// of (codebook size, hint), computed element by element, and the
/// refinement queue of (codebook, detected beam), so the codebook is
/// passed into [`SearchController::on_dwell_complete`] instead of being
/// captured — which keeps the controller a plain value inside the
/// protocol state.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchController {
    hint: BeamId,
    /// Codebook size: the length of the dwell order.
    beams: usize,
    /// Position in the dwell order, always below `beams`.
    pos: usize,
    dwells_used: usize,
    max_dwells: usize,
    /// Best detection seen in the current dwell.
    pending: Option<Discovery>,
    /// Refinement state once the sweep has detected something: the best
    /// discovery so far and the remaining adjacent beams to try.
    refine: Option<Refinement>,
}

#[derive(Debug, Clone, PartialEq)]
struct Refinement {
    best: Discovery,
    queue: AdjacentBeams,
    next: usize,
}

/// Element `pos` of the spiral dwell order over `beams` beams: the hint,
/// then alternating +1, −1, +2, −2, … beams away around the circle (with
/// an even count, the opposite beam once). Needs `hint < beams` and
/// `pos < beams`, so each step is below `beams` and one comparison
/// wraps it.
fn spiral_beam(hint: BeamId, beams: usize, pos: usize) -> BeamId {
    let hint = usize::from(hint.0);
    let step = pos.div_ceil(2);
    let idx = if pos % 2 == 1 {
        let up = hint + step;
        if up >= beams {
            up - beams
        } else {
            up
        }
    } else if hint >= step {
        hint - step
    } else {
        hint + beams - step
    };
    BeamId(idx as u16)
}

impl SearchController {
    /// Start a search. `hint` biases the dwell order (e.g. the serving
    /// receive beam, or the last-known neighbor beam on re-acquisition).
    pub fn new(codebook: &Codebook, hint: BeamId, max_dwells: usize) -> SearchController {
        assert!(max_dwells >= 1);
        assert!((hint.0 as usize) < codebook.len(), "hint outside codebook");
        SearchController {
            hint,
            beams: codebook.len(),
            pos: 0,
            dwells_used: 0,
            max_dwells,
            pending: None,
            refine: None,
        }
    }

    /// The receive beam to dwell on now.
    pub fn current_beam(&self) -> BeamId {
        if let Some(r) = &self.refine {
            return r.queue[r.next.min(r.queue.len() - 1)];
        }
        spiral_beam(self.hint, self.beams, self.pos)
    }

    /// Dwells consumed so far (the Fig. 2a latency metric).
    pub fn dwells_used(&self) -> usize {
        self.dwells_used
    }

    /// Record an SSB detection heard during the current dwell.
    pub fn on_detection(&mut self, d: Discovery) {
        debug_assert_eq!(d.rx_beam, self.current_beam(), "detection on wrong beam");
        if let Some(r) = &mut self.refine {
            if d.rss.0 > r.best.rss.0 {
                r.best = d;
            }
            return;
        }
        match self.pending {
            Some(prev) if prev.rss.0 >= d.rss.0 => {}
            _ => self.pending = Some(d),
        }
    }

    /// Close the current dwell (one SSB burst period elapsed).
    pub fn on_dwell_complete(&mut self, codebook: &Codebook) -> SearchStep {
        self.dwells_used += 1;
        if let Some(r) = &mut self.refine {
            // One refinement dwell done; move to the next adjacent beam,
            // or finish with the strongest discovery.
            r.next += 1;
            if r.next < r.queue.len() {
                return SearchStep::Continue(self.current_beam());
            }
            return SearchStep::Found(self.refine.take().unwrap().best);
        }
        if let Some(found) = self.pending.take() {
            let queue = codebook.adjacent(found.rx_beam);
            if queue.is_empty() {
                // Omni-style codebook: nothing to refine against.
                return SearchStep::Found(found);
            }
            self.refine = Some(Refinement {
                best: found,
                queue,
                next: 0,
            });
            return SearchStep::Continue(self.current_beam());
        }
        if self.dwells_used >= self.max_dwells {
            return SearchStep::Failed {
                dwells_used: self.dwells_used,
            };
        }
        self.pos += 1;
        if self.pos == self.beams {
            self.pos = 0;
        }
        SearchStep::Continue(self.current_beam())
    }

    /// Canonical binary encoding. Only the hint and the position are
    /// written for the dwell order, and only the detected beam for the
    /// refinement queue: the rest of each is a function of the codebook,
    /// which the protocol context carries.
    pub(crate) fn encode<B: bytes::BufMut>(&self, buf: &mut B) {
        let Self {
            hint,
            // The codebook's size.
            beams: _,
            pos,
            dwells_used,
            max_dwells,
            pending,
            refine,
        } = self;
        buf.put_u16(hint.0);
        wire::put_varu64(buf, *pos as u64);
        wire::put_varu64(buf, *dwells_used as u64);
        wire::put_varu64(buf, *max_dwells as u64);
        match pending {
            None => buf.put_u8(0),
            Some(d) => {
                buf.put_u8(1);
                d.encode(buf);
            }
        }
        match refine {
            None => buf.put_u8(0),
            Some(Refinement {
                best,
                // The codebook's neighbors of `best.rx_beam`.
                queue: _,
                next,
            }) => {
                buf.put_u8(1);
                best.encode(buf);
                wire::put_varu64(buf, *next as u64);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_phy::codebook::BeamwidthClass;

    fn narrow() -> Codebook {
        Codebook::for_class(BeamwidthClass::Narrow)
    }

    /// The whole spiral dwell order, built by walking the circle: the
    /// reference [`spiral_beam`] computes element by element.
    fn spiral_order(codebook: &Codebook, hint: BeamId) -> Vec<BeamId> {
        let n = codebook.len() as i64;
        let mut order = Vec::with_capacity(n as usize);
        order.push(hint);
        for step in 1..=(n / 2) {
            for sign in [1i64, -1] {
                let idx = (hint.0 as i64 + sign * step).rem_euclid(n);
                let id = BeamId(idx as u16);
                if !order.contains(&id) {
                    order.push(id);
                }
            }
        }
        debug_assert_eq!(order.len(), n as usize);
        order
    }

    #[test]
    fn spiral_beam_is_the_spiral_order_element_by_element() {
        for n in 1..=40 {
            let cb = Codebook::uniform_sectored(n, st_phy::geometry::Degrees(60.0));
            assert_eq!(cb.len(), n);
            for hint in cb.ids() {
                let order = spiral_order(&cb, hint);
                let closed: Vec<BeamId> = (0..n).map(|pos| spiral_beam(hint, n, pos)).collect();
                assert_eq!(closed, order, "{n} beams, hint {hint}");
            }
        }
    }

    fn disc(rx: BeamId, rss: f64) -> Discovery {
        Discovery {
            cell: CellId(2),
            tx_beam: 4,
            rx_beam: rx,
            rss: Dbm(rss),
            at: SimTime::ZERO,
        }
    }

    #[test]
    fn spiral_starts_at_hint_and_covers_all() {
        let cb = narrow();
        let order = spiral_order(&cb, BeamId(5));
        assert_eq!(order[0], BeamId(5));
        assert_eq!(order[1], BeamId(6));
        assert_eq!(order[2], BeamId(4));
        assert_eq!(order.len(), 18);
        let unique: std::collections::HashSet<_> = order.iter().collect();
        assert_eq!(unique.len(), 18);
    }

    #[test]
    fn spiral_wraps_around_circle() {
        let cb = narrow();
        let order = spiral_order(&cb, BeamId(0));
        assert_eq!(order[1], BeamId(1));
        assert_eq!(order[2], BeamId(17));
    }

    #[test]
    fn detection_triggers_refinement_then_found() {
        let cb = narrow();
        let mut s = SearchController::new(&cb, BeamId(3), 40);
        // Two dwells with nothing.
        assert!(matches!(s.on_dwell_complete(&cb), SearchStep::Continue(_)));
        assert!(matches!(s.on_dwell_complete(&cb), SearchStep::Continue(_)));
        // Detection mid-dwell is only acted on at the boundary, and then
        // kicks off one refinement dwell per adjacent beam (P3 sweep).
        let beam = s.current_beam();
        s.on_detection(disc(beam, -68.0));
        let adjacent = cb.adjacent(beam);
        match s.on_dwell_complete(&cb) {
            SearchStep::Continue(b) => assert_eq!(b, adjacent[0]),
            other => panic!("expected refinement dwell, got {other:?}"),
        }
        // No refinement detections: the original discovery wins.
        assert!(matches!(s.on_dwell_complete(&cb), SearchStep::Continue(b) if b == adjacent[1]));
        match s.on_dwell_complete(&cb) {
            SearchStep::Found(d) => {
                assert_eq!(d.rx_beam, beam);
                assert_eq!(d.rss, Dbm(-68.0));
            }
            other => panic!("expected Found, got {other:?}"),
        }
        assert_eq!(s.dwells_used(), 5);
    }

    #[test]
    fn refinement_acquires_the_stronger_adjacent_beam() {
        let cb = narrow();
        let mut s = SearchController::new(&cb, BeamId(3), 40);
        let beam = s.current_beam();
        s.on_detection(disc(beam, -72.0));
        // First refinement dwell: the adjacent beam is 6 dB stronger
        // (the sweep caught the edge of the main lobe, not its center).
        let SearchStep::Continue(adj) = s.on_dwell_complete(&cb) else {
            panic!("expected refinement dwell");
        };
        s.on_detection(disc(adj, -66.0));
        assert!(matches!(s.on_dwell_complete(&cb), SearchStep::Continue(_)));
        match s.on_dwell_complete(&cb) {
            SearchStep::Found(d) => {
                assert_eq!(d.rx_beam, adj);
                assert_eq!(d.rss, Dbm(-66.0));
            }
            other => panic!("expected Found, got {other:?}"),
        }
    }

    #[test]
    fn strongest_detection_wins_within_dwell() {
        let cb = narrow();
        let mut s = SearchController::new(&cb, BeamId(0), 10);
        let beam = s.current_beam();
        s.on_detection(disc(beam, -75.0));
        s.on_detection(disc(beam, -65.0));
        s.on_detection(disc(beam, -70.0));
        // Ride through the two empty refinement dwells.
        assert!(matches!(s.on_dwell_complete(&cb), SearchStep::Continue(_)));
        assert!(matches!(s.on_dwell_complete(&cb), SearchStep::Continue(_)));
        match s.on_dwell_complete(&cb) {
            SearchStep::Found(d) => assert_eq!(d.rss, Dbm(-65.0)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn budget_exhaustion_fails() {
        let cb = narrow();
        let mut s = SearchController::new(&cb, BeamId(0), 5);
        for _ in 0..4 {
            assert!(matches!(s.on_dwell_complete(&cb), SearchStep::Continue(_)));
        }
        assert_eq!(
            s.on_dwell_complete(&cb),
            SearchStep::Failed { dwells_used: 5 }
        );
    }

    #[test]
    fn wraps_past_codebook_size() {
        let cb = Codebook::for_class(BeamwidthClass::Wide); // 6 beams
        let mut s = SearchController::new(&cb, BeamId(0), 20);
        let mut seen = Vec::new();
        for _ in 0..12 {
            seen.push(s.current_beam());
            s.on_dwell_complete(&cb);
        }
        // After 6 dwells the order repeats.
        assert_eq!(&seen[..6], &seen[6..12]);
    }

    #[test]
    fn omni_codebook_single_dwell_order() {
        let cb = Codebook::for_class(BeamwidthClass::Omni);
        let mut s = SearchController::new(&cb, BeamId(0), 3);
        assert_eq!(s.current_beam(), BeamId(0));
        assert!(matches!(s.on_dwell_complete(&cb), SearchStep::Continue(b) if b == BeamId(0)));
    }

    #[test]
    #[should_panic(expected = "hint outside codebook")]
    fn bad_hint_panics() {
        SearchController::new(&Codebook::for_class(BeamwidthClass::Wide), BeamId(9), 5);
    }
}
