//! The Silent Tracker state machine of Fig. 2b: states, edges, and the
//! legal-transition relation.
//!
//! States:
//!
//! * **EO** — Edge Operation: serving link healthy (ΔRSS < 3 dB), and, at
//!   cell edge, silently maintaining whatever neighbor beam is tracked.
//! * **S-RBA** — Serving-cell Receive Beam Adaptation: serving RSS fell
//!   ≥ 3 dB; the mobile switches to a directionally adjacent receive beam.
//! * **CABM** — Cell-Assisted Beam Management: mobile-side adjustment no
//!   longer suffices; the serving base station is asked to switch its
//!   transmit beam.
//! * **N-A/R** — Neighbor-cell Acquisition / Re-acquisition: directional
//!   search for a neighbor cell transmit beam.
//! * **N-RBA** — Neighbor-cell Receive Beam Adaptation: a found neighbor
//!   beam is maintained *silently* (receive-side only).
//!
//! The edge labels follow the figure: A (serving stable), B (initiate
//! search), C (found beam), D (lost beam, ΔRSS > 10 dB), E (handover
//! trigger RSS_N > RSS_S + T), F (cell assistance arrives), G (assistance
//! delayed/lost), H (neighbor ΔRSS > 3 dB).
//!
//! The machine is deliberately *declarative*: [`Transition::is_legal`]
//! encodes exactly the arrows of Fig. 2b, and the driver in
//! `tracker.rs` asserts every transition against it (debug builds), so a
//! protocol bug that invents an arrow fails loudly in tests.

use std::fmt;

/// Protocol macro-states (Fig. 2b nodes). The discriminants are the
/// states' wire tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrackerState {
    /// Edge Operation.
    Eo = 0,
    /// Serving-cell receive beam adaptation.
    SRba = 1,
    /// Cell-assisted beam management.
    Cabm = 2,
    /// Neighbor-cell acquisition / re-acquisition.
    NAr = 3,
    /// Neighbor-cell receive beam adaptation.
    NRba = 4,
}

impl fmt::Display for TrackerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TrackerState::Eo => "EO",
            TrackerState::SRba => "S-RBA",
            TrackerState::Cabm => "CABM",
            TrackerState::NAr => "N-A/R",
            TrackerState::NRba => "N-RBA",
        };
        write!(f, "{s}")
    }
}

/// Edge labels (Fig. 2b arrows). The discriminants are the edges' wire
/// tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Edge {
    /// Serving connectivity stable (ΔRSS < 3 dB): return to EO.
    A = 0,
    /// Initiate neighbor cell beam search.
    B = 1,
    /// Found a neighbor cell beam.
    C = 2,
    /// Lost the tracked neighbor beam (ΔRSS > 10 dB): re-acquire.
    D = 3,
    /// Handover trigger: RSS_N > RSS_S + T (or serving link lost with a
    /// tracked neighbor available).
    E = 4,
    /// Cell-assisted adaptation: serving BS switches its transmit beam.
    F = 5,
    /// Cell assistance delayed or lost: fall back to mobile-side S-RBA.
    G = 6,
    /// Neighbor RSS dropped 3 dB: adapt the neighbor receive beam.
    H = 7,
}

impl fmt::Display for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// One observed transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    pub from: TrackerState,
    pub edge: Edge,
    pub to: TrackerState,
}

/// The Fig. 2b arrows as an explicit table — *the* definition of the
/// machine, which both [`Transition::is_legal`] and the protocol fold in
/// [`crate::machine`] are checked against.
///
/// Serving-side loop: EO →(G)→ S-RBA →(A)→ EO; S-RBA →(G)→ CABM
/// (escalation when mobile-side no longer suffices); CABM →(F)→ EO
/// (assistance arrived), CABM →(G)→ S-RBA (assistance delayed/lost).
///
/// Neighbor-side loop: EO →(B)→ N-A/R →(C)→ N-RBA; N-RBA →(H)→ N-RBA
/// (adjacent-beam switch); N-RBA →(D)→ N-A/R (beam lost); N-RBA
/// →(E)→ EO (handover executed; the target becomes the serving cell).
/// N-A/R →(A)→ EO covers abandoning a failed search pass.
pub const TRANSITION_TABLE: [Transition; 11] = {
    use Edge::*;
    use TrackerState::*;
    const fn t(from: TrackerState, edge: Edge, to: TrackerState) -> Transition {
        Transition { from, edge, to }
    }
    [
        // Serving loop (BeamSurfer).
        t(Eo, G, SRba),
        t(SRba, A, Eo),
        t(SRba, G, Cabm),
        t(Cabm, F, Eo),
        t(Cabm, G, SRba),
        // Neighbor loop (silent tracking).
        t(Eo, B, NAr),
        t(NAr, C, NRba),
        t(NAr, A, Eo),
        t(NRba, H, NRba),
        t(NRba, D, NAr),
        t(NRba, E, Eo),
    ]
};

impl Transition {
    /// The legal-transition relation of Fig. 2b: membership in
    /// [`TRANSITION_TABLE`].
    pub fn is_legal(self) -> bool {
        TRANSITION_TABLE.contains(&self)
    }

    /// All legal transitions (for exhaustive property tests).
    pub fn all_legal() -> Vec<Transition> {
        TRANSITION_TABLE.to_vec()
    }
}

/// A bounded log of transitions with timestamps, for tests and traces.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TransitionLog {
    entries: Vec<(st_des::SimTime, Transition)>,
}

impl TransitionLog {
    pub fn push(&mut self, at: st_des::SimTime, tr: Transition) {
        debug_assert!(tr.is_legal(), "illegal transition {tr:?} at {at}");
        self.entries.push((at, tr));
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = &(st_des::SimTime, Transition)> {
        self.entries.iter()
    }

    /// Count of transitions taking `edge`.
    pub fn count_edge(&self, edge: Edge) -> usize {
        self.entries.iter().filter(|(_, t)| t.edge == edge).count()
    }

    /// The chain is contiguous: each transition starts where the previous
    /// one ended.
    pub fn is_contiguous(&self) -> bool {
        self.entries.windows(2).all(|w| w[0].1.to == w[1].1.from)
    }

    pub(crate) fn encode<B: bytes::BufMut>(&self, buf: &mut B) {
        let Self { entries } = self;
        crate::wire::put_varu64(buf, entries.len() as u64);
        for (at, Transition { from, edge, to }) in entries {
            crate::wire::put_time(buf, *at);
            buf.put_u8(*from as u8);
            buf.put_u8(*edge as u8);
            buf.put_u8(*to as u8);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use TrackerState::*;

    #[test]
    fn figure_2b_arrows_are_legal() {
        let t = |from, edge, to| Transition { from, edge, to };
        assert!(t(Eo, Edge::G, SRba).is_legal());
        assert!(t(SRba, Edge::A, Eo).is_legal());
        assert!(t(SRba, Edge::G, Cabm).is_legal());
        assert!(t(Cabm, Edge::F, Eo).is_legal());
        assert!(t(Cabm, Edge::G, SRba).is_legal());
        assert!(t(Eo, Edge::B, NAr).is_legal());
        assert!(t(NAr, Edge::C, NRba).is_legal());
        assert!(t(NRba, Edge::H, NRba).is_legal());
        assert!(t(NRba, Edge::D, NAr).is_legal());
        assert!(t(NRba, Edge::E, Eo).is_legal());
    }

    #[test]
    fn invented_arrows_are_illegal() {
        let t = |from, edge, to| Transition { from, edge, to };
        // No direct EO → N-RBA without acquisition.
        assert!(!t(Eo, Edge::C, NRba).is_legal());
        // No handover out of search (nothing tracked yet).
        assert!(!t(NAr, Edge::E, Eo).is_legal());
        // CABM cannot jump to neighbor states.
        assert!(!t(Cabm, Edge::B, NAr).is_legal());
        // H is a self-loop only.
        assert!(!t(NRba, Edge::H, Eo).is_legal());
    }

    #[test]
    fn legal_set_size_is_exact() {
        assert_eq!(Transition::all_legal().len(), 11);
    }

    #[test]
    fn table_has_no_duplicate_arrows() {
        for (i, a) in TRANSITION_TABLE.iter().enumerate() {
            for b in &TRANSITION_TABLE[i + 1..] {
                assert_ne!(a, b, "duplicate arrow in TRANSITION_TABLE");
            }
        }
    }

    #[test]
    fn every_state_is_reachable_and_leavable() {
        let legal = Transition::all_legal();
        for s in [Eo, SRba, Cabm, NAr, NRba] {
            assert!(
                s == Eo || legal.iter().any(|t| t.to == s),
                "{s} unreachable"
            );
            assert!(legal.iter().any(|t| t.from == s), "{s} is a trap");
        }
    }

    #[test]
    fn log_contiguity() {
        let mut log = TransitionLog::default();
        let at = st_des::SimTime::ZERO;
        log.push(
            at,
            Transition {
                from: Eo,
                edge: Edge::B,
                to: NAr,
            },
        );
        log.push(
            at,
            Transition {
                from: NAr,
                edge: Edge::C,
                to: NRba,
            },
        );
        assert!(log.is_contiguous());
        assert_eq!(log.count_edge(Edge::C), 1);
        assert_eq!(log.len(), 2);
        log.push(
            at,
            Transition {
                from: Eo,
                edge: Edge::G,
                to: SRba,
            },
        );
        assert!(!log.is_contiguous());
    }

    #[test]
    fn display_names_match_figure() {
        assert_eq!(format!("{Eo}"), "EO");
        assert_eq!(format!("{SRba}"), "S-RBA");
        assert_eq!(format!("{Cabm}"), "CABM");
        assert_eq!(format!("{NAr}"), "N-A/R");
        assert_eq!(format!("{NRba}"), "N-RBA");
        assert_eq!(format!("{}", Edge::H), "H");
    }
}
