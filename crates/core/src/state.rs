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

/// Protocol macro-states (Fig. 2b nodes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrackerState {
    /// Edge Operation.
    Eo,
    /// Serving-cell receive beam adaptation.
    SRba,
    /// Cell-assisted beam management.
    Cabm,
    /// Neighbor-cell acquisition / re-acquisition.
    NAr,
    /// Neighbor-cell receive beam adaptation.
    NRba,
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

/// Edge labels (Fig. 2b arrows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Edge {
    /// Serving connectivity stable (ΔRSS < 3 dB): return to EO.
    A,
    /// Initiate neighbor cell beam search.
    B,
    /// Found a neighbor cell beam.
    C,
    /// Lost the tracked neighbor beam (ΔRSS > 10 dB): re-acquire.
    D,
    /// Handover trigger: RSS_N > RSS_S + T (or serving link lost with a
    /// tracked neighbor available).
    E,
    /// Cell-assisted adaptation: serving BS switches its transmit beam.
    F,
    /// Cell assistance delayed or lost: fall back to mobile-side S-RBA.
    G,
    /// Neighbor RSS dropped 3 dB: adapt the neighbor receive beam.
    H,
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

impl TrackerState {
    pub(crate) fn to_wire(self) -> u8 {
        match self {
            TrackerState::Eo => 0,
            TrackerState::SRba => 1,
            TrackerState::Cabm => 2,
            TrackerState::NAr => 3,
            TrackerState::NRba => 4,
        }
    }

    pub(crate) fn from_wire(v: u8) -> Result<TrackerState, crate::wire::WireError> {
        Ok(match v {
            0 => TrackerState::Eo,
            1 => TrackerState::SRba,
            2 => TrackerState::Cabm,
            3 => TrackerState::NAr,
            4 => TrackerState::NRba,
            _ => return Err(crate::wire::WireError::Corrupt("tracker state tag")),
        })
    }
}

impl Edge {
    pub(crate) fn to_wire(self) -> u8 {
        self as u8
    }

    pub(crate) fn from_wire(v: u8) -> Result<Edge, crate::wire::WireError> {
        use Edge::*;
        Ok(match v {
            0 => A,
            1 => B,
            2 => C,
            3 => D,
            4 => E,
            5 => F,
            6 => G,
            7 => H,
            _ => return Err(crate::wire::WireError::Corrupt("edge tag")),
        })
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
        crate::wire::put_varu64(buf, self.entries.len() as u64);
        for (at, tr) in &self.entries {
            crate::wire::put_time(buf, *at);
            buf.put_u8(tr.from.to_wire());
            buf.put_u8(tr.edge.to_wire());
            buf.put_u8(tr.to.to_wire());
        }
    }

    pub(crate) fn decode(buf: &mut &[u8]) -> Result<TransitionLog, crate::wire::WireError> {
        use crate::wire::{get_time, get_u8, get_varu64, WireError};
        let n = get_varu64(buf)? as usize;
        let mut entries = Vec::with_capacity(n.min(buf.len()));
        for _ in 0..n {
            let at = get_time(buf)?;
            let tr = Transition {
                from: TrackerState::from_wire(get_u8(buf)?)?,
                edge: Edge::from_wire(get_u8(buf)?)?,
                to: TrackerState::from_wire(get_u8(buf)?)?,
            };
            if !tr.is_legal() {
                return Err(WireError::Corrupt("illegal transition in log"));
            }
            entries.push((at, tr));
        }
        Ok(TransitionLog { entries })
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
    fn wire_tags_round_trip() {
        for s in [Eo, SRba, Cabm, NAr, NRba] {
            assert_eq!(TrackerState::from_wire(s.to_wire()), Ok(s));
        }
        for e in [
            Edge::A,
            Edge::B,
            Edge::C,
            Edge::D,
            Edge::E,
            Edge::F,
            Edge::G,
            Edge::H,
        ] {
            assert_eq!(Edge::from_wire(e.to_wire()), Ok(e));
        }
        assert!(TrackerState::from_wire(9).is_err());
        assert!(Edge::from_wire(8).is_err());
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
