//! Bounded in-memory event trace.
//!
//! Scenario runs record protocol milestones (beam switches, state
//! transitions, handover events) into a [`Trace`]; tests assert on the
//! sequence, the determinism test compares two runs entry-by-entry, and
//! examples pretty-print it. Capacity-bounded so multi-minute runs cannot
//! exhaust memory.

use crate::time::SimTime;
use std::collections::VecDeque;
use std::fmt;

/// Severity/category of a trace entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceLevel {
    /// Fine-grained periodic activity (per-SSB measurements).
    Debug,
    /// Protocol milestones (beam switch, state transition).
    Info,
    /// Degradations (lost assistance, failed RACH attempt).
    Warn,
    /// Link failures, hard handovers.
    Error,
}

/// One timestamped trace entry.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEntry {
    pub at: SimTime,
    pub level: TraceLevel,
    pub message: String,
}

impl fmt::Display for TraceEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:>10}] {:5?} {}", self.at, self.level, self.message)
    }
}

/// A bounded ring of trace entries.
#[derive(Debug, Clone)]
pub struct Trace {
    entries: VecDeque<TraceEntry>,
    capacity: usize,
    dropped: u64,
    /// Entries below this level are discarded at record time.
    pub min_level: TraceLevel,
}

impl Default for Trace {
    fn default() -> Self {
        Trace::bounded(65_536)
    }
}

impl Trace {
    /// An empty trace that keeps at most `capacity` entries, evicting the
    /// oldest. Nothing is reserved up front: a trial records a handful of
    /// milestones.
    pub fn bounded(capacity: usize) -> Trace {
        Trace {
            entries: VecDeque::new(),
            capacity,
            dropped: 0,
            min_level: TraceLevel::Debug,
        }
    }

    pub fn record(&mut self, at: SimTime, level: TraceLevel, message: impl Into<String>) {
        if level < self.min_level {
            return;
        }
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
            self.dropped += 1;
        }
        self.entries.push_back(TraceEntry {
            at,
            level,
            message: message.into(),
        });
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries evicted due to the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    pub fn iter(&self) -> impl Iterator<Item = &TraceEntry> {
        self.entries.iter()
    }

    /// All entries at or above `level`.
    pub fn at_level(&self, level: TraceLevel) -> impl Iterator<Item = &TraceEntry> {
        self.entries.iter().filter(move |e| e.level >= level)
    }

    /// First entry whose message contains `needle`.
    pub fn find(&self, needle: &str) -> Option<&TraceEntry> {
        self.entries.iter().find(|e| e.message.contains(needle))
    }

    /// Count of entries whose message contains `needle`.
    pub fn count(&self, needle: &str) -> usize {
        self.entries
            .iter()
            .filter(|e| e.message.contains(needle))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn records_in_order() {
        let mut tr = Trace::default();
        tr.record(at(1), TraceLevel::Info, "a");
        tr.record(at(2), TraceLevel::Warn, "b");
        assert_eq!(tr.len(), 2);
        let msgs: Vec<&str> = tr.iter().map(|e| e.message.as_str()).collect();
        assert_eq!(msgs, vec!["a", "b"]);
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut tr = Trace::bounded(3);
        for i in 0..5 {
            tr.record(at(i), TraceLevel::Info, format!("m{i}"));
        }
        assert_eq!(tr.len(), 3);
        assert_eq!(tr.dropped(), 2);
        assert_eq!(tr.iter().next().unwrap().message, "m2");
    }

    #[test]
    fn level_filtering() {
        let mut tr = Trace {
            min_level: TraceLevel::Info,
            ..Trace::default()
        };
        tr.record(at(1), TraceLevel::Debug, "noise");
        tr.record(at(2), TraceLevel::Error, "bad");
        assert_eq!(tr.len(), 1);
        assert_eq!(tr.at_level(TraceLevel::Warn).count(), 1);
    }

    #[test]
    fn find_and_count() {
        let mut tr = Trace::default();
        tr.record(at(1), TraceLevel::Info, "beam switch to b3");
        tr.record(at(2), TraceLevel::Info, "beam switch to b4");
        tr.record(at(3), TraceLevel::Info, "handover complete");
        assert_eq!(tr.count("beam switch"), 2);
        assert_eq!(tr.find("handover").unwrap().at, at(3));
        assert!(tr.find("nonexistent").is_none());
    }

    #[test]
    fn display_formats() {
        let e = TraceEntry {
            at: at(5),
            level: TraceLevel::Info,
            message: "hello".into(),
        };
        let s = format!("{e}");
        assert!(s.contains("hello") && s.contains("5.000 ms"));
    }
}
