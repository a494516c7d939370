//! The benchmark's own spans around each public call into the program,
//! kept in memory and written out when the run ends. Spans inside the
//! program are not recorded; a call's span covers everything the
//! program does for it.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Index of an open or closed span.
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    /// Op index the span belongs to; `None` for set-up work.
    op: Option<u64>,
    parent: Option<SpanId>,
    start_ns: u64,
    end_ns: u64,
}

/// Span recorder; a disabled recorder takes no lock and keeps nothing.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    enabled: bool,
    spans: Mutex<Vec<Span>>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            origin: Instant::now(),
            enabled,
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(
        &self,
        name: &'static str,
        op: Option<u64>,
        parent: Option<SpanId>,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span recorder poisoned");
        spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        Some(spans.len() - 1)
    }

    pub fn close(&self, id: Option<SpanId>) {
        if let Some(id) = id {
            let end_ns = self.now_ns();
            self.spans.lock().expect("span recorder poisoned")[id].end_ns = end_ns;
        }
    }

    /// Run `f` inside a span named after the public call it makes.
    pub fn call<T>(
        &self,
        name: &'static str,
        op: Option<u64>,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, op, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Per-name span count, total seconds and self seconds (duration
    /// minus the time covered by child spans).
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let spans = self.spans.lock().expect("span recorder poisoned");
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (s, child) in spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur as f64 * 1e-9;
            e.2 += dur.saturating_sub(child) as f64 * 1e-9;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        let spans = self.spans.lock().expect("span recorder poisoned");
        for (id, s) in spans.iter().enumerate() {
            let op = s.op.map_or("null".to_string(), |o| o.to_string());
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                f,
                "{{\"id\": {id}, \"name\": \"{}\", \"op\": {op}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        f.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let spans = Spans::new(true);
        let root = spans.open("op", Some(0), None);
        spans.call("child", Some(0), root, || {
            std::thread::sleep(std::time::Duration::from_millis(20));
        });
        spans.close(root);
        let s = spans.summary();
        let (n, total, own) = s["op"];
        assert_eq!(n, 1);
        assert!(total >= 0.02, "{total}");
        assert!(own < total - 0.015, "self {own} of total {total}");
        assert_eq!(s["child"].0, 1);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let spans = Spans::new(false);
        assert_eq!(spans.call("op", None, None, || 7), 7);
        assert!(spans.summary().is_empty());
    }
}
