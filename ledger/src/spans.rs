//! Span recorder for the traced run: `name, start_ns, end_ns, parent,
//! id`, kept in memory and written once at exit.
//!
//! Spans are recorded from the ledger's own files, around its calls into
//! each layer; spans inside the program under test are a later change
//! (ROADMAP item 5). A disabled recorder hands out id 0 and stores
//! nothing, which is what every untraced run uses.

use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;

use crate::sys::now_ns;

struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: u64,
}

/// See the module docs. Ids are 1-based; 0 means "no span".
pub struct Spans {
    enabled: bool,
    spans: Mutex<Vec<Span>>,
}

impl Spans {
    /// A recorder that records (`true`) or ignores everything.
    pub fn new(enabled: bool) -> Spans {
        Spans { enabled, spans: Mutex::new(Vec::new()) }
    }

    fn push(&self, span: Span) -> u64 {
        if !self.enabled {
            return 0;
        }
        // Spans are plain values; a poisoned lock still holds valid data.
        let mut spans = self.spans.lock().unwrap_or_else(|e| e.into_inner());
        spans.push(span);
        spans.len() as u64
    }

    /// Start a span now; returns its id.
    pub fn open(&self, name: &str, parent: u64) -> u64 {
        self.push(Span { name: name.to_string(), start_ns: now_ns(), end_ns: 0, parent })
    }

    /// End span `id` now (no-op for id 0).
    pub fn close(&self, id: u64) {
        if id == 0 {
            return;
        }
        let mut spans = self.spans.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(s) = spans.get_mut(id as usize - 1) {
            s.end_ns = now_ns();
        }
    }

    /// Record a span whose times were measured elsewhere (a worker's
    /// packet stamps, on the same machine-wide clock).
    pub fn add(&self, name: &str, parent: u64, start_ns: u64, end_ns: u64) -> u64 {
        self.push(Span { name: name.to_string(), start_ns, end_ns, parent })
    }

    /// Number of spans held.
    pub fn len(&self) -> usize {
        self.spans.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Write one JSON object per line. A span left open (its launch
    /// failed) has `end_ns` 0.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                i + 1,
                s.parent,
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_stores_nothing() {
        let s = Spans::new(false);
        let id = s.open("x", 0);
        s.close(id);
        assert_eq!((id, s.len()), (0, 0));
    }

    #[test]
    fn spans_nest_and_serialise() {
        let s = Spans::new(true);
        let root = s.open("root", 0);
        let child = s.open("child", root);
        s.close(child);
        s.close(root);
        let packet = s.add("packet", root, 10, 20);
        assert_eq!((root, child, packet), (1, 2, 3));
        let path = std::env::temp_dir().join(format!("ledger-spans-{}.jsonl", std::process::id()));
        s.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[1].contains("\"parent\": 1") && lines[1].contains("\"name\": \"child\""));
        assert!(lines[2].ends_with("\"start_ns\": 10, \"end_ns\": 20}"));
    }
}
