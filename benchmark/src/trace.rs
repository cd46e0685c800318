//! In-memory spans around the calls the harness makes into each layer.
//!
//! Every timed call goes through [`Tracer::time`] whether or not tracing is
//! on, so a traced and an untraced run execute the same code; tracing only
//! adds the push of one [`Span`]. Spans are written out once, at exit.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Identifier shared by the spans of one operation (query, deploy, cell).
    pub op: u64,
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    recording: bool,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(recording: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            recording,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Switches span recording; timing is unaffected. Lets a traced run time
    /// the same operations with and without recording for
    /// `trace.overhead_pct`.
    pub fn set_recording(&mut self, recording: bool) {
        self.recording = recording;
    }

    pub fn recording(&self) -> bool {
        self.recording
    }

    /// Runs `f` and returns its result with the milliseconds it took,
    /// recording a leaf span under the innermost open scope.
    pub fn time<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        if self.recording {
            self.spans.push(Span {
                name,
                start_us: (start - self.epoch).as_secs_f64() * 1e6,
                end_us: (end - self.epoch).as_secs_f64() * 1e6,
                parent: self.open.last().copied(),
                op,
            });
        }
        (out, (end - start).as_secs_f64() * 1e3)
    }

    /// Opens a scope: spans recorded until the matching [`Tracer::exit`]
    /// name it as their parent.
    pub fn enter(&mut self, name: &'static str, op: u64) {
        if self.recording {
            let now = self.epoch.elapsed().as_secs_f64() * 1e6;
            self.spans.push(Span {
                name,
                start_us: now,
                end_us: now,
                parent: self.open.last().copied(),
                op,
            });
            self.open.push(self.spans.len() - 1);
        }
    }

    /// Closes the innermost scope.
    pub fn exit(&mut self) {
        if let Some(idx) = self.open.pop() {
            self.spans[idx].end_us = self.epoch.elapsed().as_secs_f64() * 1e6;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span to `path`, creating its directory.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let line = Json::obj([
                ("id", Json::Num(id as f64)),
                ("name", Json::Str(s.name.to_string())),
                ("start_us", Json::Num(s.start_us)),
                ("end_us", Json::Num(s.end_us)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("op", Json::Num(s.op as f64)),
            ]);
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_the_open_scope() {
        let mut t = Tracer::new(true);
        t.enter("outer", 7);
        let (v, ms) = t.time("inner", 7, || {
            std::thread::sleep(std::time::Duration::from_millis(5));
            3
        });
        t.exit();
        assert_eq!(v, 3);
        assert!(ms >= 5.0);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        assert!(spans[0].start_us <= spans[1].start_us && spans[1].end_us <= spans[0].end_us);
        assert!((spans[1].end_us - spans[1].start_us) / 1e3 >= 5.0);
    }

    #[test]
    fn nothing_is_recorded_when_off() {
        let mut t = Tracer::new(false);
        t.enter("outer", 1);
        let (_, ms) = t.time("inner", 1, || 1 + 1);
        t.exit();
        assert!(ms >= 0.0);
        assert!(t.spans().is_empty());
    }
}
