//! Spans recorded by the harness around its calls into the program: kept in
//! memory during the run, written out once at exit.

use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// Parent of a root span.
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
    /// Measured round the span belongs to (probes use the round after the
    /// last).
    pub round: u32,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.ns_at(Instant::now())
    }

    /// `at` on the trace's clock: nanoseconds since the tracer was made.
    pub fn ns_at(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn spans(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        // A panicking client thread already failed the run; the spans it
        // left behind are still well-formed.
        self.spans.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Opens a span now and returns its index, for children to name as
    /// parent; [`Tracer::close`] stamps its end.
    pub fn open(&self, name: &'static str, parent: u32, round: u32) -> u32 {
        let start_ns = self.now_ns();
        let mut spans = self.spans();
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            round,
        });
        (spans.len() - 1) as u32
    }

    pub fn close(&self, id: u32) {
        let end_ns = self.now_ns();
        if let Some(s) = self.spans().get_mut(id as usize) {
            s.end_ns = end_ns;
        }
    }

    /// Adds the finished spans a client thread collected locally.
    pub fn extend(&self, batch: Vec<Span>) {
        self.spans().extend(batch);
    }

    pub fn len(&self) -> usize {
        self.spans().len()
    }

    /// Writes every span as one JSON document. Spans are rows of
    /// `columns`, with `name` an index into `names`; a client op per row
    /// keeps a 400k-read round readable by a script without being 100 MB.
    pub fn write_json(
        &self,
        mut out: impl Write,
        workload: &str,
        seed: u64,
    ) -> std::io::Result<()> {
        let spans = self.spans();
        let mut names: Vec<&'static str> = Vec::new();
        write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"columns\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"round\"],\"spans\":["
        )?;
        for (i, s) in spans.iter().enumerate() {
            let name = match names.iter().position(|&n| n == s.name) {
                Some(p) => p,
                None => {
                    names.push(s.name);
                    names.len() - 1
                }
            };
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            let sep = if i == 0 { "" } else { "," };
            write!(
                out,
                "{sep}\n[{name},{},{},{parent},{}]",
                s.start_ns, s.end_ns, s.round
            )?;
        }
        write!(out, "\n],\"names\":[")?;
        for (i, n) in names.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            write!(out, "{sep}\"{n}\"")?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    #[test]
    fn spans_nest_and_serialise() {
        let t = Tracer::new();
        let root = t.open("round", NO_PARENT, 0);
        let phase = t.open("write", root, 0);
        t.extend(vec![Span {
            name: "write_block",
            start_ns: 5,
            end_ns: 9,
            parent: phase,
            round: 0,
        }]);
        t.close(phase);
        t.close(root);
        assert_eq!(t.len(), 3);
        let mut text = Vec::new();
        t.write_json(&mut text, "w", 3).unwrap();
        let doc = crate::json::parse(std::str::from_utf8(&text).unwrap()).unwrap();
        let (Some(Value::Array(spans)), Some(Value::Array(names))) =
            (doc.get("spans"), doc.get("names"))
        else {
            panic!("no spans or names in {doc:?}");
        };
        let row = |i: usize| match &spans[i] {
            Value::Array(cells) => cells
                .iter()
                .map(|c| c.as_f64().unwrap())
                .collect::<Vec<_>>(),
            other => panic!("span {i} is {other:?}"),
        };
        assert_eq!(spans.len(), 3);
        assert_eq!(row(2), [2.0, 5.0, 9.0, f64::from(phase), 0.0]);
        assert_eq!(row(0)[3], -1.0);
        assert_eq!(names[2], Value::String("write_block".into()));
    }
}
