//! Driver-side spans of a traced run, kept in memory and written as
//! `trace.jsonl` when the run ends. Spans inside the engines are a later
//! change; these wrap the calls into each layer from outside.

use std::fmt::Write as _;
use std::path::Path;

use crate::driver::Rec;

/// Request spans are written for this many requests of the fixed-rate phase
/// (2 s at 5 000 rps) — enough to compute self times, small enough that a
/// series of traced runs does not fill the disk.
const MAX_REQUEST_SPANS: usize = 10_000;

struct Span {
    name: String,
    start: u64,
    end: u64,
    parent: Option<usize>,
    request: Option<usize>,
}

/// The spans of one run. Disabled (untraced run): every call is a no-op.
pub struct Spans {
    enabled: bool,
    spans: Vec<Span>,
}

impl Spans {
    /// A span store that records only when `enabled`.
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            spans: Vec::new(),
        }
    }

    /// Records a finished span and returns its id, for use as a parent.
    pub fn push(&mut self, name: &str, start: u64, end: u64, parent: Option<usize>) -> usize {
        self.push_span(name, start, end, parent, None)
    }

    fn push_span(
        &mut self,
        name: &str,
        start: u64,
        end: u64,
        parent: Option<usize>,
        request: Option<usize>,
    ) -> usize {
        if self.enabled {
            self.spans.push(Span {
                name: name.to_owned(),
                start,
                end,
                parent,
                request,
            });
        }
        self.spans.len().saturating_sub(1)
    }

    /// Per request: `request` (due → seen complete, id = sequence number)
    /// with children `submit` (the `call_async` call) and `await` (returned
    /// → seen complete). The time between due and `submit` is the
    /// generator's lateness and is `request`'s self time.
    pub fn push_requests(&mut self, recs: &[Rec]) {
        for (seq, r) in recs.iter().enumerate().take(MAX_REQUEST_SPANS) {
            if r.done == 0 {
                continue;
            }
            let parent = self.push_span("request", r.due, r.done, None, Some(seq));
            self.push_span("submit", r.issue, r.submitted, Some(parent), Some(seq));
            self.push_span("await", r.submitted, r.done, Some(parent), Some(seq));
        }
    }

    /// Writes one JSON object per span. Times are nanoseconds since the
    /// start of the run.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if !self.enabled {
            return Ok(());
        }
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
                s.name, s.start, s.end
            );
            if let Some(p) = s.parent {
                let _ = write!(out, ",\"parent\":{p}");
            }
            if let Some(r) = s.request {
                let _ = write!(out, ",\"request\":{r}");
            }
            out.push_str("}\n");
        }
        std::fs::write(path, out)
    }
}
