//! Benchmark-owned spans: recording, self time, and the per-layer sums.
//!
//! A span has a name, a start and end (nanoseconds since the run's
//! epoch), an optional parent, and the request it belongs to. Spans stay
//! in memory while the run lasts and are written out as JSON lines at the
//! end. A span's *self time* is its duration minus the part of it that its
//! children cover (overlapping children are counted once). The *layer* of
//! a span is its name up to the first `.`.

use std::collections::HashMap;
use std::io::Write;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Unique within a run.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Request the span belongs to.
    pub request: u64,
    /// `<layer>.<what>`.
    pub name: String,
    /// Start, nanoseconds since the epoch.
    pub start: u64,
    /// End, nanoseconds since the epoch.
    pub end: u64,
    /// Placed from a duration the program reported rather than timed by
    /// the benchmark (atoms and kernels inside an executor call).
    pub derived: bool,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// The span's layer: its name up to the first `.`.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or("")
    }
}

/// Per-thread span buffer. Ids embed the recorder's index so buffers from
/// several threads merge without clashes.
pub struct Recorder {
    epoch: Instant,
    next: u64,
    /// Spans recorded so far.
    pub spans: Vec<Span>,
}

impl Recorder {
    /// A recorder numbering its spans from `index << 40`.
    pub fn new(epoch: Instant, index: u64) -> Self {
        Recorder {
            epoch,
            next: index << 40,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds from the epoch to `t` (0 for instants before it).
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished interval; returns its id.
    pub fn record(
        &mut self,
        name: impl Into<String>,
        parent: Option<u64>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let (start, end) = (self.at(start), self.at(end));
        self.push(name.into(), parent, request, start, end, false)
    }

    /// Record an interval given in epoch nanoseconds.
    pub fn push(
        &mut self,
        name: String,
        parent: Option<u64>,
        request: u64,
        start: u64,
        end: u64,
        derived: bool,
    ) -> u64 {
        self.next += 1;
        self.spans.push(Span {
            id: self.next,
            parent,
            request,
            name,
            start,
            end: end.max(start),
            derived,
        });
        self.next
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi)`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of every span, keyed by id.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.remove(&s.id).unwrap_or_default();
            (s.id, s.duration() - covered(kids, s.start, s.end))
        })
        .collect()
}

/// Unattributed wire time of one request: the time the client sat in
/// `read_frame` minus everything the server-side spans account for.
/// Negative when the server-side replay took longer than the wire wait.
pub fn unattributed_ns(roundtrip_wait: u64, server_side_total: u64) -> i64 {
    roundtrip_wait as i64 - server_side_total as i64
}

/// Write spans as JSON lines, tagging each with its request's statement
/// label and which side (`wire` or `server`) recorded it.
pub fn write_jsonl(
    path: &std::path::Path,
    spans: &[(String, &'static str, Span)],
) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (label, side, s) in spans {
        writeln!(
            out,
            "{{\"id\": {}, \"parent\": {}, \"request\": {}, \"statement\": \"{label}\", \
             \"side\": \"{side}\", \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
             \"derived\": {}}}",
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.request,
            s.name,
            s.start,
            s.end,
            s.derived
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name: name.to_string(),
            start,
            end,
            derived: false,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, "server.request", 0, 100),
            span(2, Some(1), "query.plan", 10, 30),
            span(3, Some(1), "executor.execute", 40, 90),
            span(4, Some(3), "platforms.java.atom", 45, 70),
            span(5, Some(3), "platforms.java.atom", 70, 80),
            span(6, Some(4), "kernels.Filter", 50, 60),
        ];
        let s = self_times(&spans);
        assert_eq!(s[&1], 100 - 20 - 50);
        assert_eq!(s[&2], 20);
        assert_eq!(s[&3], 50 - 35);
        assert_eq!(s[&4], 25 - 10);
        assert_eq!(s[&5], 10);
        assert_eq!(s[&6], 10);
        // Without overlapping siblings, self times partition the root.
        assert_eq!(s.values().sum::<u64>(), 100);
        let layer = |l: &str| -> u64 {
            spans
                .iter()
                .filter(|x| x.layer() == l)
                .map(|x| s[&x.id])
                .sum()
        };
        assert_eq!(layer("server"), 30);
        assert_eq!(layer("platforms"), 25);
        assert_eq!(layer("kernels"), 10);
    }

    #[test]
    fn overlapping_children_are_subtracted_once() {
        let spans = vec![
            span(1, None, "executor.execute", 0, 100),
            span(2, Some(1), "platforms.java.atom", 10, 60),
            span(3, Some(1), "platforms.relational.atom", 40, 80),
        ];
        assert_eq!(self_times(&spans)[&1], 100 - 70);
    }

    #[test]
    fn children_reaching_past_the_parent_are_clipped() {
        let spans = vec![
            span(1, None, "executor.execute", 0, 10),
            span(2, Some(1), "platforms.atom", 5, 15),
        ];
        assert_eq!(self_times(&spans)[&1], 5);
    }

    #[test]
    fn residual_is_the_wait_minus_the_server_side_total() {
        assert_eq!(unattributed_ns(88_000_000, 3_000_000), 85_000_000);
        assert_eq!(unattributed_ns(1_000, 1_500), -500);
        // Wire self times + server self times + residual = round trip.
        let wire = [
            span(1, None, "protocol.roundtrip", 0, 1000),
            span(2, Some(1), "protocol.request_encode", 0, 50),
            span(3, Some(1), "protocol.roundtrip_wait", 60, 950),
        ];
        let server = [
            span(10, None, "server.request", 0, 400),
            span(11, Some(10), "executor.execute", 100, 300),
        ];
        let wire_self = self_times(&wire);
        let server_self = self_times(&server);
        let wait = wire[2].duration();
        let residual = unattributed_ns(wait, server[0].duration());
        let without_wait: u64 = wire_self
            .iter()
            .filter(|(id, _)| **id != 3)
            .map(|(_, v)| v)
            .sum();
        let total = without_wait as i64 + server_self.values().sum::<u64>() as i64 + residual;
        assert_eq!(total, 1000);
    }

    #[test]
    fn recorder_ids_do_not_clash_across_threads() {
        let epoch = Instant::now();
        let mut a = Recorder::new(epoch, 1);
        let mut b = Recorder::new(epoch, 2);
        let ia = a.record("protocol.request_encode", None, 1, epoch, Instant::now());
        let ib = b.record("server.request", None, 1, epoch, Instant::now());
        assert_ne!(ia, ib);
        assert_eq!(a.spans[0].layer(), "protocol");
    }
}
