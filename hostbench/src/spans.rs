//! The benchmark's own span recorder.
//!
//! Spans are recorded around calls into each layer's public functions,
//! from this package's code only: the program under test carries no new
//! tracing. Each span has a name, a start and end on the host clock, the
//! span that caused it, and the id of the request it belongs to. Spans
//! stay in memory and are written out when the run ends.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::time::Instant;

/// Index of a span in its [`SpanLog`].
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub req: u64,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Whether the span mirrors work the server did for its request.
    /// Replay scaffolding (state copies, re-runs of work another span
    /// already contains) is recorded but kept out of the attribution
    /// sum behind `trace.unattributed_us`.
    pub attributed: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span log for one client thread.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(origin: Instant) -> SpanLog {
        SpanLog {
            origin,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`SpanLog::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<SpanId>,
        attributed: bool,
    ) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            req,
            parent,
            start_ns,
            end_ns: start_ns,
            attributed,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<SpanId>,
        attributed: bool,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let id = self.open(name, req, parent, attributed);
        let out = std::hint::black_box(f());
        self.close(id);
        (out, id)
    }

    /// Appends another thread's log, re-basing its parent links.
    pub fn absorb(&mut self, other: SpanLog) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Durations in µs of every span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    }

    /// Self time of each span: its duration minus its children's. A
    /// child stands for part of its parent's work whether it ran inside
    /// the parent's interval (a nested call) or after it (a re-run of
    /// work the parent contains, such as the merge inside an eval).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Total self time in ms per layer, the layer being the span name's
    /// first dotted component (`core`, `blueprint`, `module`, ...).
    ///
    /// Only work the server did for its requests counts: attributed
    /// spans and the spans under them. `core.request` is left out, as
    /// the replayed layer spans already stand for its parts; what they
    /// do not cover (each request's positive `trace.unattributed_us`)
    /// is added to `core`, whose own spans are only the lookup and the
    /// cache probes.
    pub fn self_ms_by_layer(&self) -> HashMap<&'static str, f64> {
        let mut by: HashMap<&'static str, f64> = HashMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_times_ns()) {
            let counted = s.attributed || s.parent.is_some_and(|p| self.spans[p].attributed);
            if !counted || s.name == "core.request" {
                continue;
            }
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *by.entry(layer).or_default() += ns as f64 / 1e6;
        }
        let remainder: f64 = self.unattributed_us().iter().map(|us| us.max(0.0)).sum();
        *by.entry("core").or_default() += remainder / 1e3;
        by
    }

    /// `trace.unattributed_us` per request: the duration of the
    /// request's `core.request` span minus the summed durations of the
    /// attributed spans directly under its `replay` root.
    pub fn unattributed_us(&self) -> Vec<f64> {
        let mut request: HashMap<u64, u64> = HashMap::new();
        let mut replay_root: HashMap<SpanId, u64> = HashMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            match s.name {
                "core.request" => {
                    request.insert(s.req, s.dur_ns());
                }
                "replay" => {
                    replay_root.insert(i, s.req);
                }
                _ => {}
            }
        }
        let mut replayed: HashMap<u64, u64> = HashMap::new();
        for s in &self.spans {
            if let Some(req) = s.parent.and_then(|p| replay_root.get(&p)) {
                if s.attributed {
                    *replayed.entry(*req).or_default() += s.dur_ns();
                }
            }
        }
        let mut out: Vec<f64> = replay_root
            .values()
            .filter_map(|req| {
                let total = *request.get(req)? as f64;
                let covered = *replayed.get(req).unwrap_or(&0) as f64;
                Some((total - covered) / 1e3)
            })
            .collect();
        out.sort_by(f64::total_cmp);
        out
    }

    /// Writes the log as JSON lines (one span per line) to `path`,
    /// creating its directory.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut line = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            line.clear();
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                line,
                "{{\"id\": {i}, \"name\": \"{}\", \"req\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \"attributed\": {}}}",
                s.name, s.req, s.start_ns, s.end_ns, s.attributed
            );
            out.write_all(line.as_bytes())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        parent: Option<SpanId>,
        start: u64,
        end: u64,
        attributed: bool,
    ) -> Span {
        Span {
            name,
            req: 1,
            parent,
            start_ns: start,
            end_ns: end,
            attributed,
        }
    }

    fn log() -> SpanLog {
        let mut log = SpanLog::new(Instant::now());
        log.spans = vec![
            span("exec", None, 0, 130, false),
            span("core.request", Some(0), 0, 100, true),
            span("os.map", Some(0), 100, 130, true),
            span("replay", None, 200, 300, false),
            span("core.namespace.lookup", Some(3), 200, 210, true),
            span("blueprint.eval", Some(3), 210, 250, true),
            // A re-run of the merge inside the eval, after it closed.
            span("module.merge", Some(5), 250, 265, false),
            span("constraint.state_copy", Some(3), 265, 280, false),
            span("link.link", Some(3), 280, 300, true),
        ];
        log
    }

    #[test]
    fn self_time_subtracts_children_inside_or_after() {
        let log = log();
        assert_eq!(
            log.self_times_ns(),
            vec![0, 100, 30, 15, 10, 25, 15, 15, 20]
        );
        // 100 ns of request minus 10 + 40 + 20 replayed.
        assert_eq!(log.unattributed_us(), vec![0.03]);
    }

    #[test]
    fn layer_self_time_counts_each_part_once() {
        let by = log().self_ms_by_layer();
        let ms = |layer| by.get(layer).copied().unwrap_or(0.0) * 1e6;
        // The lookup plus the 30 ns the replay does not cover; the
        // request span itself is not counted again.
        assert!((ms("core") - 40.0).abs() < 1e-9);
        assert!((ms("blueprint") - 25.0).abs() < 1e-9);
        assert!((ms("module") - 15.0).abs() < 1e-9);
        assert!((ms("link") - 20.0).abs() < 1e-9);
        assert!((ms("os") - 30.0).abs() < 1e-9);
        // Replay scaffolding is not server work.
        assert_eq!(by.get("constraint"), None);
        // Together the layers add up to the request and its mapping.
        assert!((by.values().sum::<f64>() * 1e6 - 130.0).abs() < 1e-9);
    }
}
