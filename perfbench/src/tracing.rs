//! Trace sessions of traced runs: capture, per-span self time, export.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use traj_obs::trace::{self, Trace, TraceEventKind};

/// Ring capacity per recording thread, in events. Runs record far more
/// than this; the excess is counted as dropped, never blocking, so the
/// exported timeline covers the start of each captured phase.
const CAPACITY: usize = 1 << 16;

/// Runs `f` inside a fresh trace session and returns its result with
/// everything the session recorded.
pub fn capture<T>(f: impl FnOnce() -> T) -> (T, Trace) {
    trace::start_with_capacity(CAPACITY);
    let out = f();
    (out, trace::stop())
}

/// Count, total and self time of one span name.
#[derive(Debug, Default, Clone, Copy)]
struct SpanStats {
    count: u64,
    total_ns: u64,
    self_ns: u64,
}

/// Per-span-name counts, total and self time (a span's duration minus
/// the part its child spans cover), grouped by layer — the name's
/// prefix before the first `.` — as an aligned text table.
pub fn self_time_table(t: &Trace) -> String {
    let mut stats: BTreeMap<&str, SpanStats> = BTreeMap::new();
    let mut instants: BTreeMap<&str, u64> = BTreeMap::new();
    for track in &t.tracks {
        // (name, begin ns, ns covered by children)
        let mut open: Vec<(u32, u64, u64)> = Vec::new();
        for ev in &track.events {
            match ev.kind {
                TraceEventKind::Begin => open.push((ev.name, ev.ts_ns, 0)),
                TraceEventKind::End => {
                    let Some((name, begin, children)) = open.pop() else {
                        continue;
                    };
                    let dur = ev.ts_ns.saturating_sub(begin);
                    let s = stats.entry(t.name(name)).or_default();
                    s.count += 1;
                    s.total_ns += dur;
                    s.self_ns += dur.saturating_sub(children);
                    if let Some(parent) = open.last_mut() {
                        parent.2 += dur;
                    }
                }
                TraceEventKind::Instant => *instants.entry(t.name(ev.name)).or_default() += 1,
                TraceEventKind::Counter => {}
            }
        }
    }
    let mut rows: Vec<(&str, &str, SpanStats)> = stats
        .into_iter()
        .map(|(name, s)| (name.split('.').next().unwrap_or(name), name, s))
        .collect();
    rows.sort_by(|a, b| a.0.cmp(b.0).then(b.2.self_ns.cmp(&a.2.self_ns)));
    let mut out = format!(
        "{:<8} {:<28} {:>10} {:>12} {:>12}\n",
        "layer", "span", "count", "total_ms", "self_ms"
    );
    for (layer, name, s) in rows {
        let _ = writeln!(
            out,
            "{layer:<8} {name:<28} {:>10} {:>12.3} {:>12.3}",
            s.count,
            s.total_ns as f64 / 1e6,
            s.self_ns as f64 / 1e6
        );
    }
    for (name, n) in instants {
        let layer = name.split('.').next().unwrap_or(name);
        let _ = writeln!(out, "{layer:<8} {name:<28} {n:>10} {:>12} {:>12}", "-", "-");
    }
    let _ = writeln!(
        out,
        "events {} dropped {}",
        t.event_count(),
        t.dropped_total()
    );
    out
}

/// Writes the Chrome trace and the self-time table next to each other.
///
/// # Errors
/// I/O failures.
pub fn export(t: &Trace, chrome: &Path, table: &Path) -> Result<String, String> {
    let text = self_time_table(t);
    std::fs::write(chrome, t.to_chrome_json()).map_err(|e| format!("{}: {e}", chrome.display()))?;
    std::fs::write(table, &text).map_err(|e| format!("{}: {e}", table.display()))?;
    Ok(text)
}
