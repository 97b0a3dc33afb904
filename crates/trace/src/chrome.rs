//! Chrome trace-event JSON export and import.
//!
//! A [`TraceFile`] collects the per-rank [`RankTrace`]s of one run and
//! serialises them in the [Chrome trace-event format], which
//! [Perfetto](https://ui.perfetto.dev) (and `chrome://tracing`) load
//! directly: open the UI and drag the emitted `.json` onto it.
//!
//! Mapping: each rank becomes a *process* (`pid` = rank) with two
//! *threads* — `tid` 0 is the "compute" lane (compute, pack/unpack and
//! stage spans), `tid` 1 is the "comm" lane (comm-wait spans and send
//! markers) — so compute/communication overlap is visible as side-by-side
//! lanes per rank. Timestamps are microseconds with three decimal places,
//! so nanosecond precision survives a round-trip through the file.
//!
//! [Chrome trace-event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
use crate::json::{self, JsonValue};
use crate::recorder::{RankTrace, SpanKind, TraceEvent};
use std::fmt::Write as _;

/// Lane (`tid`) used for compute-side spans.
pub const LANE_COMPUTE: u64 = 0;
/// Lane (`tid`) used for communication-side spans.
pub const LANE_COMM: u64 = 1;

/// A complete run trace: one [`RankTrace`] per rank plus free-form
/// metadata key/value pairs (recorded under `otherData` in the JSON).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceFile {
    /// Per-rank traces, conventionally sorted by rank.
    pub ranks: Vec<RankTrace>,
    /// Run metadata (e.g. `("p", "16")`, `("block_width", "32")`).
    pub meta: Vec<(String, String)>,
}

/// Error from [`TraceFile::parse_chrome_json`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParseError(pub String);

impl std::fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace parse error: {}", self.0)
    }
}

impl std::error::Error for TraceParseError {}

fn kind_name(kind: &SpanKind) -> &str {
    match kind {
        SpanKind::Compute { .. } => "compute",
        SpanKind::CommWait { .. } => "wait",
        SpanKind::CommSpin { .. } => "spin",
        SpanKind::CommPark { .. } => "park",
        SpanKind::Pack => "pack",
        SpanKind::Unpack => "unpack",
        SpanKind::Send { .. } => "send",
        SpanKind::Stage { name } => name,
    }
}

fn kind_cat(kind: &SpanKind) -> &'static str {
    match kind {
        SpanKind::Compute { .. } => "compute",
        SpanKind::CommWait { .. }
        | SpanKind::CommSpin { .. }
        | SpanKind::CommPark { .. }
        | SpanKind::Send { .. } => "comm",
        SpanKind::Pack | SpanKind::Unpack => "pack",
        SpanKind::Stage { .. } => "stage",
    }
}

fn kind_lane(kind: &SpanKind) -> u64 {
    match kind {
        SpanKind::CommWait { .. }
        | SpanKind::CommSpin { .. }
        | SpanKind::CommPark { .. }
        | SpanKind::Send { .. } => LANE_COMM,
        _ => LANE_COMPUTE,
    }
}

/// Format nanoseconds as microseconds with exactly three decimals, so the
/// nanosecond value is recoverable from the decimal string.
fn ns_to_us_str(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

fn us_f64_to_ns(us: f64) -> u64 {
    (us * 1000.0).round().max(0.0) as u64
}

impl TraceFile {
    /// A trace file over the given per-rank traces, sorted by rank.
    pub fn new(mut ranks: Vec<RankTrace>) -> Self {
        ranks.sort_by_key(|r| r.rank);
        TraceFile {
            ranks,
            meta: Vec::new(),
        }
    }

    /// Attach a metadata key/value pair (chainable). Pairs are kept sorted
    /// by key, matching the order a parsed file yields.
    pub fn with_meta(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.meta.push((key.into(), value.into()));
        self.meta.sort();
        self
    }

    /// Latest event end across all ranks, in ns (the traced makespan).
    pub fn makespan_ns(&self) -> u64 {
        self.ranks
            .iter()
            .flat_map(|r| r.events.iter().map(|e| e.end_ns))
            .max()
            .unwrap_or(0)
    }

    /// Serialise to Chrome trace-event JSON (the `{"traceEvents": [...]}`
    /// object form). Load the result in Perfetto or `chrome://tracing`.
    pub fn to_chrome_json(&self) -> String {
        let nev: usize = self.ranks.iter().map(|r| r.events.len()).sum();
        let mut out = String::with_capacity(128 + nev * 96);
        out.push_str("{\n\"displayTimeUnit\": \"ms\",\n\"otherData\": {");
        for (i, (k, v)) in self.meta.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            json::escape_into(&mut out, k);
            out.push_str(": ");
            json::escape_into(&mut out, v);
        }
        out.push_str("},\n\"traceEvents\": [\n");
        let mut first = true;
        let mut emit = |line: String, out: &mut String| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&line);
        };
        for r in &self.ranks {
            emit(
                format!(
                    "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\
                     \"args\":{{\"name\":\"rank {}\"}}}}",
                    r.rank, r.rank
                ),
                &mut out,
            );
            for (tid, lane) in [(LANE_COMPUTE, "compute"), (LANE_COMM, "comm")] {
                emit(
                    format!(
                        "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{},\"tid\":{},\
                         \"args\":{{\"name\":\"{}\"}}}}",
                        r.rank, tid, lane
                    ),
                    &mut out,
                );
            }
            for ev in &r.events {
                let mut line = String::with_capacity(96);
                line.push_str("{\"name\":");
                json::escape_into(&mut line, kind_name(&ev.kind));
                let _ = write!(
                    line,
                    ",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":{},\"dur\":{}",
                    kind_cat(&ev.kind),
                    r.rank,
                    kind_lane(&ev.kind),
                    ns_to_us_str(ev.start_ns),
                    ns_to_us_str(ev.end_ns - ev.start_ns)
                );
                match &ev.kind {
                    SpanKind::Compute { phase, jobs, lines } => {
                        let _ = write!(
                            line,
                            ",\"args\":{{\"phase\":{phase},\"jobs\":{jobs},\"lines\":{lines}}}"
                        );
                    }
                    SpanKind::CommWait { peer, tag }
                    | SpanKind::CommSpin { peer, tag }
                    | SpanKind::CommPark { peer, tag } => {
                        let _ = write!(line, ",\"args\":{{\"peer\":{peer},\"tag\":{tag}}}");
                    }
                    SpanKind::Send { peer, elements } => {
                        let _ = write!(
                            line,
                            ",\"args\":{{\"peer\":{peer},\"elements\":{elements}}}"
                        );
                    }
                    SpanKind::Pack | SpanKind::Unpack | SpanKind::Stage { .. } => {}
                }
                line.push('}');
                emit(line, &mut out);
            }
        }
        out.push_str("\n]\n}\n");
        out
    }

    /// Parse a trace previously written by [`TraceFile::to_chrome_json`].
    ///
    /// Per-rank stats are recomputed from the parsed events with the same
    /// folding the recorder uses, so a write→parse round-trip reproduces
    /// both events and stats exactly.
    pub fn parse_chrome_json(text: &str) -> Result<TraceFile, TraceParseError> {
        let doc = json::parse(text).map_err(|e| TraceParseError(e.to_string()))?;
        let mut meta = Vec::new();
        if let Some(JsonValue::Object(m)) = doc.get("otherData") {
            for (k, v) in m {
                if let Some(s) = v.as_str() {
                    meta.push((k.clone(), s.to_string()));
                }
            }
        }
        let events = doc
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .ok_or_else(|| TraceParseError("missing traceEvents array".into()))?;
        let mut per_rank: Vec<(u64, Vec<TraceEvent>)> = Vec::new();
        for ev in events {
            let ph = ev.get("ph").and_then(|v| v.as_str()).unwrap_or("");
            if ph != "X" {
                continue; // metadata ("M") events carry no intervals
            }
            let pid = ev
                .get("pid")
                .and_then(|v| v.as_u64())
                .ok_or_else(|| TraceParseError("event without pid".into()))?;
            let name = ev
                .get("name")
                .and_then(|v| v.as_str())
                .ok_or_else(|| TraceParseError("event without name".into()))?;
            let cat = ev.get("cat").and_then(|v| v.as_str()).unwrap_or("");
            let ts = ev
                .get("ts")
                .and_then(|v| v.as_f64())
                .ok_or_else(|| TraceParseError("event without ts".into()))?;
            let dur = ev.get("dur").and_then(|v| v.as_f64()).unwrap_or(0.0);
            let arg = |key: &str| {
                ev.get("args")
                    .and_then(|a| a.get(key))
                    .and_then(|v| v.as_u64())
            };
            let kind = match (cat, name) {
                ("compute", _) => SpanKind::Compute {
                    phase: arg("phase").unwrap_or(0),
                    jobs: arg("jobs").unwrap_or(0),
                    lines: arg("lines").unwrap_or(0),
                },
                ("comm", "wait") => SpanKind::CommWait {
                    peer: arg("peer").unwrap_or(0),
                    tag: arg("tag").unwrap_or(0),
                },
                ("comm", "spin") => SpanKind::CommSpin {
                    peer: arg("peer").unwrap_or(0),
                    tag: arg("tag").unwrap_or(0),
                },
                ("comm", "park") => SpanKind::CommPark {
                    peer: arg("peer").unwrap_or(0),
                    tag: arg("tag").unwrap_or(0),
                },
                ("comm", "send") => SpanKind::Send {
                    peer: arg("peer").unwrap_or(0),
                    elements: arg("elements").unwrap_or(0),
                },
                ("pack", "pack") => SpanKind::Pack,
                ("pack", "unpack") => SpanKind::Unpack,
                _ => SpanKind::Stage {
                    name: name.to_string(),
                },
            };
            let start_ns = us_f64_to_ns(ts);
            let end_ns = start_ns + us_f64_to_ns(dur);
            let slot = match per_rank.iter_mut().find(|(r, _)| *r == pid) {
                Some((_, evs)) => evs,
                None => {
                    per_rank.push((pid, Vec::new()));
                    &mut per_rank.last_mut().unwrap().1
                }
            };
            slot.push(TraceEvent {
                start_ns,
                end_ns,
                kind,
            });
        }
        let ranks = per_rank
            .into_iter()
            .map(|(rank, evs)| RankTrace::from_events(rank, evs))
            .collect();
        let mut tf = TraceFile::new(ranks);
        tf.meta = meta;
        Ok(tf)
    }

    /// A fixed-width per-rank summary table: compute / comm-wait /
    /// pack+unpack time and fractions of the traced makespan, plus send
    /// counters. Suitable for printing to a terminal.
    pub fn summary_table(&self) -> String {
        let makespan = self.makespan_ns().max(1) as f64;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>4}  {:>12} {:>6}  {:>12} {:>6}  {:>10}  {:>8} {:>12}",
            "rank", "compute_ms", "comp%", "wait_ms", "wait%", "pack_ms", "msgs", "elements"
        );
        for r in &self.ranks {
            let s = &r.stats;
            let ms = |ns: u64| ns as f64 / 1e6;
            let pct = |ns: u64| 100.0 * ns as f64 / makespan;
            let _ = writeln!(
                out,
                "{:>4}  {:>12.3} {:>5.1}%  {:>12.3} {:>5.1}%  {:>10.3}  {:>8} {:>12}",
                r.rank,
                ms(s.compute_ns),
                pct(s.compute_ns),
                ms(s.comm_wait_ns),
                pct(s.comm_wait_ns),
                ms(s.pack_ns + s.unpack_ns),
                s.sent_messages(),
                s.sent_elements()
            );
        }
        let _ = writeln!(out, "makespan: {:.3} ms", makespan / 1e6);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TraceFile {
        let r0 = RankTrace::from_events(
            0,
            vec![
                TraceEvent {
                    start_ns: 0,
                    end_ns: 1_234_567,
                    kind: SpanKind::Compute {
                        phase: 0,
                        jobs: 4,
                        lines: 64,
                    },
                },
                TraceEvent {
                    start_ns: 1_234_567,
                    end_ns: 1_234_567,
                    kind: SpanKind::Send {
                        peer: 1,
                        elements: 640,
                    },
                },
                TraceEvent {
                    start_ns: 1_300_000,
                    end_ns: 1_450_001,
                    kind: SpanKind::CommWait { peer: 1, tag: 9 },
                },
                TraceEvent {
                    start_ns: 1_300_000,
                    end_ns: 1_350_000,
                    kind: SpanKind::CommSpin { peer: 1, tag: 9 },
                },
                TraceEvent {
                    start_ns: 1_350_000,
                    end_ns: 1_450_001,
                    kind: SpanKind::CommPark { peer: 1, tag: 9 },
                },
                TraceEvent {
                    start_ns: 1_450_001,
                    end_ns: 1_500_000,
                    kind: SpanKind::Pack,
                },
                TraceEvent {
                    start_ns: 1_500_000,
                    end_ns: 1_600_003,
                    kind: SpanKind::Unpack,
                },
                TraceEvent {
                    start_ns: 1_600_003,
                    end_ns: 1_800_000,
                    kind: SpanKind::Stage {
                        name: "compute_rhs".into(),
                    },
                },
            ],
        );
        let r1 = RankTrace::from_events(
            1,
            vec![TraceEvent {
                start_ns: 10,
                end_ns: 999_999_999,
                kind: SpanKind::Compute {
                    phase: 3,
                    jobs: 1,
                    lines: 1,
                },
            }],
        );
        TraceFile::new(vec![r1, r0])
            .with_meta("p", "2")
            .with_meta("mode", "aggregated")
    }

    #[test]
    fn ranks_sorted_and_makespan() {
        let tf = sample();
        assert_eq!(tf.ranks[0].rank, 0);
        assert_eq!(tf.ranks[1].rank, 1);
        assert_eq!(tf.makespan_ns(), 999_999_999);
    }

    #[test]
    fn round_trip_is_exact() {
        let tf = sample();
        let text = tf.to_chrome_json();
        let back = TraceFile::parse_chrome_json(&text).unwrap();
        assert_eq!(back, tf);
        // And a second generation stays stable.
        assert_eq!(back.to_chrome_json(), text);
    }

    #[test]
    fn json_is_well_formed_and_has_metadata_events() {
        let tf = sample();
        let doc = crate::json::parse(&tf.to_chrome_json()).unwrap();
        let evs = doc.get("traceEvents").unwrap().as_array().unwrap();
        let metas: Vec<_> = evs
            .iter()
            .filter(|e| e.get("ph").and_then(|v| v.as_str()) == Some("M"))
            .collect();
        // 1 process_name + 2 thread_name per rank.
        assert_eq!(metas.len(), 6);
        assert_eq!(
            doc.get("otherData").unwrap().get("mode").unwrap().as_str(),
            Some("aggregated")
        );
        // Comm events live on tid 1, compute on tid 0.
        for e in evs {
            if e.get("ph").and_then(|v| v.as_str()) != Some("X") {
                continue;
            }
            let tid = e.get("tid").unwrap().as_u64().unwrap();
            match e.get("cat").and_then(|v| v.as_str()).unwrap() {
                "comm" => assert_eq!(tid, LANE_COMM),
                _ => assert_eq!(tid, LANE_COMPUTE),
            }
        }
    }

    #[test]
    fn ns_precision_survives_microsecond_encoding() {
        assert_eq!(ns_to_us_str(1_234_567), "1234.567");
        assert_eq!(ns_to_us_str(7), "0.007");
        assert_eq!(us_f64_to_ns(1234.567), 1_234_567);
        assert_eq!(us_f64_to_ns(0.007), 7);
    }

    #[test]
    fn summary_table_mentions_every_rank() {
        let tf = sample();
        let table = tf.summary_table();
        assert!(table.contains("rank"));
        assert!(table.contains("makespan"));
        assert_eq!(table.lines().count(), 1 + 2 + 1);
    }
}
