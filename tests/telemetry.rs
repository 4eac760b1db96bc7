//! Differential tests for the telemetry layer (`cfc-verify::telemetry`).
//!
//! Three guarantees are pinned here, each of which the observability
//! layer must uphold to be trustworthy:
//!
//! 1. **Exactness** — the final `Snapshot` of a driver's phase span,
//!    reconstructed purely from the event stream, equals the stats
//!    struct the driver returned, field for field, under an injected
//!    deterministic clock (including the derived throughput).
//! 2. **Well-formedness** — counters are monotone within every span,
//!    event timestamps never run backwards, and `SpanStart`/`SpanEnd`
//!    events balance like parentheses (strict LIFO nesting), on every
//!    driver including early-return paths.
//! 3. **Passivity** — attaching a recording sink changes *no* verdict
//!    and *no* count: stats are identical (wall time aside) with and
//!    without telemetry, in every declared cell of the oracle matrix.
//!
//! The JSONL encoding is also round-tripped against the in-memory
//! recorder on a live run: every line parses back to exactly the event
//! the recorder saw.

mod common;

use std::cell::RefCell;
use std::io::Write;
use std::rc::Rc;

use cfc::core::ManualClock;
use cfc::mutex::{Bakery, PetersonTwo};
use cfc::verify::{
    check_mutex_progress, check_mutex_safety, check_mutex_starvation, with_telemetry, ExploreStats,
    JsonlSink, Phase, Recorder, Telemetry, TelemetryEvent,
};
use common::matrix::{check_passive, Progress, DECLARED, ROWS};

/// A clonable `Write` target so the `JsonlSink` buffer can be read
/// after the telemetry handle (which owns the sink) is dropped.
#[derive(Clone, Debug, Default)]
struct SharedBuf(Rc<RefCell<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.borrow_mut().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Asserts strict LIFO span nesting and globally monotone timestamps;
/// returns the number of spans closed.
fn assert_well_formed(events: &[TelemetryEvent]) -> usize {
    let mut stack: Vec<Phase> = Vec::new();
    let mut closed = 0usize;
    let mut last_at = 0u64;
    // Per-phase (states, transitions) watermark, reset at span start:
    // counters must be monotone *within* a span, not across runs.
    let mut watermark: std::collections::HashMap<Phase, (u64, u64)> =
        std::collections::HashMap::new();
    for e in events {
        let at = match e {
            TelemetryEvent::SpanStart { at_ns, .. }
            | TelemetryEvent::SpanEnd { at_ns, .. }
            | TelemetryEvent::Snapshot { at_ns, .. }
            | TelemetryEvent::Spill { at_ns, .. }
            | TelemetryEvent::IndexGrowth { at_ns, .. } => *at_ns,
        };
        assert!(at >= last_at, "timestamp ran backwards: {e:?}");
        last_at = at;
        match e {
            TelemetryEvent::SpanStart { phase, .. } => {
                stack.push(*phase);
                watermark.insert(*phase, (0, 0));
            }
            TelemetryEvent::SpanEnd {
                phase,
                elapsed_ns,
                states,
                transitions,
                ..
            } => {
                assert_eq!(
                    stack.pop(),
                    Some(*phase),
                    "span end does not match innermost open span"
                );
                let (s, t) = watermark[phase];
                assert!(*states >= s && *transitions >= t, "span end went backwards");
                let _ = elapsed_ns;
                closed += 1;
            }
            TelemetryEvent::Snapshot { phase, snap, .. } => {
                assert!(
                    stack.contains(phase),
                    "snapshot for a phase with no open span: {phase}"
                );
                let w = watermark.get_mut(phase).expect("span started");
                assert!(
                    snap.states >= w.0 && snap.transitions >= w.1,
                    "snapshot counters regressed within a span: {snap:?}"
                );
                *w = (snap.states, snap.transitions);
            }
            TelemetryEvent::Spill { phase, .. } | TelemetryEvent::IndexGrowth { phase, .. } => {
                assert!(stack.contains(phase), "store event outside any span");
            }
        }
    }
    assert!(stack.is_empty(), "unbalanced spans left open: {stack:?}");
    closed
}

/// A telemetry handle with a shared recorder, a deterministic ticking
/// clock, and a small stride (so even tiny runs produce snapshots).
fn recording_telemetry() -> (Telemetry, Recorder) {
    let rec = Recorder::new();
    let tel = Telemetry::new()
        .with_sink(rec.clone())
        .with_clock(Rc::new(ManualClock::with_tick(1_000)))
        .with_stride(16);
    (tel, rec)
}

/// Asserts that the last snapshot of `phase` — the one its span emits
/// on finish — equals the returned `stats` field for field, carrying the
/// same single clock reading as `wall_ns`.
fn assert_final_snapshot(events: &[TelemetryEvent], phase: Phase, stats: &ExploreStats) {
    assert_well_formed(events);
    let snap = events
        .iter()
        .rev()
        .find_map(|e| match e {
            TelemetryEvent::Snapshot { phase: p, snap, .. } if *p == phase => Some(*snap),
            _ => None,
        })
        .unwrap_or_else(|| panic!("the {phase} span emits a final snapshot on finish"));
    assert_eq!(snap.states, stats.states as u64);
    assert_eq!(snap.transitions, stats.transitions);
    assert_eq!(snap.states_pruned_por, stats.states_pruned_por);
    assert_eq!(snap.orbits_merged, stats.orbits_merged);
    assert_eq!(snap.footprint, stats.footprint);
    assert_eq!(snap.elapsed_ns, stats.wall_ns, "single-read finish time");
    assert_eq!(snap.states_per_sec, stats.states_per_sec());
}

#[test]
fn final_safety_snapshot_reconstructs_returned_stats() {
    let (tel, rec) = recording_telemetry();
    let stats = with_telemetry(&tel, || {
        check_mutex_safety(&Bakery::new(2), 1, common::reduced(200_000))
    })
    .unwrap();
    let events = rec.events();
    assert_final_snapshot(&events, Phase::SafetyDfs, &stats);

    // The span-end event carries the same single clock reading.
    let end = events
        .iter()
        .rev()
        .find_map(|e| match e {
            TelemetryEvent::SpanEnd {
                phase,
                elapsed_ns,
                states,
                ..
            } if *phase == Phase::SafetyDfs => Some((*elapsed_ns, *states)),
            _ => None,
        })
        .expect("balanced safety span");
    assert_eq!(end, (stats.wall_ns, stats.states as u64));
}

#[test]
fn final_progress_snapshot_reconstructs_returned_stats() {
    let (tel, rec) = recording_telemetry();
    let stats = with_telemetry(&tel, || {
        check_mutex_progress(&PetersonTwo::new(), 1, common::reduced(100_000))
    })
    .unwrap();

    let events = rec.events();
    // The whole-check span (graph build + back-propagation) owns the
    // final snapshot and the stats wall time.
    assert_final_snapshot(&events, Phase::ProgressCheck, &stats);

    // Interior structure: the BFS build and the back-propagation pass
    // both ran as nested spans of the check.
    for phase in [Phase::ProgressBfs, Phase::BackPropagation] {
        assert!(
            events
                .iter()
                .any(|e| matches!(e, TelemetryEvent::SpanStart { phase: p, .. } if *p == phase)),
            "missing nested {phase} span"
        );
    }
}

#[test]
fn final_liveness_snapshot_reconstructs_returned_stats() {
    let (tel, rec) = recording_telemetry();
    let report = with_telemetry(&tel, || {
        check_mutex_starvation(&PetersonTwo::new(), common::reduced(100_000))
    })
    .unwrap();
    // The whole-check span (every graph build, SCC pass and witness
    // validation) owns the final snapshot: the counters summed over the
    // per-victim graphs, and the stats wall time.
    assert_final_snapshot(&rec.events(), Phase::LivenessCheck, &report.stats);
}

#[test]
fn liveness_emits_balanced_scc_and_graph_spans() {
    let (tel, rec) = recording_telemetry();
    let report = with_telemetry(&tel, || {
        check_mutex_starvation(&PetersonTwo::new(), common::reduced(100_000))
    })
    .unwrap();

    let events = rec.events();
    let closed = assert_well_formed(&events);
    assert!(closed >= 3, "expected check + graph + scc spans, got {closed}");
    for phase in [Phase::LivenessCheck, Phase::LivenessGraph, Phase::SccAnalysis] {
        assert!(
            events
                .iter()
                .any(|e| matches!(e, TelemetryEvent::SpanStart { phase: p, .. } if *p == phase)),
            "missing {phase} span"
        );
    }
    let end = events
        .iter()
        .rev()
        .find_map(|e| match e {
            TelemetryEvent::SpanEnd {
                phase, elapsed_ns, ..
            } if *phase == Phase::LivenessCheck => Some(*elapsed_ns),
            _ => None,
        })
        .expect("balanced liveness-check span");
    assert_eq!(end, report.stats.wall_ns);
}

#[test]
fn violation_paths_still_balance_spans() {
    // Lamport's fast path starves: the liveness check returns through
    // the early Starvable exit, and every span must still close (the
    // guard's drop balancing).
    let (tel, rec) = recording_telemetry();
    let report = with_telemetry(&tel, || {
        check_mutex_starvation(&cfc::mutex::LamportFast::new(2), common::reduced(200_000))
    })
    .unwrap();
    assert!(
        matches!(
            report.verdict,
            cfc::verify::LivenessVerdict::Starvable(_)
        ),
        "lamport fast path is the starvable fixture"
    );
    assert_well_formed(&rec.events());
}

#[test]
fn recorder_sink_is_passive_across_families_and_variants() {
    for row in ROWS.iter().filter(|r| r.checker != Progress) {
        for col in DECLARED {
            check_passive(row, col);
        }
    }
}

#[test]
fn progress_stats_are_passive_too() {
    for row in ROWS.iter().filter(|r| r.checker == Progress) {
        for col in DECLARED {
            check_passive(row, col);
        }
    }
}

#[test]
fn jsonl_stream_round_trips_through_the_recorder() {
    let buf = SharedBuf::default();
    let rec = Recorder::new();
    let tel = Telemetry::new()
        .with_sink(JsonlSink::new(buf.clone()))
        .with_sink(rec.clone())
        .with_clock(Rc::new(ManualClock::with_tick(1_000)))
        .with_stride(16);
    with_telemetry(&tel, || {
        check_mutex_progress(&Bakery::new(2), 1, common::reduced(200_000))
    })
    .unwrap();

    let recorded = rec.events();
    assert!(!recorded.is_empty());
    let bytes = buf.0.borrow().clone();
    let text = String::from_utf8(bytes).expect("jsonl is utf-8");
    let parsed: Vec<TelemetryEvent> = text
        .lines()
        .map(|l| {
            TelemetryEvent::parse_json_line(l)
                .unwrap_or_else(|| panic!("unparseable line: {l}"))
        })
        .collect();
    assert_eq!(parsed, recorded, "jsonl encode/decode must be lossless");
    assert_well_formed(&parsed);
}

#[test]
fn lint_span_is_observed_and_timed() {
    let bakery = Bakery::new(2);
    let procs: Vec<_> = (0..2)
        .map(|i| {
            cfc::mutex::MutexAlgorithm::client_with_cs(
                &bakery,
                cfc::core::ProcessId::new(i),
                1,
                1,
            )
        })
        .collect();
    let (tel, rec) = recording_telemetry();
    let report = with_telemetry(&tel, || {
        cfc::verify::lint_model(&cfc::mutex::MutexAlgorithm::layout(&bakery), &procs)
    });
    assert!(report.is_clean());
    assert!(report.wall_ns > 0, "manual clock ticks per read");
    let events = rec.events();
    assert_well_formed(&events);
    let end = events
        .iter()
        .find_map(|e| match e {
            TelemetryEvent::SpanEnd {
                phase,
                elapsed_ns,
                states,
                ..
            } if *phase == Phase::Lint => Some((*elapsed_ns, *states)),
            _ => None,
        })
        .expect("lint span closes");
    assert_eq!(end, (report.wall_ns, report.locations as u64));
}
