//! Observability for the verification engine: phase spans, progress
//! snapshots, and a machine-readable event stream.
//!
//! The drivers in this crate explore graphs with tens of millions of
//! states over minutes or hours. This module makes those runs visible
//! without perturbing them:
//!
//! * [`TelemetryEvent`] — the event vocabulary: span start/end per
//!   engine phase ([`Phase`]), periodic [`Snapshot`]s sampled on an
//!   expansion-count stride, and derived [`TelemetryEvent::IndexGrowth`]
//!   notifications.
//! * [`Observer`] — the sink trait, with three implementations:
//!   [`HeartbeatSink`] (human-readable stderr lines, rate-limited),
//!   [`JsonlSink`] (one JSON object per line, machine-readable), and
//!   [`Recorder`] (in-memory, for tests). A handle with no sinks, the
//!   default, emits nothing.
//! * [`Telemetry`] — a cheap cloneable handle bundling sinks, a
//!   [`Clock`], and the sampling stride. Installed *ambiently* per
//!   thread with [`with_telemetry`], so no driver signature changes:
//!   `with_telemetry(&tel, || explore(...))`.
//!
//! # Passivity
//!
//! Telemetry never influences exploration: sinks observe counters, they
//! do not feed back. With any sink attached, every state, transition,
//! and prune count is identical to the no-op run (asserted by the
//! differential suite in `tests/telemetry.rs`). With no sink attached
//! the per-expansion cost is one predictable branch — the hot loop
//! performs no syscall and no time check between samples, and samples
//! only fire every [`DEFAULT_STRIDE`] expansions.
//!
//! # Environment hooks
//!
//! * `CFC_PROGRESS` — when set (to anything but `0`/`off`/empty),
//!   every driver attaches a stderr heartbeat; a numeric value is the
//!   minimum interval between beats in seconds (default 5). This is
//!   how the CI exhaustive job shows live progress.
//! * `CFC_TELEMETRY_JSONL` — when set to a path, every driver appends
//!   its event stream to that file as JSON lines.

use std::cell::RefCell;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::rc::Rc;

use cfc_core::{Clock, WallClock};

/// Expansions between snapshot samples when no stride is configured.
///
/// At the engine's typical 10⁵–10⁶ states/sec this yields one sample
/// every fraction of a second; the cost between samples is a single
/// countdown decrement.
pub const DEFAULT_STRIDE: u64 = 1 << 16;

// ---------------------------------------------------------------------------
// Store footprint
// ---------------------------------------------------------------------------

/// Memory footprint of the visited store and edge arena, shared by
/// [`Snapshot`]s and by `ExploreStats`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct StoreFootprint {
    /// Bytes held by the packed visited-state arena.
    pub arena_bytes: u64,
    /// Bytes held by the state index: the open-addressed digest table,
    /// plus the sleep-mask table under dynamic reduction.
    pub index_bytes: u64,
    /// Bytes held by the recorded edge list, when edges are recorded.
    pub edge_bytes: u64,
}

impl StoreFootprint {
    /// Total bytes across arena, index, and edges.
    pub fn total_bytes(&self) -> u64 {
        self.arena_bytes + self.index_bytes + self.edge_bytes
    }

    /// Adds another footprint's bytes into this one (used when a
    /// checker accumulates several graph builds into one stats value).
    pub fn accumulate(&mut self, other: &StoreFootprint) {
        self.arena_bytes += other.arena_bytes;
        self.index_bytes += other.index_bytes;
        self.edge_bytes += other.edge_bytes;
    }
}

// ---------------------------------------------------------------------------
// Phases and events
// ---------------------------------------------------------------------------

/// The engine phases that emit spans. Closed set so the JSONL stream
/// round-trips exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// The memoizing safety DFS (`explore`).
    SafetyDfs,
    /// A whole progress check: graph build plus back-propagation.
    ProgressCheck,
    /// The BFS graph build inside a progress check.
    ProgressBfs,
    /// The `can_finish` back-propagation over the reversed graph.
    BackPropagation,
    /// A whole liveness check: all victim sets, graphs, and witnesses.
    LivenessCheck,
    /// One BFS graph build inside a liveness check (per victim set or
    /// the exact fallback graph).
    LivenessGraph,
    /// Fair-SCC decomposition and starvation search over one graph.
    SccAnalysis,
    /// Lasso/bypass witness extraction and validation.
    WitnessValidation,
    /// Control-automaton extraction (the `FutureIndex` build or a
    /// direct `extract_automaton` call).
    ExtractAutomaton,
    /// The reduction-hook lint (`lint_model`).
    Lint,
}

impl Phase {
    /// The stable string name used in the JSONL stream.
    pub fn as_str(&self) -> &'static str {
        match self {
            Phase::SafetyDfs => "safety-dfs",
            Phase::ProgressCheck => "progress-check",
            Phase::ProgressBfs => "progress-bfs",
            Phase::BackPropagation => "back-propagation",
            Phase::LivenessCheck => "liveness-check",
            Phase::LivenessGraph => "liveness-graph",
            Phase::SccAnalysis => "scc-analysis",
            Phase::WitnessValidation => "witness-validation",
            Phase::ExtractAutomaton => "extract-automaton",
            Phase::Lint => "lint",
        }
    }

    /// Parses a phase name produced by [`Phase::as_str`].
    pub fn parse(s: &str) -> Option<Phase> {
        Some(match s {
            "safety-dfs" => Phase::SafetyDfs,
            "progress-check" => Phase::ProgressCheck,
            "progress-bfs" => Phase::ProgressBfs,
            "back-propagation" => Phase::BackPropagation,
            "liveness-check" => Phase::LivenessCheck,
            "liveness-graph" => Phase::LivenessGraph,
            "scc-analysis" => Phase::SccAnalysis,
            "witness-validation" => Phase::WitnessValidation,
            "extract-automaton" => Phase::ExtractAutomaton,
            "lint" => Phase::Lint,
            _ => return None,
        })
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One periodic progress sample of a running traversal: the live
/// counters a driver exposes at a sample point. Cheap to build: every
/// counter is already maintained or an O(1) accessor; no allocation, no
/// syscall.
///
/// A driver fills the counters and hands the snapshot to
/// [`PhaseSpan::tick`] or [`PhaseSpan::finish`]; the span sets
/// `elapsed_ns` and `states_per_sec` from its clock when it emits it
/// (integers, so snapshots stay `Eq` and round-trip exactly through
/// JSON).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Snapshot {
    /// States interned so far.
    pub states: u64,
    /// Transitions taken so far.
    pub transitions: u64,
    /// Current frontier length (DFS stack depth or BFS queue length).
    pub frontier: u64,
    /// Current DFS path depth (0 for BFS).
    pub depth: u64,
    /// Successor states pruned by the ample-set (POR) reduction.
    pub states_pruned_por: u64,
    /// States merged into a symmetry orbit representative.
    pub orbits_merged: u64,
    /// Transitions skipped by dynamic sleep sets (nonzero only in the
    /// safety DFS under `MayAccessMode::Dynamic`).
    pub transitions_slept: u64,
    /// Store/index/edge footprint at the sample point.
    pub footprint: StoreFootprint,
    /// Nanoseconds since the enclosing span started. Set by the span
    /// when it emits the snapshot; a driver leaves it 0.
    pub elapsed_ns: u64,
    /// Cumulative throughput: `states * 1e9 / elapsed_ns` (0 when no
    /// time has passed). Set by the span when it emits the snapshot; a
    /// driver leaves it 0.
    pub states_per_sec: u64,
}

/// One telemetry event. The JSONL encoding is one object per line with
/// an `"event"` discriminant; see [`TelemetryEvent::to_json_line`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TelemetryEvent {
    /// A phase began.
    SpanStart {
        /// Which phase.
        phase: Phase,
        /// Clock reading at the start.
        at_ns: u64,
    },
    /// A phase ended, with the work attributed to it.
    SpanEnd {
        /// Which phase.
        phase: Phase,
        /// Clock reading at the end.
        at_ns: u64,
        /// Wall time from start to end.
        elapsed_ns: u64,
        /// States attributed to this phase.
        states: u64,
        /// Transitions attributed to this phase.
        transitions: u64,
    },
    /// A periodic progress sample inside a phase.
    Snapshot {
        /// Which phase.
        phase: Phase,
        /// Clock reading at the sample.
        at_ns: u64,
        /// The sample itself.
        snap: Snapshot,
    },
    /// The index footprint grew since the previous sample (an
    /// `OpenIndex` doubling).
    IndexGrowth {
        /// Which phase.
        phase: Phase,
        /// Clock reading at the detecting sample.
        at_ns: u64,
        /// Index bytes after the growth.
        index_bytes: u64,
    },
}

impl TelemetryEvent {
    /// The phase this event belongs to.
    pub fn phase(&self) -> Phase {
        match self {
            TelemetryEvent::SpanStart { phase, .. }
            | TelemetryEvent::SpanEnd { phase, .. }
            | TelemetryEvent::Snapshot { phase, .. }
            | TelemetryEvent::IndexGrowth { phase, .. } => *phase,
        }
    }

    /// Encodes the event as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        match self {
            TelemetryEvent::SpanStart { phase, at_ns } => {
                format!("{{\"event\":\"span_start\",\"phase\":\"{phase}\",\"at_ns\":{at_ns}}}")
            }
            TelemetryEvent::SpanEnd {
                phase,
                at_ns,
                elapsed_ns,
                states,
                transitions,
            } => format!(
                "{{\"event\":\"span_end\",\"phase\":\"{phase}\",\"at_ns\":{at_ns},\
                 \"elapsed_ns\":{elapsed_ns},\"states\":{states},\"transitions\":{transitions}}}"
            ),
            TelemetryEvent::Snapshot { phase, at_ns, snap } => format!(
                "{{\"event\":\"snapshot\",\"phase\":\"{phase}\",\"at_ns\":{at_ns},\
                 \"elapsed_ns\":{},\"states\":{},\"transitions\":{},\"frontier\":{},\
                 \"depth\":{},\"states_pruned_por\":{},\"orbits_merged\":{},\
                 \"transitions_slept\":{},\"states_per_sec\":{},\"arena_bytes\":{},\
                 \"index_bytes\":{},\"edge_bytes\":{}}}",
                snap.elapsed_ns,
                snap.states,
                snap.transitions,
                snap.frontier,
                snap.depth,
                snap.states_pruned_por,
                snap.orbits_merged,
                snap.transitions_slept,
                snap.states_per_sec,
                snap.footprint.arena_bytes,
                snap.footprint.index_bytes,
                snap.footprint.edge_bytes,
            ),
            TelemetryEvent::IndexGrowth {
                phase,
                at_ns,
                index_bytes,
            } => format!(
                "{{\"event\":\"index_growth\",\"phase\":\"{phase}\",\"at_ns\":{at_ns},\
                 \"index_bytes\":{index_bytes}}}"
            ),
        }
    }

    /// Parses a line produced by [`TelemetryEvent::to_json_line`].
    /// Returns `None` for anything else (including blank lines).
    pub fn parse_json_line(line: &str) -> Option<TelemetryEvent> {
        let kind = json_str(line, "event")?;
        let phase = Phase::parse(json_str(line, "phase")?)?;
        let at_ns = json_u64(line, "at_ns")?;
        Some(match kind {
            "span_start" => TelemetryEvent::SpanStart { phase, at_ns },
            "span_end" => TelemetryEvent::SpanEnd {
                phase,
                at_ns,
                elapsed_ns: json_u64(line, "elapsed_ns")?,
                states: json_u64(line, "states")?,
                transitions: json_u64(line, "transitions")?,
            },
            "snapshot" => TelemetryEvent::Snapshot {
                phase,
                at_ns,
                snap: Snapshot {
                    states: json_u64(line, "states")?,
                    transitions: json_u64(line, "transitions")?,
                    frontier: json_u64(line, "frontier")?,
                    depth: json_u64(line, "depth")?,
                    states_pruned_por: json_u64(line, "states_pruned_por")?,
                    orbits_merged: json_u64(line, "orbits_merged")?,
                    // Absent in pre-dynamic streams: default to 0 so old
                    // JSONL artifacts still parse.
                    transitions_slept: json_u64(line, "transitions_slept").unwrap_or(0),
                    footprint: StoreFootprint {
                        arena_bytes: json_u64(line, "arena_bytes")?,
                        index_bytes: json_u64(line, "index_bytes")?,
                        edge_bytes: json_u64(line, "edge_bytes")?,
                    },
                    elapsed_ns: json_u64(line, "elapsed_ns")?,
                    states_per_sec: json_u64(line, "states_per_sec")?,
                },
            },
            "index_growth" => TelemetryEvent::IndexGrowth {
                phase,
                at_ns,
                index_bytes: json_u64(line, "index_bytes")?,
            },
            _ => return None,
        })
    }
}

/// Extracts the raw text of `"key":<value>` from one of our own JSON
/// lines. Values are unsigned integers or phase/kind names, neither of
/// which contains `,` `}` or escapes, so a scan suffices — this is a
/// decoder for this module's encoder, not a general JSON parser.
fn json_raw<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let mut pat = String::with_capacity(key.len() + 3);
    pat.push('"');
    pat.push_str(key);
    pat.push_str("\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}'])?;
    Some(rest[..end].trim())
}

fn json_u64(line: &str, key: &str) -> Option<u64> {
    json_raw(line, key)?.parse().ok()
}

fn json_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    json_raw(line, key)?
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
}

// ---------------------------------------------------------------------------
// Observer trait and sinks
// ---------------------------------------------------------------------------

/// A telemetry sink. Implementations must be passive: observe the
/// event, never feed anything back into the engine.
pub trait Observer {
    /// Receives one event, in emission order.
    fn on_event(&mut self, event: &TelemetryEvent);
}

/// Human-readable progress lines on stderr, rate-limited to one beat
/// per interval.
///
/// Writes through [`io::stderr`]'s `Write` impl directly (not the
/// `eprintln!` machinery), so beats stay visible even inside the
/// libtest harness, which captures macro output — this is what keeps
/// the CI exhaustive job's hour-long runs from looking hung.
#[derive(Debug)]
pub struct HeartbeatSink {
    min_interval_ns: u64,
    last_beat_ns: Option<u64>,
}

impl HeartbeatSink {
    /// A heartbeat printing at most one snapshot line per
    /// `interval_secs` (span ends shorter than the interval are
    /// suppressed too, so fast phases stay quiet).
    pub fn stderr(interval_secs: f64) -> Self {
        HeartbeatSink {
            min_interval_ns: (interval_secs.max(0.0) * 1e9) as u64,
            last_beat_ns: None,
        }
    }

    fn beat(&mut self, at_ns: u64) -> bool {
        match self.last_beat_ns {
            Some(last) if at_ns.saturating_sub(last) < self.min_interval_ns => false,
            _ => {
                self.last_beat_ns = Some(at_ns);
                true
            }
        }
    }
}

/// `123456789` -> `"123.5M"`, keeping heartbeat lines scannable.
fn fmt_count(n: u64) -> String {
    if n >= 10_000_000 {
        format!("{:.2}M", n as f64 / 1e6)
    } else if n >= 10_000 {
        format!("{:.1}k", n as f64 / 1e3)
    } else {
        n.to_string()
    }
}

fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 30 {
        format!("{:.2}GiB", b as f64 / (1u64 << 30) as f64)
    } else if b >= 1 << 20 {
        format!("{:.1}MiB", b as f64 / (1u64 << 20) as f64)
    } else {
        format!("{:.1}KiB", b as f64 / 1024.0)
    }
}

impl Observer for HeartbeatSink {
    fn on_event(&mut self, event: &TelemetryEvent) {
        let line = match event {
            TelemetryEvent::Snapshot { phase, at_ns, snap } if self.beat(*at_ns) => {
                format!(
                    "[cfc] {phase:<18} {:>8} states  {:>8} trans  {:>7} st/s  \
                     frontier {:>6}  depth {:>4}  mem {:>9}",
                    fmt_count(snap.states),
                    fmt_count(snap.transitions),
                    fmt_count(snap.states_per_sec),
                    fmt_count(snap.frontier),
                    snap.depth,
                    fmt_bytes(snap.footprint.total_bytes()),
                )
            }
            TelemetryEvent::SpanEnd {
                phase,
                elapsed_ns,
                states,
                transitions,
                ..
            } if *elapsed_ns >= self.min_interval_ns => format!(
                "[cfc] {phase:<18} done in {:.1}s  ({} states, {} transitions)",
                *elapsed_ns as f64 / 1e9,
                fmt_count(*states),
                fmt_count(*transitions),
            ),
            _ => return,
        };
        // Best-effort: a full stderr must never fail the verification.
        let _ = writeln!(io::stderr(), "{line}");
    }
}

/// A machine-readable sink: one JSON object per line.
pub struct JsonlSink<W: Write> {
    out: W,
}

impl<W: Write> JsonlSink<W> {
    /// Wraps any writer.
    pub fn new(out: W) -> Self {
        JsonlSink { out }
    }

    /// Consumes the sink, returning the writer.
    pub fn into_inner(self) -> W {
        self.out
    }
}

impl JsonlSink<io::BufWriter<File>> {
    /// Creates (truncating) a JSONL file at `path`.
    pub fn create(path: &str) -> io::Result<Self> {
        Ok(JsonlSink::new(io::BufWriter::new(File::create(path)?)))
    }

    /// Opens `path` for appending, creating it if absent.
    pub fn append(path: &str) -> io::Result<Self> {
        let f = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(JsonlSink::new(io::BufWriter::new(f)))
    }
}

impl<W: Write> fmt::Debug for JsonlSink<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JsonlSink").finish_non_exhaustive()
    }
}

impl<W: Write> Observer for JsonlSink<W> {
    fn on_event(&mut self, event: &TelemetryEvent) {
        // Best-effort, and flushed on span ends so `tail -f` works.
        let _ = writeln!(self.out, "{}", event.to_json_line());
        if matches!(event, TelemetryEvent::SpanEnd { .. }) {
            let _ = self.out.flush();
        }
    }
}

/// An in-memory sink for tests. Cloning shares the underlying buffer,
/// so keep one handle and pass a clone to [`Telemetry::with_sink`].
#[derive(Clone, Debug, Default)]
pub struct Recorder {
    events: Rc<RefCell<Vec<TelemetryEvent>>>,
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Recorder::default()
    }

    /// A copy of everything recorded so far.
    pub fn events(&self) -> Vec<TelemetryEvent> {
        self.events.borrow().clone()
    }

    /// Drains and returns everything recorded so far.
    pub fn take(&self) -> Vec<TelemetryEvent> {
        std::mem::take(&mut *self.events.borrow_mut())
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.borrow().len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.borrow().is_empty()
    }
}

impl Observer for Recorder {
    fn on_event(&mut self, event: &TelemetryEvent) {
        self.events.borrow_mut().push(event.clone());
    }
}

// ---------------------------------------------------------------------------
// The Telemetry handle and ambient installation
// ---------------------------------------------------------------------------

type SinkHandle = Rc<RefCell<dyn Observer>>;

/// A bundle of sinks, a clock, and a sampling stride. Cloning is cheap
/// (reference counts); the default is inert — no sinks, wall clock,
/// [`DEFAULT_STRIDE`].
#[derive(Clone, Default)]
pub struct Telemetry {
    sinks: Vec<SinkHandle>,
    // Shared across clones (the drivers clone the ambient handle per
    // entry), so one lazily-installed wall clock times every span of a
    // run and `at_ns` is monotone across the whole event stream.
    clock: Rc<RefCell<Option<Rc<dyn Clock>>>>,
    stride: Option<u64>,
    // Set once `runtime()` has attached the CFC_PROGRESS /
    // CFC_TELEMETRY_JSONL sinks, so a driver entered under an
    // already-instrumented wrapper does not attach them twice.
    env_attached: bool,
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Telemetry")
            .field("sinks", &self.sinks.len())
            .field("clock", &self.clock.borrow())
            .field("stride", &self.stride)
            .finish()
    }
}

impl Telemetry {
    /// An empty handle to configure with the `with_*` builders. With no
    /// sinks attached it is inert: nothing is emitted.
    pub fn new() -> Self {
        Telemetry::default()
    }

    /// Attaches a sink. Multiple sinks all receive every event.
    pub fn with_sink(mut self, sink: impl Observer + 'static) -> Self {
        self.sinks.push(Rc::new(RefCell::new(sink)));
        self
    }

    /// Substitutes the clock (tests inject a
    /// [`ManualClock`](cfc_core::ManualClock) here; share it by passing
    /// an `Rc` clone, which implements [`Clock`] by deref).
    pub fn with_clock(self, clock: impl Clock + 'static) -> Self {
        *self.clock.borrow_mut() = Some(Rc::new(clock));
        self
    }

    /// Sets the expansions-per-sample stride (must be nonzero).
    pub fn with_stride(mut self, stride: u64) -> Self {
        assert!(stride > 0, "telemetry stride must be nonzero");
        self.stride = Some(stride);
        self
    }

    /// True when at least one sink is attached.
    pub fn is_active(&self) -> bool {
        !self.sinks.is_empty()
    }

    /// The configured clock. When none was injected, a [`WallClock`]
    /// is installed on first use and shared with every clone of this
    /// handle, so all spans of a run read one coherent timeline.
    pub fn clock(&self) -> Rc<dyn Clock> {
        if let Some(c) = &*self.clock.borrow() {
            return c.clone();
        }
        let wall: Rc<dyn Clock> = Rc::new(WallClock::new());
        *self.clock.borrow_mut() = Some(wall.clone());
        wall
    }

    /// Opens a phase span: emits [`TelemetryEvent::SpanStart`] (when
    /// active) and returns the guard that samples, closes the span,
    /// and measures its wall time. The guard emits a balancing
    /// [`TelemetryEvent::SpanEnd`] on drop if not finished explicitly.
    pub fn span(&self, phase: Phase) -> PhaseSpan {
        let clock = self.clock();
        let start_ns = clock.now_ns();
        let span = PhaseSpan {
            tel: self.clone(),
            clock,
            phase,
            start_ns,
            stride: self.stride.unwrap_or(DEFAULT_STRIDE),
            countdown: self.stride.unwrap_or(DEFAULT_STRIDE),
            last_states: 0,
            last_transitions: 0,
            last_footprint: StoreFootprint::default(),
            finished: false,
        };
        if span.active() {
            span.tel.emit(&TelemetryEvent::SpanStart {
                phase,
                at_ns: start_ns,
            });
        }
        span
    }

    fn emit(&self, event: &TelemetryEvent) {
        for sink in &self.sinks {
            sink.borrow_mut().on_event(event);
        }
    }
}

thread_local! {
    static CURRENT: RefCell<Telemetry> = RefCell::new(Telemetry::new());
}

/// Installs `tel` as this thread's ambient telemetry for the duration
/// of `f`. Every driver entered inside `f` — directly or through the
/// `checks` wrappers — emits its events to `tel`'s sinks. Nests; the
/// previous handle is restored on exit (including unwinds).
pub fn with_telemetry<T>(tel: &Telemetry, f: impl FnOnce() -> T) -> T {
    let _restore = install(tel);
    f()
}

/// RAII form of [`with_telemetry`] for the crate-internal check
/// wrappers: installs `tel` ambiently until the guard drops.
#[derive(Debug)]
pub(crate) struct Installed(Option<Telemetry>);

impl Drop for Installed {
    fn drop(&mut self) {
        let prev = self.0.take().expect("restore exactly once");
        CURRENT.with(|c| *c.borrow_mut() = prev);
    }
}

pub(crate) fn install(tel: &Telemetry) -> Installed {
    let prev = CURRENT.with(|c| std::mem::replace(&mut *c.borrow_mut(), tel.clone()));
    Installed(Some(prev))
}

/// A clone of this thread's ambient telemetry handle.
pub fn current() -> Telemetry {
    CURRENT.with(|c| c.borrow().clone())
}

/// The handle a driver actually runs under: the ambient handle, plus a
/// stderr heartbeat when the `CFC_PROGRESS` environment variable asks
/// for one, plus a JSONL sink when `CFC_TELEMETRY_JSONL` names a file.
/// Called once per driver entry, never in a hot loop.
pub(crate) fn runtime() -> Telemetry {
    let mut tel = current();
    if tel.env_attached {
        return tel;
    }
    let env = std::env::var("CFC_PROGRESS").ok();
    let env_on = env
        .as_deref()
        .is_some_and(|v| !v.is_empty() && v != "0" && v != "off" && v != "false");
    if env_on {
        let interval = env
            .as_deref()
            .and_then(|v| v.parse::<f64>().ok())
            .filter(|s| *s > 0.0)
            .unwrap_or(5.0);
        tel = tel.with_sink(HeartbeatSink::stderr(interval));
    }
    if let Ok(path) = std::env::var("CFC_TELEMETRY_JSONL") {
        if !path.is_empty() {
            if let Ok(sink) = JsonlSink::append(&path) {
                tel = tel.with_sink(sink);
            }
        }
    }
    tel.env_attached = true;
    tel
}

// ---------------------------------------------------------------------------
// Phase spans
// ---------------------------------------------------------------------------

/// An open phase span: created by [`Telemetry::span`], sampled with
/// [`PhaseSpan::tick`], closed with [`PhaseSpan::finish`] (or by drop,
/// which emits a balancing end event with the last sampled counters).
pub struct PhaseSpan {
    tel: Telemetry,
    clock: Rc<dyn Clock>,
    phase: Phase,
    start_ns: u64,
    stride: u64,
    countdown: u64,
    last_states: u64,
    last_transitions: u64,
    last_footprint: StoreFootprint,
    finished: bool,
}

impl fmt::Debug for PhaseSpan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PhaseSpan")
            .field("phase", &self.phase)
            .field("active", &self.active())
            .field("start_ns", &self.start_ns)
            .finish_non_exhaustive()
    }
}

impl PhaseSpan {
    fn active(&self) -> bool {
        self.tel.is_active()
    }

    /// The hot-loop hook: call once per expansion. Decrements a
    /// countdown and returns immediately until the stride elapses;
    /// only then is `probe` invoked and the clock read. With no sink
    /// attached the cost is one branch and `probe` is never called.
    #[inline]
    pub fn tick(&mut self, probe: impl FnOnce() -> Snapshot) {
        if !self.active() {
            return;
        }
        self.countdown -= 1;
        if self.countdown > 0 {
            return;
        }
        self.countdown = self.stride;
        let now = self.clock.now_ns();
        self.emit_sample(probe(), now);
    }

    /// Wall time elapsed on this span so far. Reads the clock.
    pub fn elapsed_ns(&self) -> u64 {
        self.clock.now_ns().saturating_sub(self.start_ns)
    }

    /// Closes the span: emits one final [`TelemetryEvent::Snapshot`]
    /// carrying `final_sample` plus the [`TelemetryEvent::SpanEnd`],
    /// all stamped with a single clock reading, and returns the span's
    /// wall time in nanoseconds. The final snapshot therefore agrees
    /// exactly with the stats a driver returns when it stores this
    /// value as its `wall_ns`.
    pub fn finish(mut self, final_sample: Snapshot) -> u64 {
        let now = self.clock.now_ns();
        let elapsed = now.saturating_sub(self.start_ns);
        if self.active() {
            self.emit_sample(final_sample, now);
            self.tel.emit(&TelemetryEvent::SpanEnd {
                phase: self.phase,
                at_ns: now,
                elapsed_ns: elapsed,
                states: final_sample.states,
                transitions: final_sample.transitions,
            });
        }
        self.finished = true;
        elapsed
    }

    /// Emits index-growth events derived from footprint deltas,
    /// then the snapshot itself. `now` is a clock reading taken by the
    /// caller so one reading can stamp a snapshot and a span end.
    fn emit_sample(&mut self, mut s: Snapshot, now: u64) {
        s.elapsed_ns = now.saturating_sub(self.start_ns);
        s.states_per_sec = rate_per_sec(s.states, s.elapsed_ns);
        // The first sample sees the index's initial allocation, which
        // is not a growth event; report only subsequent doublings.
        if self.last_footprint.index_bytes > 0
            && s.footprint.index_bytes > self.last_footprint.index_bytes
        {
            self.tel.emit(&TelemetryEvent::IndexGrowth {
                phase: self.phase,
                at_ns: now,
                index_bytes: s.footprint.index_bytes,
            });
        }
        self.last_footprint = s.footprint;
        self.last_states = s.states;
        self.last_transitions = s.transitions;
        self.tel.emit(&TelemetryEvent::Snapshot {
            phase: self.phase,
            at_ns: now,
            snap: s,
        });
    }
}

impl Drop for PhaseSpan {
    fn drop(&mut self) {
        if self.finished || !self.active() {
            return;
        }
        // Early exit (violation found, budget error): balance the
        // stream with the last sampled counters.
        let now = self.clock.now_ns();
        self.tel.emit(&TelemetryEvent::SpanEnd {
            phase: self.phase,
            at_ns: now,
            elapsed_ns: now.saturating_sub(self.start_ns),
            states: self.last_states,
            transitions: self.last_transitions,
        });
    }
}

/// Integer cumulative throughput: `states * 1e9 / elapsed_ns`, 0 when
/// no time has passed. Integer so stats and snapshots stay `Eq`.
pub fn rate_per_sec(states: u64, elapsed_ns: u64) -> u64 {
    if elapsed_ns == 0 {
        0
    } else {
        // Saturate: a sub-nanosecond-per-state reading (only reachable
        // with a manual clock) must not wrap.
        u64::try_from(u128::from(states) * 1_000_000_000 / u128::from(elapsed_ns))
            .unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfc_core::ManualClock;
    use std::rc::Rc;

    fn sample(states: u64) -> Snapshot {
        Snapshot {
            states,
            transitions: states.saturating_sub(1),
            frontier: 3,
            depth: 2,
            footprint: StoreFootprint {
                arena_bytes: states * 8,
                index_bytes: 64,
                edge_bytes: 0,
            },
            ..Snapshot::default()
        }
    }

    #[test]
    fn json_round_trip_every_variant() {
        let events = vec![
            TelemetryEvent::SpanStart {
                phase: Phase::SafetyDfs,
                at_ns: 7,
            },
            TelemetryEvent::Snapshot {
                phase: Phase::ProgressBfs,
                at_ns: 120,
                snap: Snapshot {
                    states: 10,
                    transitions: 9,
                    frontier: 4,
                    depth: 0,
                    states_pruned_por: 2,
                    orbits_merged: 1,
                    transitions_slept: 3,
                    footprint: StoreFootprint {
                        arena_bytes: 80,
                        index_bytes: 64,
                        edge_bytes: 40,
                    },
                    elapsed_ns: 100,
                    states_per_sec: 100_000_000,
                },
            },
            TelemetryEvent::IndexGrowth {
                phase: Phase::SafetyDfs,
                at_ns: 60,
                index_bytes: 4096,
            },
            TelemetryEvent::SpanEnd {
                phase: Phase::WitnessValidation,
                at_ns: 200,
                elapsed_ns: 193,
                states: 10,
                transitions: 9,
            },
        ];
        for e in &events {
            let line = e.to_json_line();
            let back = TelemetryEvent::parse_json_line(&line)
                .unwrap_or_else(|| panic!("unparseable line: {line}"));
            assert_eq!(&back, e, "round trip through {line}");
        }
        assert_eq!(TelemetryEvent::parse_json_line(""), None);
        assert_eq!(
            TelemetryEvent::parse_json_line("{\"event\":\"bogus\"}"),
            None
        );
    }

    #[test]
    fn every_phase_name_round_trips() {
        for p in [
            Phase::SafetyDfs,
            Phase::ProgressCheck,
            Phase::ProgressBfs,
            Phase::BackPropagation,
            Phase::LivenessCheck,
            Phase::LivenessGraph,
            Phase::SccAnalysis,
            Phase::WitnessValidation,
            Phase::ExtractAutomaton,
            Phase::Lint,
        ] {
            assert_eq!(Phase::parse(p.as_str()), Some(p));
        }
        assert_eq!(Phase::parse("nonsense"), None);
    }

    #[test]
    fn span_samples_on_stride_and_finishes_exactly() {
        let clock = Rc::new(ManualClock::new());
        let rec = Recorder::new();
        let tel = Telemetry::new()
            .with_sink(rec.clone())
            .with_clock(clock.clone())
            .with_stride(4);
        let span_wall;
        {
            let mut span = tel.span(Phase::SafetyDfs);
            for i in 1..=10u64 {
                clock.advance(10);
                span.tick(|| sample(i));
            }
            clock.advance(10);
            span_wall = span.finish(sample(10));
        }
        assert_eq!(span_wall, 110);
        let events = rec.events();
        // SpanStart, ticks 4 and 8 sampled, the final snapshot, SpanEnd.
        let kinds: Vec<_> = events
            .iter()
            .map(|e| match e {
                TelemetryEvent::SpanStart { .. } => "start",
                TelemetryEvent::Snapshot { .. } => "snap",
                TelemetryEvent::SpanEnd { .. } => "end",
                _ => "other",
            })
            .collect();
        assert_eq!(kinds, ["start", "snap", "snap", "snap", "end"]);
        let TelemetryEvent::Snapshot { snap: last, .. } = &events[3] else {
            panic!("expected final snapshot");
        };
        assert_eq!(last.states, 10);
        assert_eq!(last.elapsed_ns, 110);
        assert_eq!(last.states_per_sec, rate_per_sec(10, 110));
        let TelemetryEvent::SpanEnd {
            elapsed_ns, states, ..
        } = &events[4]
        else {
            panic!("expected span end");
        };
        assert_eq!(*elapsed_ns, 110);
        assert_eq!(*states, 10);
    }

    #[test]
    fn dropped_span_balances_the_stream() {
        let rec = Recorder::new();
        let tel = Telemetry::new()
            .with_sink(rec.clone())
            .with_clock(ManualClock::new());
        {
            let mut span = tel.span(Phase::LivenessGraph);
            span.tick(|| sample(1)); // stride not reached: no snapshot
        } // dropped without finish
        let events = rec.events();
        assert_eq!(events.len(), 2);
        assert!(matches!(events[0], TelemetryEvent::SpanStart { .. }));
        assert!(matches!(events[1], TelemetryEvent::SpanEnd { .. }));
    }

    #[test]
    fn index_growth_derived_from_footprint_deltas() {
        let rec = Recorder::new();
        let tel = Telemetry::new()
            .with_sink(rec.clone())
            .with_clock(ManualClock::new())
            .with_stride(1);
        let mut span = tel.span(Phase::ProgressBfs);
        let mut s = sample(1);
        span.tick(|| s); // first sample: initial allocation, no growth events
        s.footprint.index_bytes = 128;
        span.tick(|| s);
        span.finish(s);
        let events = rec.events();
        assert!(events.iter().any(|e| matches!(
            e,
            TelemetryEvent::IndexGrowth {
                index_bytes: 128,
                ..
            }
        )));
        // Exactly one: unchanged footprints emit nothing.
        assert_eq!(
            events
                .iter()
                .filter(|e| matches!(e, TelemetryEvent::IndexGrowth { .. }))
                .count(),
            1
        );
    }

    #[test]
    fn ambient_handle_nests_and_restores() {
        assert!(!current().is_active());
        let rec = Recorder::new();
        let tel = Telemetry::new().with_sink(rec.clone());
        with_telemetry(&tel, || {
            assert!(current().is_active());
            with_telemetry(&Telemetry::new(), || {
                assert!(!current().is_active());
            });
            assert!(current().is_active());
        });
        assert!(!current().is_active());
    }

    #[test]
    fn inactive_span_never_probes_but_still_measures() {
        let clock = Rc::new(ManualClock::new());
        let tel = Telemetry::new().with_clock(clock.clone());
        let mut span = tel.span(Phase::SafetyDfs);
        clock.advance(42);
        span.tick(|| panic!("probe must not run without sinks"));
        assert_eq!(span.finish(Snapshot::default()), 42);
    }

    #[test]
    fn rate_is_cumulative_and_guarded() {
        assert_eq!(rate_per_sec(100, 0), 0);
        assert_eq!(rate_per_sec(100, 1_000_000_000), 100);
        assert_eq!(rate_per_sec(1, 2_000_000_000), 0);
        assert_eq!(rate_per_sec(u64::MAX, 1), u64::MAX);
    }
}
