//! `hesgx-obs` — deterministic, dependency-free metrics and tracing.
//!
//! The workspace charges every enclave boundary crossing through a *virtual
//! clock* ([`hesgx-tee`]'s `CostBreakdown`), which is what makes the paper's
//! Fig. 8 decomposition reproducible. This crate makes those charges — and
//! the recovery / paging / parallelism machinery around them — *auditable*:
//! a [`Recorder`] collects hierarchical spans, counters, gauges, log2
//! histograms, and (when requested) an ordered per-request trace timeline,
//! and renders **byte-stable** outputs so the same seed produces the same
//! metrics file on every run and at every thread-pool size.
//!
//! # Span taxonomy
//!
//! | span | recorded by | cost carried |
//! |------|-------------|--------------|
//! | `session.provision` | `hesgx-core` pipeline | key ceremony + sealing |
//! | `infer.layer[i].he` | `hesgx-core` pipeline | wall time only (outside) |
//! | `infer.layer[i].ecall` | `hesgx-core` pipeline | full virtual-clock terms |
//! | `ecall.<name>` | `hesgx-tee` enclave | full virtual-clock terms |
//! | `recovery.retry` | `hesgx-core` recovery | per-attempt cost (zero-cost attempts included) |
//! | `epc.load` / `epc.evict` | `hesgx-tee` EPC | count only (ns live in the owning ecall's `paging_ns`) |
//!
//! The same names double as trace-event names on the timeline (DESIGN.md
//! §13), with instants for EPC loads/evictions, retry attempts, degraded
//! fallbacks, and noise-refresh decisions.
//!
//! # Determinism rules
//!
//! A [`SpanCost`] carries all six virtual-clock terms, but only the *modeled*
//! terms — `transition_ns`, `copy_ns`, `paging_ns` — plus entry counts,
//! counters, gauges, and histograms are encoded into
//! [`Recorder::snapshot_json`] and [`Recorder::export_prometheus`]. The
//! remaining terms (`real_ns`, `slowdown_ns`, `jitter_ns`) derive from
//! wall-clock measurements and are therefore machine- and run-dependent;
//! they stay available in memory (for the ns-for-ns reconciliation against
//! `total_enclave_cost`) but never reach an exported byte. Trace timestamps
//! live on a dedicated virtual trace clock ([`Recorder::trace_advance`]).
//! Snapshot maps are `BTreeMap`s, so key order is sorted and every encoding
//! is byte-stable.
//!
//! # Zero cost when off
//!
//! The default [`Recorder`] is disabled: it holds no allocation and every
//! recording method is a single `Option` check. Hot paths thread it by value
//! (it is `Clone`) and pay nothing unless observability was requested.
//! Timeline recording is a second opt-in ([`Recorder::with_timeline`]) on
//! top of the enabled state, so aggregate-only users pay nothing for event
//! storage either.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod export;
mod hist;
pub mod prof;
mod trace;

pub use hist::{bucket_index, bucket_upper, Histogram, BUCKETS};
pub use prof::{DriftEntry, DriftReport, Hotspot, Profiler};
pub use trace::{TraceEvent, TracePhase};

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};

/// Canonical counter names, so call sites and reports agree on spelling.
pub mod counters {
    /// ECALLs executed (one per enclave boundary round trip).
    pub const ECALLS: &str = "ecall.calls";
    /// World-switch transitions charged (2 per ECALL + 2 per nested OCALL).
    pub const ECALL_TRANSITIONS: &str = "ecall.transitions";
    /// Bytes marshalled across the boundary (inputs + outputs).
    pub const BYTES_MARSHALLED: &str = "ecall.bytes_marshalled";
    /// EPC page faults (demand loads of non-resident pages).
    pub const EPC_PAGE_FAULTS: &str = "epc.page_faults";
    /// EPC page evictions (capacity pressure).
    pub const EPC_EVICTIONS: &str = "epc.evictions";
    /// EPC resident-page hits.
    pub const EPC_HITS: &str = "epc.hits";
    /// Attempts started under `retry_with_cost` (first tries included).
    pub const RECOVERY_ATTEMPTS: &str = "recovery.attempts";
    /// Retries spent (attempts beyond the first).
    pub const RECOVERY_RETRIES: &str = "recovery.retries";
    /// Session re-provisions after sealed-state loss.
    pub const REPROVISIONS: &str = "recovery.reprovisions";
    /// Requests served exactly (hybrid path).
    pub const SERVED_EXACT: &str = "served.exact";
    /// Requests served degraded (pure-HE fallback).
    pub const SERVED_DEGRADED: &str = "served.degraded";
    /// Faults the chaos injector actually delivered.
    pub const FAULTS_INJECTED: &str = "faults.injected";
    /// Work items submitted to the parallel executor.
    pub const PAR_TASKS: &str = "par.tasks";
    /// Attestation quote verifications performed.
    pub const ATTESTATION_VERIFIES: &str = "attestation.verifies";
    /// Standalone `ecall_NoiseProbe` calls (the Auto refresh decision and
    /// post-refresh measurements). Budgets the operator ECALLs report from
    /// their own decryption are not counted.
    pub const NOISE_PROBES: &str = "noise.probes";
    /// Noise refreshes actually taken (Always mode or Auto below threshold).
    pub const NOISE_REFRESHES: &str = "noise.refreshes";
    /// Auto-mode refreshes skipped because the budget was above threshold.
    pub const NOISE_REFRESH_SKIPS: &str = "noise.refresh_skips";
    /// Transciphered-ingress payloads opened and re-encrypted under FV.
    pub const TRANSCIPHERS: &str = "ingress.transciphers";
    /// Client upload bytes accepted at ingress (stream payloads or FV
    /// ciphertext maps, whichever the request shipped).
    pub const INGRESS_UPLOAD_BYTES: &str = "ingress.upload_bytes";
}

/// Virtual-clock cost attached to a span entry.
///
/// Mirrors the six terms of `hesgx-tee`'s `CostBreakdown` without depending
/// on it (this crate sits below the rest of the workspace). All arithmetic
/// saturates — metrics must never panic the pipeline they observe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanCost {
    /// Measured wall/CPU nanoseconds (machine-dependent; excluded from snapshots).
    pub real_ns: u64,
    /// In-enclave slowdown term (derived from `real_ns`; excluded from snapshots).
    pub slowdown_ns: u64,
    /// Modeled world-switch transition nanoseconds (deterministic).
    pub transition_ns: u64,
    /// Modeled marshalling-copy nanoseconds (deterministic).
    pub copy_ns: u64,
    /// Modeled EPC paging nanoseconds (deterministic).
    pub paging_ns: u64,
    /// Signed jitter term (derived from `real_ns`; excluded from snapshots).
    pub jitter_ns: i64,
}

impl SpanCost {
    /// Component-wise saturating sum.
    #[must_use]
    pub fn saturating_add(self, other: Self) -> Self {
        Self {
            real_ns: self.real_ns.saturating_add(other.real_ns),
            slowdown_ns: self.slowdown_ns.saturating_add(other.slowdown_ns),
            transition_ns: self.transition_ns.saturating_add(other.transition_ns),
            copy_ns: self.copy_ns.saturating_add(other.copy_ns),
            paging_ns: self.paging_ns.saturating_add(other.paging_ns),
            jitter_ns: self.jitter_ns.saturating_add(other.jitter_ns),
        }
    }

    /// All six terms combined (saturating; jitter clamps at zero).
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.real_ns
            .saturating_add(self.slowdown_ns)
            .saturating_add(self.transition_ns)
            .saturating_add(self.copy_ns)
            .saturating_add(self.paging_ns)
            .saturating_add_signed(self.jitter_ns)
    }

    /// The deterministic (modeled) terms only: transitions + copies + paging.
    /// This is what the byte-stable snapshot encodes.
    #[must_use]
    pub fn model_ns(&self) -> u64 {
        self.transition_ns
            .saturating_add(self.copy_ns)
            .saturating_add(self.paging_ns)
    }
}

/// Aggregated statistics of one span path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanStats {
    /// Number of entries recorded under this path.
    pub entries: u64,
    /// Saturating sum of every entry's cost.
    pub cost: SpanCost,
}

#[derive(Default)]
pub(crate) struct State {
    pub(crate) spans: BTreeMap<String, SpanStats>,
    pub(crate) counters: BTreeMap<String, u64>,
    pub(crate) gauges: BTreeMap<String, Vec<u64>>,
    pub(crate) hists: BTreeMap<String, Histogram>,
    pub(crate) trace: Option<trace::TraceState>,
}

/// A shared handle onto a metrics sink. Cheap to clone; `Default` is the
/// disabled recorder, whose every method is a no-op behind one `Option`
/// check.
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Mutex<State>>>,
}

impl fmt::Debug for Recorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.is_enabled())
            .field("timeline", &self.trace_enabled())
            .finish()
    }
}

impl Recorder {
    /// The no-op recorder (same as `Recorder::default()`).
    #[must_use]
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// A live recorder with empty state (aggregates only, no timeline).
    #[must_use]
    pub fn enabled() -> Self {
        Self {
            inner: Some(Arc::new(Mutex::new(State::default()))),
        }
    }

    /// A live recorder that additionally keeps the ordered trace timeline.
    #[must_use]
    pub fn with_timeline() -> Self {
        Self {
            inner: Some(Arc::new(Mutex::new(State {
                trace: Some(trace::TraceState::default()),
                ..State::default()
            }))),
        }
    }

    /// Whether this handle records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether this handle keeps a trace timeline (implies [`Self::is_enabled`]).
    #[must_use]
    pub fn trace_enabled(&self) -> bool {
        self.lock().is_some_and(|state| state.trace.is_some())
    }

    fn lock(&self) -> Option<MutexGuard<'_, State>> {
        // A poisoned metrics mutex must never take the pipeline down with
        // it; the state is plain counters, so the data stays usable.
        self.inner
            .as_ref()
            .map(|m| m.lock().unwrap_or_else(std::sync::PoisonError::into_inner))
    }

    /// Records one entry under `path`, accumulating `cost`.
    pub fn record_span(&self, path: &str, cost: SpanCost) {
        if let Some(mut state) = self.lock() {
            let stats = state.spans.entry(path.to_owned()).or_default();
            stats.entries = stats.entries.saturating_add(1);
            stats.cost = stats.cost.saturating_add(cost);
        }
    }

    /// Records an entry under `path` that crossed no boundary and was
    /// charged nothing — e.g. a retry attempt dropped before its ECALL.
    /// Keeps entry counts reconcilable with fault reports even when the
    /// cost books legitimately show zero.
    pub fn record_zero_attempt(&self, path: &str) {
        self.record_span(path, SpanCost::default());
    }

    /// Adds `by` to the named counter (saturating).
    pub fn incr(&self, counter: &str, by: u64) {
        if let Some(mut state) = self.lock() {
            let slot = state.counters.entry(counter.to_owned()).or_default();
            *slot = slot.saturating_add(by);
        }
    }

    /// Appends one sample to the named gauge series (trajectory order is
    /// kept; Prometheus exports the latest value, the snapshot the series).
    pub fn gauge(&self, name: &str, value: u64) {
        if let Some(mut state) = self.lock() {
            state.gauges.entry(name.to_owned()).or_default().push(value);
        }
    }

    /// Records one observation into the named log2-bucket histogram.
    pub fn observe(&self, name: &str, value: u64) {
        if let Some(mut state) = self.lock() {
            state
                .hists
                .entry(name.to_owned())
                .or_default()
                .record(value);
        }
    }

    /// Opens a duration slice on the timeline (no-op without a timeline).
    pub fn trace_begin(&self, name: &str, args: &[(&str, String)]) {
        if let Some(mut state) = self.lock() {
            if let Some(trace) = state.trace.as_mut() {
                trace.push(TracePhase::Begin, name, args);
            }
        }
    }

    /// Closes the innermost open slice of the same name on the timeline.
    pub fn trace_end(&self, name: &str) {
        if let Some(mut state) = self.lock() {
            if let Some(trace) = state.trace.as_mut() {
                trace.push(TracePhase::End, name, &[]);
            }
        }
    }

    /// Drops a zero-width marker on the timeline.
    pub fn trace_instant(&self, name: &str, args: &[(&str, String)]) {
        if let Some(mut state) = self.lock() {
            if let Some(trace) = state.trace.as_mut() {
                trace.push(TracePhase::Instant, name, args);
            }
        }
    }

    /// Advances the virtual trace clock by `ns` *modeled* nanoseconds —
    /// called by the instrumented code with deterministic cost terms only
    /// ([`SpanCost::model_ns`]), never with wall-clock measurements.
    pub fn trace_advance(&self, ns: u64) {
        if let Some(mut state) = self.lock() {
            if let Some(trace) = state.trace.as_mut() {
                trace.vnow = trace.vnow.saturating_add(ns);
            }
        }
    }

    /// A copy of the recorded timeline, in order (empty without a timeline).
    #[must_use]
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.lock()
            .and_then(|state| state.trace.as_ref().map(|t| t.events.clone()))
            .unwrap_or_default()
    }

    /// Events discarded after the timeline hit its capacity cap.
    #[must_use]
    pub fn trace_dropped(&self) -> u64 {
        self.lock()
            .and_then(|state| state.trace.as_ref().map(|t| t.dropped))
            .unwrap_or(0)
    }

    /// Current statistics of one span path, if any entries were recorded.
    #[must_use]
    pub fn span(&self, path: &str) -> Option<SpanStats> {
        self.lock().and_then(|state| state.spans.get(path).copied())
    }

    /// Current value of a counter (0 when absent or disabled).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.lock()
            .and_then(|state| state.counters.get(name).copied())
            .unwrap_or(0)
    }

    /// The recorded series of a gauge (empty when absent or disabled).
    #[must_use]
    pub fn gauge_series(&self, name: &str) -> Vec<u64> {
        self.lock()
            .and_then(|state| state.gauges.get(name).cloned())
            .unwrap_or_default()
    }

    /// A copy of the named histogram, if any observations were recorded.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.lock().and_then(|state| state.hists.get(name).cloned())
    }

    /// All spans whose path starts with `prefix`, in sorted order.
    #[must_use]
    pub fn spans_with_prefix(&self, prefix: &str) -> Vec<(String, SpanStats)> {
        match self.lock() {
            Some(state) => state
                .spans
                .range(prefix.to_owned()..)
                .take_while(|(k, _)| k.starts_with(prefix))
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            None => Vec::new(),
        }
    }

    /// Saturating sum of the full (six-term) costs of every span matching
    /// `prefix` — the in-memory side of the reconciliation invariant.
    #[must_use]
    pub fn sum_spans(&self, prefix: &str) -> SpanCost {
        self.spans_with_prefix(prefix)
            .into_iter()
            .fold(SpanCost::default(), |acc, (_, s)| {
                acc.saturating_add(s.cost)
            })
    }

    /// Clears all aggregates and timeline events (the handle stays enabled,
    /// and a timeline recorder stays a timeline recorder; the trace clock
    /// restarts at zero).
    pub fn reset(&self) {
        if let Some(mut state) = self.lock() {
            state.spans.clear();
            state.counters.clear();
            state.gauges.clear();
            state.hists.clear();
            if let Some(trace) = state.trace.as_mut() {
                *trace = trace::TraceState::default();
            }
        }
    }

    /// Byte-stable JSON snapshot: sorted keys, deterministic terms only
    /// (`transition_ns`, `copy_ns`, `paging_ns`, entry counts, counters,
    /// gauges, histogram buckets with bucket-derived percentiles).
    /// Wall-derived terms never reach the file — see the crate docs.
    #[must_use]
    pub fn snapshot_json(&self) -> String {
        let state = self.lock();
        let empty = State::default();
        let state: &State = state.as_deref().unwrap_or(&empty);
        let mut out = String::from("{\"counters\":{");
        push_joined(&mut out, state.counters.iter(), |out, (name, value)| {
            out.push_str(&format!("{}:{value}", json_string(name)));
        });
        out.push_str("},\"gauges\":{");
        push_joined(&mut out, state.gauges.iter(), |out, (name, series)| {
            out.push_str(&format!("{}:[", json_string(name)));
            push_joined(out, series.iter(), |out, v| out.push_str(&v.to_string()));
            out.push(']');
        });
        out.push_str("},\"hists\":{");
        push_joined(&mut out, state.hists.iter(), |out, (name, hist)| {
            out.push_str(&format!("{}:{{\"buckets\":[", json_string(name)));
            push_joined(out, hist.nonzero_buckets().into_iter(), |out, (i, n)| {
                out.push_str(&format!("[{i},{n}]"));
            });
            out.push_str(&format!(
                "],\"count\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"sum\":{}}}",
                hist.count(),
                hist.percentile(50),
                hist.percentile(95),
                hist.percentile(99),
                hist.sum()
            ));
        });
        out.push_str("},\"spans\":{");
        push_joined(&mut out, state.spans.iter(), |out, (path, stats)| {
            out.push_str(&format!(
                "{}:{{\"copy_ns\":{},\"entries\":{},\"paging_ns\":{},\"transition_ns\":{}}}",
                json_string(path),
                stats.cost.copy_ns,
                stats.entries,
                stats.cost.paging_ns,
                stats.cost.transition_ns
            ));
        });
        out.push_str("}}");
        out
    }

    /// Byte-stable Chrome trace-event JSON of the timeline, loadable in
    /// Perfetto or `about://tracing`. Empty `traceEvents` without a
    /// timeline — the exporter never fails.
    #[must_use]
    pub fn export_chrome_trace(&self) -> String {
        let events = self.trace_events();
        export::chrome_trace(&events)
    }

    /// Byte-stable Prometheus text exposition of the aggregate state
    /// (counters, span entries + modeled ns, gauges, histograms).
    #[must_use]
    pub fn export_prometheus(&self) -> String {
        let state = self.lock();
        let empty = State::default();
        export::prometheus(state.as_deref().unwrap_or(&empty))
    }
}

/// Appends `render(item)` for each item, comma-separated.
fn push_joined<I, T>(out: &mut String, items: I, mut render: impl FnMut(&mut String, T))
where
    I: Iterator<Item = T>,
{
    for (i, item) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        render(out, item);
    }
}

/// Minimal JSON string encoding (span paths and counter names are ASCII
/// identifiers, but quoting defensively costs nothing).
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const EMPTY_SNAPSHOT: &str = "{\"counters\":{},\"gauges\":{},\"hists\":{},\"spans\":{}}";

    fn cost(real: u64, transition: u64, copy: u64, paging: u64, jitter: i64) -> SpanCost {
        SpanCost {
            real_ns: real,
            slowdown_ns: 0,
            transition_ns: transition,
            copy_ns: copy,
            paging_ns: paging,
            jitter_ns: jitter,
        }
    }

    #[test]
    fn disabled_recorder_is_a_no_op() {
        let r = Recorder::disabled();
        r.record_span("a", cost(1, 2, 3, 4, 5));
        r.incr(counters::ECALLS, 7);
        r.gauge("g", 1);
        r.observe("h", 1);
        r.trace_begin("t", &[]);
        r.trace_end("t");
        assert!(!r.is_enabled());
        assert!(!r.trace_enabled());
        assert_eq!(r.span("a"), None);
        assert_eq!(r.counter(counters::ECALLS), 0);
        assert_eq!(r.gauge_series("g"), Vec::<u64>::new());
        assert_eq!(r.histogram("h"), None);
        assert!(r.trace_events().is_empty());
        assert_eq!(r.snapshot_json(), EMPTY_SNAPSHOT);
        assert_eq!(
            r.export_chrome_trace(),
            "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[]}"
        );
        assert_eq!(r.export_prometheus(), "");
    }

    #[test]
    fn default_is_disabled() {
        assert!(!Recorder::default().is_enabled());
    }

    #[test]
    fn enabled_without_timeline_drops_trace_events() {
        let r = Recorder::enabled();
        r.trace_begin("x", &[]);
        r.trace_instant("y", &[]);
        assert!(r.is_enabled());
        assert!(!r.trace_enabled());
        assert!(r.trace_events().is_empty());
    }

    #[test]
    fn spans_accumulate_and_count_entries() {
        let r = Recorder::enabled();
        r.record_span("infer.layer[1].ecall", cost(10, 20, 30, 40, -5));
        r.record_span("infer.layer[1].ecall", cost(1, 2, 3, 4, 5));
        let s = r.span("infer.layer[1].ecall").expect("span recorded");
        assert_eq!(s.entries, 2);
        assert_eq!(s.cost.real_ns, 11);
        assert_eq!(s.cost.transition_ns, 22);
        assert_eq!(s.cost.copy_ns, 33);
        assert_eq!(s.cost.paging_ns, 44);
        assert_eq!(s.cost.jitter_ns, 0);
    }

    #[test]
    fn zero_attempts_count_entries_without_cost() {
        let r = Recorder::enabled();
        r.record_zero_attempt("recovery.retry");
        r.record_zero_attempt("recovery.retry");
        let s = r.span("recovery.retry").expect("span recorded");
        assert_eq!(s.entries, 2);
        assert_eq!(s.cost, SpanCost::default());
    }

    #[test]
    fn counters_saturate() {
        let r = Recorder::enabled();
        r.incr("c", u64::MAX - 1);
        r.incr("c", 5);
        assert_eq!(r.counter("c"), u64::MAX);
    }

    #[test]
    fn gauges_keep_trajectory_order() {
        let r = Recorder::enabled();
        r.gauge("noise.budget.layer[1].pre", 37);
        r.gauge("noise.budget.layer[1].pre", 12);
        r.gauge("noise.budget.layer[1].pre", 36);
        assert_eq!(
            r.gauge_series("noise.budget.layer[1].pre"),
            vec![37, 12, 36]
        );
    }

    #[test]
    fn histograms_observe_and_expose_percentiles() {
        let r = Recorder::enabled();
        for v in [1u64, 2, 1000, 1000, 1 << 30] {
            r.observe("ecall.bytes", v);
        }
        let h = r.histogram("ecall.bytes").expect("observed");
        assert_eq!(h.count(), 5);
        assert!(h.percentile(50) <= h.percentile(95));
        assert!(h.percentile(95) <= h.percentile(99));
    }

    #[test]
    fn span_cost_arithmetic_saturates() {
        let near = SpanCost {
            real_ns: u64::MAX - 1,
            slowdown_ns: u64::MAX - 1,
            transition_ns: u64::MAX - 1,
            copy_ns: u64::MAX - 1,
            paging_ns: u64::MAX - 1,
            jitter_ns: i64::MAX - 1,
        };
        let sum = near.saturating_add(near);
        assert_eq!(sum.transition_ns, u64::MAX);
        assert_eq!(sum.jitter_ns, i64::MAX);
        assert_eq!(sum.total_ns(), u64::MAX);
        assert_eq!(near.model_ns(), u64::MAX);
        let negative = SpanCost {
            jitter_ns: -10,
            ..SpanCost::default()
        };
        assert_eq!(negative.total_ns(), 0);
    }

    #[test]
    fn snapshot_is_sorted_and_insertion_order_independent() {
        let a = Recorder::enabled();
        a.record_span("b.span", cost(9, 1, 2, 3, 4));
        a.record_span("a.span", cost(9, 4, 5, 6, -4));
        a.incr("z.counter", 1);
        a.incr("a.counter", 2);
        a.gauge("g.series", 7);
        a.gauge("g.series", 8);
        a.observe("h.values", 3);

        let b = Recorder::enabled();
        b.incr("a.counter", 2);
        b.incr("z.counter", 1);
        b.observe("h.values", 3);
        b.gauge("g.series", 7);
        b.gauge("g.series", 8);
        b.record_span("a.span", cost(1234, 4, 5, 6, 99));
        b.record_span("b.span", cost(0, 1, 2, 3, -7));

        // Same deterministic terms, wildly different wall terms: identical bytes.
        assert_eq!(a.snapshot_json(), b.snapshot_json());
        assert_eq!(
            a.snapshot_json(),
            "{\"counters\":{\"a.counter\":2,\"z.counter\":1},\
             \"gauges\":{\"g.series\":[7,8]},\
             \"hists\":{\"h.values\":{\"buckets\":[[2,1]],\"count\":1,\"p50\":3,\"p95\":3,\"p99\":3,\"sum\":3}},\
             \"spans\":{\
             \"a.span\":{\"copy_ns\":5,\"entries\":1,\"paging_ns\":6,\"transition_ns\":4},\
             \"b.span\":{\"copy_ns\":2,\"entries\":1,\"paging_ns\":3,\"transition_ns\":1}}}"
        );
    }

    #[test]
    fn timeline_records_ordered_events_on_the_trace_clock() {
        let r = Recorder::with_timeline();
        assert!(r.trace_enabled());
        r.trace_begin("infer.layer[1].ecall", &[("layer", "1".to_owned())]);
        r.trace_instant("epc.load", &[]);
        r.trace_advance(10_000);
        r.trace_end("infer.layer[1].ecall");
        let events = r.trace_events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].phase, TracePhase::Begin);
        assert_eq!(events[0].ts_ns, 0);
        assert_eq!(events[1].phase, TracePhase::Instant);
        assert_eq!(events[1].ts_ns, 1);
        assert_eq!(events[2].phase, TracePhase::End);
        assert_eq!(events[2].ts_ns, 10_002);
        assert_eq!(r.trace_dropped(), 0);
        // Timestamps strictly increase.
        assert!(events.windows(2).all(|w| w[0].ts_ns < w[1].ts_ns));
    }

    #[test]
    fn exporters_are_deterministic_for_equal_state() {
        let build = || {
            let r = Recorder::with_timeline();
            r.trace_begin("session.request", &[("trace_id", "req-7-0".to_owned())]);
            r.trace_advance(500);
            r.trace_end("session.request");
            r.incr(counters::ECALLS, 3);
            r.record_span("ecall.x", cost(9, 10, 20, 30, 1));
            r.gauge("noise.budget.layer[3].pre", 14);
            r.observe("recovery.depth", 0);
            r
        };
        let (a, b) = (build(), build());
        assert_eq!(a.export_chrome_trace(), b.export_chrome_trace());
        assert_eq!(a.export_prometheus(), b.export_prometheus());
        assert_eq!(a.snapshot_json(), b.snapshot_json());
        let prom = a.export_prometheus();
        assert!(prom.contains("hesgx_counter{name=\"ecall.calls\"} 3\n"));
        assert!(prom.contains("hesgx_span_model_ns{span=\"ecall.x\"} 60\n"));
        assert!(prom.contains("hesgx_gauge{name=\"noise.budget.layer[3].pre\"} 14\n"));
        assert!(prom.contains("hesgx_hist_count{name=\"recovery.depth\"} 1\n"));
    }

    #[test]
    fn recorder_survives_a_poisoned_mutex() {
        // Regression test: a panic while holding the state mutex used to be
        // able to poison it; every later recording call must keep working
        // instead of turning into a second panic.
        let r = Recorder::enabled();
        r.incr("before", 1);
        let poisoner = r.clone();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _guard = poisoner
                .inner
                .as_ref()
                .expect("enabled recorder has state")
                .lock()
                .unwrap();
            panic!("poison the metrics mutex");
        }));
        assert!(panicked.is_err(), "the panic must have fired");
        r.incr("after", 1);
        r.record_span("s", SpanCost::default());
        r.gauge("g", 2);
        r.observe("h", 3);
        assert_eq!(r.counter("before"), 1);
        assert_eq!(r.counter("after"), 1);
        assert_eq!(r.span("s").map(|s| s.entries), Some(1));
        assert!(r.snapshot_json().contains("\"after\":1"));
        assert!(!r.export_prometheus().is_empty());
    }

    #[test]
    fn prefix_queries_and_sums() {
        let r = Recorder::enabled();
        r.record_span("infer.layer[0].he", cost(5, 0, 0, 0, 0));
        r.record_span("infer.layer[1].ecall", cost(1, 10, 20, 30, 2));
        r.record_span("infer.layer[2].ecall", cost(2, 100, 200, 300, -2));
        r.record_span("session.provision", cost(3, 7, 7, 7, 7));
        let ecalls: Vec<_> = r
            .spans_with_prefix("infer.")
            .into_iter()
            .filter(|(k, _)| k.ends_with(".ecall"))
            .collect();
        assert_eq!(ecalls.len(), 2);
        let sum = r.sum_spans("infer.");
        assert_eq!(sum.transition_ns, 110);
        assert_eq!(sum.copy_ns, 220);
        assert_eq!(sum.paging_ns, 330);
        assert_eq!(sum.real_ns, 8);
        assert_eq!(sum.jitter_ns, 0);
    }

    #[test]
    fn reset_clears_but_stays_enabled() {
        let r = Recorder::with_timeline();
        r.record_span("s", cost(1, 1, 1, 1, 1));
        r.incr("c", 1);
        r.gauge("g", 1);
        r.observe("h", 1);
        r.trace_begin("t", &[]);
        r.reset();
        assert!(r.is_enabled());
        assert!(r.trace_enabled(), "reset keeps the timeline mode");
        assert_eq!(r.span("s"), None);
        assert_eq!(r.counter("c"), 0);
        assert!(r.gauge_series("g").is_empty());
        assert_eq!(r.histogram("h"), None);
        assert!(r.trace_events().is_empty());
        assert_eq!(r.snapshot_json(), EMPTY_SNAPSHOT);
        // The trace clock restarted at zero.
        r.trace_begin("t2", &[]);
        assert_eq!(r.trace_events()[0].ts_ns, 0);
    }

    #[test]
    fn clones_share_state() {
        let r = Recorder::enabled();
        let clone = r.clone();
        clone.incr("shared", 3);
        assert_eq!(r.counter("shared"), 3);
    }

    #[test]
    fn json_strings_escape_control_characters() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("x\n"), "\"x\\n\"");
    }
}
