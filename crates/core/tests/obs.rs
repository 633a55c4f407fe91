//! Observability integration tests (DESIGN.md §12): the deterministic
//! snapshot contract and the ns-for-ns reconciliation invariant.
//!
//! - **Golden snapshot**: a fixed-seed session produces a byte-identical
//!   `Recorder::snapshot_json` across runs *and* across worker-pool sizes;
//!   the bytes are pinned by `tests/golden/obs_snapshot.json`. Regenerate
//!   with `HESGX_UPDATE_GOLDEN=1 cargo test -p hesgx-core --test obs` after
//!   an intentional change to what the pipeline records.
//! - **Reconciliation**: summing the recorder's `infer.layer[i].ecall` spans
//!   reproduces `total_enclave_cost(&metrics)` exactly — every term, every
//!   nanosecond — because both sides are fed the same `CostBreakdown`.
//! - **Free budgets**: the operator ECALLs report their input's noise
//!   budget from the decryption they already run, so serving without a
//!   refresh stage makes no `ecall_NoiseProbe` call at all.

mod testutil;

use hesgx_core::pipeline::total_enclave_cost;
use hesgx_core::request::InferRequest;
use hesgx_core::session::{ParamsPreset, Session, SessionBuilder};
use hesgx_obs::{counters, Recorder, SpanCost};
use hesgx_tee::enclave::Platform;
use std::path::Path;

/// Builds a fixed-seed session with an enabled recorder and runs one
/// inference; everything except `threads` is held constant.
fn run_session(threads: usize) -> (Session, Recorder) {
    run_session_with(threads, true)
}

fn run_session_with(threads: usize, noise_refresh: bool) -> (Session, Recorder) {
    let rec = Recorder::enabled();
    let session = SessionBuilder::new()
        .params(ParamsPreset::Small)
        .threads(threads)
        .seed(7)
        .noise_refresh(noise_refresh)
        .recorder(rec.clone())
        .build(Platform::new(900), testutil::small_hybrid_model())
        .unwrap();
    let image: Vec<i64> = (0..64).map(|p| (p % 16) as i64).collect();
    let response = session.serve(InferRequest::single(image.clone())).unwrap();
    assert_eq!(response.logits, vec![session.model().forward_ints(&image)]);
    (session, rec)
}

#[test]
fn snapshot_is_byte_identical_across_pool_sizes_and_matches_golden() {
    let snaps: Vec<String> = [1usize, 2, 4]
        .iter()
        .map(|&threads| run_session(threads).0.obs_snapshot_json())
        .collect();
    assert_eq!(snaps[0], snaps[1], "1 vs 2 workers");
    assert_eq!(snaps[0], snaps[2], "1 vs 4 workers");

    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/obs_snapshot.json");
    if std::env::var_os("HESGX_UPDATE_GOLDEN").is_some() {
        std::fs::write(&golden_path, &snaps[0]).unwrap();
    }
    let golden = std::fs::read_to_string(&golden_path)
        .expect("golden snapshot committed; regenerate with HESGX_UPDATE_GOLDEN=1");
    assert_eq!(
        snaps[0], golden,
        "snapshot drifted from tests/golden/obs_snapshot.json; if the change \
         is intentional, regenerate with HESGX_UPDATE_GOLDEN=1"
    );
}

#[test]
fn per_layer_obs_totals_reconcile_with_pipeline_metrics() {
    let (session, rec) = run_session(2);
    let metrics = session.metrics().expect("one inference ran");
    let total = total_enclave_cost(&metrics);

    // Fold exactly the `.ecall` pipeline spans — the `.he` spans carry wall
    // time only and never enter the enclave's books.
    let ecall_spans: Vec<_> = rec
        .spans_with_prefix("infer.")
        .into_iter()
        .filter(|(name, _)| name.ends_with(".ecall"))
        .collect();
    // Activation, pooling, and the explicit noise-refresh stage.
    assert_eq!(ecall_spans.len(), 3, "{ecall_spans:?}");
    for (_, stats) in &ecall_spans {
        assert_eq!(stats.entries, 1, "one inference, one entry per stage");
    }
    let folded = ecall_spans.iter().fold(SpanCost::default(), |acc, (_, s)| {
        acc.saturating_add(s.cost)
    });
    assert_eq!(
        folded,
        total.span_cost(),
        "obs per-layer totals must reconcile ns-for-ns with total_enclave_cost"
    );
    // total_ns agrees too (same fields, same saturating arithmetic).
    assert_eq!(folded.total_ns(), total.total_ns());
}

#[test]
fn session_counters_track_serving_and_boundary_traffic() {
    let (session, rec) = run_session(1);
    assert_eq!(rec.counter(counters::SERVED_EXACT), 1);
    assert_eq!(rec.counter(counters::SERVED_DEGRADED), 0);
    assert_eq!(rec.counter(counters::ATTESTATION_VERIFIES), 1);
    assert!(
        rec.counter(counters::ECALLS) >= 4,
        "keygen + 3 infer stages"
    );
    assert!(rec.counter(counters::BYTES_MARSHALLED) > 0);
    // The recorder survives further serving.
    let image: Vec<i64> = (0..64).map(|p| ((p * 3) % 16) as i64).collect();
    session.serve(InferRequest::single(image)).unwrap();
    assert_eq!(rec.counter(counters::SERVED_EXACT), 2);
}

#[test]
fn serving_without_refresh_gauges_budgets_with_no_probe_ecall() {
    let (_session, rec) = run_session_with(2, false);
    assert_eq!(rec.counter(counters::NOISE_PROBES), 0);
    assert!(
        rec.spans_with_prefix("ecall.ecall_NoiseProbe").is_empty(),
        "no standalone probe ECALL without a refresh stage"
    );
    // The same budgets the refresh run gauges (the stages before the
    // refresh point are identical), one sample each, and no `.post` gauge
    // outside a refresh stage.
    let (_, with_refresh) = run_session_with(2, true);
    for layer in [1, 2] {
        let pre = format!("noise.budget.layer[{layer}].pre");
        let series = rec.gauge_series(&pre);
        assert_eq!(series.len(), 1, "{pre}: {series:?}");
        assert!(series[0] > 0, "{pre}: decryptable input");
        assert_eq!(series, with_refresh.gauge_series(&pre), "{pre}");
        let post = format!("noise.budget.layer[{layer}].post");
        assert!(rec.gauge_series(&post).is_empty(), "{post}");
    }
}
