//! The three workloads and the runs that drive them through the public
//! serving API: `SessionBuilder::build` + `Session::serve` for the two
//! closed-loop workloads, `Broker::new` + `Broker::run` for the open-loop
//! one. Every answered logit row is compared with
//! `QuantizedCnn::forward_ints`.

use crate::stats::{median, percentile, supported_percentile};
use crate::trace::Tracer;
use hesgx_core::pipeline::{total_enclave_cost, HybridMetrics};
use hesgx_core::request::{InferRequest, InferResponse, Ingress};
use hesgx_core::session::{ParamsPreset, Served, Session, SessionBuilder};
use hesgx_crypto::rng::ChaChaRng;
use hesgx_henn::ops::OpCounter;
use hesgx_nn::quantize::{QuantPipeline, QuantizedCnn};
use hesgx_obs::{counters, Recorder};
use hesgx_serve::{
    modeled_service_ns, Broker, BrokerConfig, HeCostModel, LoadSpec, LoadTrace, RequestOutcome,
};
use hesgx_tee::enclave::Platform;
use std::time::{Duration, Instant};

/// HE worker threads per session: the benchmark machine has two cores and
/// the benchmark itself runs no threads of its own.
const HE_THREADS: usize = 2;

/// Platform identity every session is provisioned on.
const PLATFORM_ID: u64 = 1897;

/// Provisions timed per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 60;

/// Times provisions for `setup_s`: the one the run serves on, before the
/// warm-up, and the rest spread evenly over the measured phase, so their
/// median sees the same machine conditions as the serving between them.
/// The time spent on them is kept out of the measured phase.
struct SetupTimer {
    budget: Duration,
    wanted: usize,
    samples: Vec<f64>,
    spent: Duration,
}

impl SetupTimer {
    fn new(budget: Duration, wanted: usize) -> Self {
        SetupTimer {
            budget,
            wanted,
            samples: Vec::new(),
            spent: Duration::ZERO,
        }
    }

    fn time<T>(&mut self, build: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
        let start = Instant::now();
        let built = build()?;
        self.samples.push(start.elapsed().as_secs_f64());
        Ok(built)
    }

    /// Measured time since `start`, without the provisions timed since.
    fn measured(&self, start: Instant) -> Duration {
        start.elapsed().saturating_sub(self.spent)
    }

    /// Times and drops every provision due once `measured` of the budget
    /// has passed: provision `k` is due at `k / wanted` of it.
    fn catch_up<T>(
        &mut self,
        measured: Duration,
        mut build: impl FnMut() -> Result<T, String>,
    ) -> Result<(), String> {
        let start = Instant::now();
        while self.samples.len() < self.wanted
            && measured.as_secs_f64() * self.wanted as f64
                >= self.budget.as_secs_f64() * self.samples.len() as f64
        {
            drop(self.time(&mut build)?);
        }
        self.spent += start.elapsed();
        Ok(())
    }
}

/// Quantized pixels lie in `0..PIXEL_LEVELS`, as in the repository's
/// experiments.
const PIXEL_LEVELS: u64 = 16;

/// One metric as printed: name, value, unit, and how it was obtained.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str, note: impl Into<String>) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: note.into(),
    }
}

/// Everything one run measured.
#[derive(Debug)]
pub struct Report {
    /// Requests offered in the measured phase.
    pub attempted: u64,
    /// Requests that errored, were refused or dropped, or answered wrongly.
    pub failed: u64,
    /// Requests whose logits differed from `forward_ints` (or degraded).
    pub wrong: u64,
    /// How the run warmed up, for the printed header.
    pub warmup: String,
    /// End-to-end metrics named in `BENCHMARK.json` (untraced runs).
    pub end_to_end: Vec<Metric>,
    /// End-to-end figures printed but not in `BENCHMARK.json`: they are
    /// zero on a healthy run or not supported by every workload's sample.
    pub printed_only: Vec<Metric>,
    /// Per-layer metrics (traced runs).
    pub per_layer: Vec<Metric>,
    /// The spans of a traced run.
    pub tracer: Option<Tracer>,
}

/// Closed loop, one client: `Session::serve` calls back to back.
pub struct SessionShape {
    model: QuantizedCnn,
    images_per_request: usize,
    ingress: Ingress,
    warmup_requests: usize,
}

/// Open loop: seeded traces replayed back to back through a `Broker`.
pub struct BrokerShape {
    model: QuantizedCnn,
    config: BrokerConfig,
    trace: TraceShape,
}

/// The benchmark's workloads.
pub enum Workload {
    Session(SessionShape),
    Broker(BrokerShape),
}

/// A CNN of the paper's shape with deterministic formula weights, so no
/// training or download is needed (as `repro profile` does).
fn formula_model(in_side: usize, conv_out: usize, kernel: usize, classes: usize) -> QuantizedCnn {
    let window = 2;
    let out_side = in_side - kernel + 1;
    let flat = conv_out * (out_side / window) * (out_side / window);
    QuantizedCnn {
        pipeline: QuantPipeline::Hybrid,
        in_side,
        conv_out,
        kernel,
        window,
        classes,
        conv_weights: (0..conv_out * kernel * kernel)
            .map(|i| (i % 7) as i64 - 3)
            .collect(),
        conv_bias: (0..conv_out).map(|i| (i as i64 % 5) - 2).collect(),
        fc_weights: (0..classes * flat).map(|i| (i % 5) as i64 - 2).collect(),
        fc_bias: (0..classes).map(|i| (i as i64 % 9) - 4).collect(),
        weight_scale: 8,
        fc_scale: 8,
        act_scale: 16,
    }
}

impl Workload {
    /// Workload names, as `--workload` takes them.
    pub const NAMES: [&'static str; 3] = ["paper_batch10", "edge_single_tc", "broker_observed"];

    /// The workload called `name`.
    pub fn named(name: &str) -> Option<Workload> {
        match name {
            // The paper's Fig. 8 setting: 28x28 MNIST CNN, batchSize 10.
            // Runnable by name; not in BENCHMARK.json, because its
            // run-to-run spread reaches the bound (perfbench/README.md).
            "paper_batch10" => Some(Workload::Session(SessionShape {
                model: formula_model(28, 5, 5, 10),
                images_per_request: 10,
                ingress: Ingress::FvCiphertext,
                warmup_requests: 1,
            })),
            // A latency-bound single edge frame over transciphered ingress.
            "edge_single_tc" => Some(Workload::Session(SessionShape {
                model: formula_model(12, 2, 3, 3),
                images_per_request: 1,
                ingress: Ingress::Transciphered,
                warmup_requests: 5,
            })),
            // Admission, DRR and cross-request SIMD packing with the
            // operator's recorder installed. A batch costs about 190 ms on
            // the virtual clock, so two workers answer about 84 images/s;
            // a 12 ms mean gap offers 83/s. Batches fill to about 7 of 8,
            // queueing latency stays level over the replay and the queue
            // never nears its cap of 64, so no arrival drops. The first two
            // of each replay's ~23 batches leave idle workers with one image.
            "broker_observed" => Some(Workload::Broker(BrokerShape {
                model: formula_model(12, 2, 3, 3),
                config: BrokerConfig::new().workers(2).max_batch(8),
                trace: TraceShape {
                    requests: 160,
                    mean_gap_ns: 12_000_000,
                    tenants: 4,
                },
            })),
            _ => None,
        }
    }

    /// Runs the workload for `seconds` of measurement.
    pub fn run(&self, seed: u64, seconds: u64, traced: bool) -> Result<Report, String> {
        let budget = Duration::from_secs(seconds);
        match self {
            Workload::Session(shape) => run_session(shape, seed, budget, traced),
            Workload::Broker(shape) => run_broker(shape, seed, budget, traced),
        }
    }
}

/// Seeded pixel source: the only input the program receives.
struct Pixels(ChaChaRng);

impl Pixels {
    fn new(seed: u64) -> Self {
        Pixels(ChaChaRng::from_seed(seed).fork("perfbench-pixels"))
    }

    fn image(&mut self, len: usize) -> Vec<i64> {
        (0..len)
            .map(|_| (self.0.next_u64() % PIXEL_LEVELS) as i64)
            .collect()
    }
}

/// What one serve call told the benchmark about the layers it crossed.
#[derive(Debug, Clone, Default)]
struct LayerSample {
    conv_ns: u64,
    act_ns: u64,
    pool_ns: u64,
    fc_ns: u64,
    ingress_ns: u64,
    other_ns: u64,
    ecall_wall_ns: u64,
    ecall_real_ns: u64,
    ops: OpCounter,
    overhead_ns: u64,
    copy_ns: u64,
    paging_ns: u64,
}

/// Span name of a pipeline stage, by the label the pipeline gives it.
fn stage_span(label: &str) -> &'static str {
    match label {
        "Convolutional Layer (HE outside)" => "stage.conv_he",
        "Activation (SGX inside)" => "stage.act_ecall",
        "Fully Connected Layer (HE outside)" => "stage.fc_he",
        "Transciphered Ingress (SGX inside)" => "stage.ingress_ecall",
        l if l.starts_with("Pooling Layer") => "stage.pool_ecall",
        _ => "stage.other",
    }
}

impl LayerSample {
    fn of(metrics: &HybridMetrics) -> Self {
        let mut s = LayerSample {
            ops: metrics.ops,
            overhead_ns: metrics.enclave_overhead().as_nanos() as u64,
            ..LayerSample::default()
        };
        let cost = total_enclave_cost(metrics);
        s.copy_ns = cost.copy_ns;
        s.paging_ns = cost.paging_ns;
        for stage in &metrics.stages {
            let ns = stage.wall.as_nanos() as u64;
            let slot = match stage_span(&stage.name) {
                "stage.conv_he" => &mut s.conv_ns,
                "stage.act_ecall" => &mut s.act_ns,
                "stage.pool_ecall" => &mut s.pool_ns,
                "stage.fc_he" => &mut s.fc_ns,
                "stage.ingress_ecall" => &mut s.ingress_ns,
                _ => &mut s.other_ns,
            };
            *slot += ns;
            if let Some(cost) = &stage.enclave {
                s.ecall_wall_ns += ns;
                s.ecall_real_ns += cost.real_ns;
            }
        }
        s
    }

    fn stage_sum_ns(&self) -> u64 {
        self.conv_ns + self.act_ns + self.pool_ns + self.fc_ns + self.ingress_ns + self.other_ns
    }
}

/// Ciphertext cells per feature map entering activation and pooling.
fn conv_cells(model: &QuantizedCnn) -> f64 {
    (model.conv_out * model.conv_side() * model.conv_side()) as f64
}

/// Ciphertext-by-plaintext multiplications the convolution performs.
fn conv_muls(model: &QuantizedCnn) -> f64 {
    (OpCounter::conv_theoretical(model.in_side, model.kernel) * model.conv_out as u64) as f64
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Per-layer metrics every workload reports from its layer samples.
fn layer_metrics(model: &QuantizedCnn, samples: &[LayerSample], unit: &str) -> Vec<Metric> {
    let col = |f: fn(&LayerSample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    let n = format!("median of {} {unit}", samples.len());
    let cells = conv_cells(model);
    let (real, wall): (u64, u64) = samples.iter().fold((0, 0), |(r, w), s| {
        (r + s.ecall_real_ns, w + s.ecall_wall_ns)
    });
    vec![
        metric("pipeline.act_ecall_ms", col(|s| ms(s.act_ns)), "ms", &n),
        metric(
            "sgx.act_us_per_cell",
            col(|s| s.act_ns as f64 / 1e3) / cells,
            "us",
            format!("{n}, {cells} cells"),
        ),
        metric("pipeline.pool_ecall_ms", col(|s| ms(s.pool_ns)), "ms", &n),
        metric(
            "sgx.pool_us_per_cell",
            col(|s| s.pool_ns as f64 / 1e3) / cells,
            "us",
            format!("{n}, {cells} input cells"),
        ),
        metric("pipeline.conv_he_ms", col(|s| ms(s.conv_ns)), "ms", &n),
        metric(
            "henn.conv_ns_per_ct_pt_mul",
            col(|s| s.conv_ns as f64) / conv_muls(model),
            "ns",
            format!("{n}, {} multiplications", conv_muls(model)),
        ),
        metric("pipeline.fc_he_ms", col(|s| ms(s.fc_ns)), "ms", &n),
        metric(
            "henn.ct_pt_mul",
            col(|s| s.ops.ct_pt_mul as f64),
            "count",
            &n,
        ),
        metric(
            "henn.ct_ct_add",
            col(|s| s.ops.ct_ct_add as f64),
            "count",
            &n,
        ),
        metric(
            "henn.ct_pt_add",
            col(|s| s.ops.ct_pt_add as f64),
            "count",
            &n,
        ),
        metric(
            "henn.weight_prep",
            col(|s| s.ops.weight_prep as f64),
            "count",
            &n,
        ),
        metric(
            "pipeline.ingress_ecall_ms",
            col(|s| ms(s.ingress_ns)),
            "ms",
            &n,
        ),
        metric(
            "sgx.cpu_per_wall",
            if wall == 0 {
                0.0
            } else {
                real as f64 / wall as f64
            },
            "ratio",
            "ECALL-stage CPU ns over ECALL-stage wall ns, summed",
        ),
        // Cost-model terms, not wall time: their unit says so.
        metric(
            "tee.modeled_overhead_ms",
            col(|s| ms(s.overhead_ns)),
            "model_ms",
            &n,
        ),
        metric(
            "tee.copy_us",
            col(|s| s.copy_ns as f64 / 1e3),
            "model_us",
            &n,
        ),
        metric(
            "tee.paging_us",
            col(|s| s.paging_ns as f64 / 1e3),
            "model_us",
            &n,
        ),
    ]
}

/// Peak resident set of this process, in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

fn epc_faults(session: &Session) -> u64 {
    session.service().enclave().enclave().epc_stats().faults
}

/// Request accounting of a measured phase. A request counts as failed
/// when it errors or when any of its logit rows differs from
/// `forward_ints` (a degraded answer differs by construction).
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    wrong: u64,
    exact_images: u64,
    upload_bytes: u64,
}

impl Tally {
    /// Books one serve result.
    fn serve(&mut self, result: &hesgx_core::Result<InferResponse>, expected: &[Vec<i64>]) {
        self.attempted += 1;
        match result {
            Ok(r) if r.served == Served::Exact && r.logits == expected => {
                self.exact_images += expected.len() as u64;
                self.upload_bytes += r.upload_bytes;
            }
            Ok(_) => {
                self.wrong += 1;
                self.failed += 1;
            }
            Err(_) => self.failed += 1,
        }
    }
}

/// Samples one serve call contributes to a traced run.
struct TracedServe {
    wall_ns: u64,
    sample: LayerSample,
    modeled_ns: u64,
    epc_faults: u64,
}

fn run_session(
    shape: &SessionShape,
    seed: u64,
    budget: Duration,
    traced: bool,
) -> Result<Report, String> {
    let SessionShape {
        model,
        images_per_request,
        ingress,
        warmup_requests,
    } = shape;
    let (images_per_request, ingress, warmup_requests) =
        (*images_per_request, *ingress, *warmup_requests);
    let provision = || {
        SessionBuilder::new()
            .params(ParamsPreset::Paper)
            .threads(HE_THREADS)
            .seed(seed)
            .build(Platform::new(PLATFORM_ID), model.clone())
            .map_err(|e| format!("SessionBuilder::build failed: {e}"))
    };
    let mut setup = SetupTimer::new(budget, if traced { 1 } else { SETUP_REPS });
    let session = setup.time(provision)?;
    let mut pixels = Pixels::new(seed);
    let pixels_per_image = model.in_side * model.in_side;
    let mut next_request = || -> (InferRequest, Vec<Vec<i64>>) {
        let images: Vec<Vec<i64>> = (0..images_per_request)
            .map(|_| pixels.image(pixels_per_image))
            .collect();
        let expected = images.iter().map(|im| model.forward_ints(im)).collect();
        (InferRequest::batch(images).ingress(ingress), expected)
    };

    let mut warm = Tally::default();
    for _ in 0..warmup_requests {
        let (request, expected) = next_request();
        warm.serve(&session.serve(request), &expected);
    }
    if warm.failed > 0 {
        return Err(format!(
            "{} of {warmup_requests} warm-up request(s) failed or answered wrongly",
            warm.failed
        ));
    }

    // Measured phase. A traced run alternates traced and untraced requests
    // so the two walls compare under the same machine conditions.
    let mut tracer = Tracer::new();
    let mut tally = Tally::default();
    let mut serve_ms = Vec::new();
    let (mut traced_iter_ms, mut plain_iter_ms) = (Vec::new(), Vec::new());
    let mut traced_serves: Vec<TracedServe> = Vec::new();
    let start = Instant::now();
    while setup.measured(start) < budget {
        let id = tally.attempted;
        let trace_this = traced && id % 2 == 0;
        let iter_start = Instant::now();
        let root = trace_this.then(|| tracer.begin("bench.request", None, id));
        let span = trace_this.then(|| tracer.begin("bench.inputs", root, id));
        let (request, expected) = next_request();
        tracer.end(span);
        let faults_before = if trace_this { epc_faults(&session) } else { 0 };
        let span = trace_this.then(|| tracer.begin("session.serve", root, id));
        let t = Instant::now();
        let result = session.serve(request);
        let wall_ns = t.elapsed().as_nanos() as u64;
        tally.serve(&result, &expected);
        tracer.end(span);
        if let (Some(s), Ok(response)) = (span, &result) {
            let stages: Vec<(&str, u64)> = response
                .metrics
                .stages
                .iter()
                .map(|st| (stage_span(&st.name), st.wall.as_nanos() as u64))
                .collect();
            tracer.place_children(s, &stages);
            let cost = total_enclave_cost(&response.metrics);
            traced_serves.push(TracedServe {
                wall_ns,
                sample: LayerSample::of(&response.metrics),
                modeled_ns: modeled_service_ns(response, &cost, &HeCostModel::paper()),
                epc_faults: epc_faults(&session).saturating_sub(faults_before),
            });
        }
        serve_ms.push(ms(wall_ns));
        tracer.end(root);
        let iter_ms = iter_start.elapsed().as_secs_f64() * 1e3;
        if trace_this {
            traced_iter_ms.push(iter_ms);
        } else {
            plain_iter_ms.push(iter_ms);
        }
        setup.catch_up(setup.measured(start), provision)?;
    }
    let loop_s = setup.measured(start).as_secs_f64();

    let n = serve_ms.len();
    let warmup = format!(
        "{warmup_requests} request(s) of {images_per_request} image(s) served and discarded \
         after the first provision"
    );
    let Tally {
        attempted,
        failed,
        wrong,
        exact_images,
        upload_bytes,
    } = tally;
    let mut report = Report {
        attempted,
        failed,
        wrong,
        warmup,
        end_to_end: Vec::new(),
        printed_only: vec![metric(
            "failed_share",
            failed as f64 / attempted.max(1) as f64,
            "ratio",
            format!("{failed} of {attempted} requests ({wrong} wrong)"),
        )],
        per_layer: Vec::new(),
        tracer: None,
    };
    if traced {
        let samples: Vec<LayerSample> = traced_serves.iter().map(|t| t.sample.clone()).collect();
        let modeled: Vec<f64> = traced_serves.iter().map(|t| ms(t.modeled_ns)).collect();
        let k = traced_serves.len();
        let per = format!("median of {k} traced requests");
        let mut layers = vec![metric(
            "session.client_ms",
            median(&tracer.self_ms_of("session.serve")),
            "ms",
            format!("{per}: serve wall minus its stage walls"),
        )];
        layers.extend(layer_metrics(model, &samples, "traced requests"));
        layers.extend([
            metric(
                "tee.epc_faults",
                median(
                    &traced_serves
                        .iter()
                        .map(|t| t.epc_faults as f64)
                        .collect::<Vec<_>>(),
                ),
                "count",
                &per,
            ),
            metric(
                "serve.batch_fill",
                images_per_request as f64,
                "images",
                "one request per serve call",
            ),
            metric(
                "serve.ms_per_batch",
                median(
                    &traced_serves
                        .iter()
                        .map(|t| ms(t.wall_ns))
                        .collect::<Vec<_>>(),
                ),
                "ms",
                &per,
            ),
            metric("serve.dropped_share", 0.0, "ratio", "no admission queue"),
            metric(
                "serve.modeled_p50_ms",
                percentile(&modeled, 50).unwrap_or(0.0),
                "model_ms",
                format!("nearest rank over {k} traced requests"),
            ),
            metric(
                "serve.modeled_p99_ms",
                percentile(&modeled, 99).unwrap_or(0.0),
                "model_ms",
                format!("nearest rank over {k} traced requests"),
            ),
            metric("obs.noise_probes_per_batch", 0.0, "count", "recorder off"),
            metric("obs.recorder_ms_per_batch", 0.0, "ms", "recorder off"),
            overhead_metric(&traced_iter_ms, &plain_iter_ms),
        ]);
        report.per_layer = layers;
        report.tracer = Some(tracer);
    } else {
        let p90 = supported_percentile(&serve_ms, 90);
        report.printed_only.push(metric(
            "latency_p90_ms",
            p90.unwrap_or(f64::NAN),
            "ms",
            match p90 {
                Some(_) => format!("nearest rank over {n} requests"),
                None => format!("not reported: {n} requests leave fewer than 10 beyond p90"),
            },
        ));
        report.end_to_end = vec![
            metric(
                "images_per_s",
                exact_images as f64 / loop_s,
                "images/s",
                format!("{exact_images} exact images in {loop_s:.3} s"),
            ),
            metric(
                "latency_p50_ms",
                percentile(&serve_ms, 50).unwrap_or(f64::NAN),
                "ms",
                format!("nearest rank over {n} Session::serve calls"),
            ),
            metric(
                "upload_bytes_per_image",
                upload_bytes as f64 / exact_images.max(1) as f64,
                "B",
                format!("{exact_images} images"),
            ),
            metric(
                "setup_s",
                median(&setup.samples),
                "s",
                format!(
                    "median of {} SessionBuilder::build calls spread over the run",
                    setup.samples.len()
                ),
            ),
            metric(
                "peak_rss_mib",
                peak_rss_mib()?,
                "MiB",
                "VmHWM of the process",
            ),
        ];
    }
    Ok(report)
}

/// Tracing overhead: traced over untraced iteration wall, as a percentage.
fn overhead_metric(traced_ms: &[f64], plain_ms: &[f64]) -> Metric {
    let (t, p) = (median(traced_ms), median(plain_ms));
    metric(
        "trace.overhead_pct",
        if p > 0.0 { (t / p - 1.0) * 100.0 } else { 0.0 },
        "%",
        format!(
            "median traced {t:.3} ms ({} iterations) vs untraced {p:.3} ms ({})",
            traced_ms.len(),
            plain_ms.len()
        ),
    )
}

/// Arrivals in the broker's warm-up replay.
const WARMUP_ARRIVALS: usize = 20;

/// The open-loop trace every replay draws from.
#[derive(Clone, Copy)]
pub struct TraceShape {
    requests: usize,
    mean_gap_ns: u64,
    tenants: u32,
}

/// Replay `index` of a run: a fresh seeded arrival schedule whose images
/// come from the benchmark's pixel source, plus the expected logits.
fn replay_trace(
    shape: &TraceShape,
    model: &QuantizedCnn,
    seed: u64,
    index: u64,
    pixels: &mut Pixels,
) -> (LoadTrace, Vec<Vec<Vec<i64>>>) {
    let mut spec = LoadSpec::new(
        ChaChaRng::from_seed(seed)
            .fork(&format!("perfbench-replay-{index}"))
            .next_u64(),
    );
    spec.requests = shape.requests;
    spec.mean_gap_ns = shape.mean_gap_ns;
    spec.tenants = shape.tenants;
    spec.image_len = model.in_side * model.in_side;
    let mut trace = LoadTrace::generate(&spec);
    let mut expected = Vec::with_capacity(trace.arrivals.len());
    for arrival in &mut trace.arrivals {
        for image in &mut arrival.request.images {
            *image = pixels.image(spec.image_len);
        }
        expected.push(
            arrival
                .request
                .images
                .iter()
                .map(|im| model.forward_ints(im))
                .collect(),
        );
    }
    (trace, expected)
}

/// What one replay measured.
struct Replay {
    wall_ns: u64,
    batches: u64,
    offered: u64,
    failed: u64,
    wrong: u64,
    dropped: u64,
    exact_images: u64,
    batched_images: u64,
    upload_bytes: u64,
    modeled_ms: Vec<f64>,
    noise_probes: u64,
    epc_faults: u64,
}

/// Whether a broker outcome carries the reference logits exactly.
fn outcome_exact(outcome: &RequestOutcome, expected: &[Vec<i64>]) -> bool {
    outcome.served == Served::Exact && outcome.logits == expected
}

fn replay(broker: &Broker, trace: &LoadTrace, expected: &[Vec<Vec<i64>>]) -> Replay {
    let faults = |b: &Broker| b.sessions().iter().map(epc_faults).sum::<u64>();
    let (faults_before, probes_before) = (
        faults(broker),
        broker.recorder().counter(counters::NOISE_PROBES),
    );
    let start = Instant::now();
    let report = broker.run(trace);
    let wall_ns = start.elapsed().as_nanos() as u64;
    let mut wrong = 0u64;
    let mut exact_images = 0u64;
    for outcome in &report.outcomes {
        let want = &expected[outcome.id as usize];
        if outcome_exact(outcome, want) {
            exact_images += want.len() as u64;
        } else {
            wrong += 1;
        }
    }
    let dropped =
        (report.dropped_queue_full + report.dropped_oversize + report.dropped_deadline) as u64;
    Replay {
        wall_ns,
        batches: report.batches as u64,
        offered: report.offered as u64,
        failed: report.failed as u64 + dropped + wrong,
        wrong,
        dropped,
        exact_images,
        batched_images: report.batched_images as u64,
        upload_bytes: report.total_upload_bytes,
        modeled_ms: report.outcomes.iter().map(|o| ms(o.latency_ns())).collect(),
        noise_probes: broker
            .recorder()
            .counter(counters::NOISE_PROBES)
            .saturating_sub(probes_before),
        epc_faults: faults(broker).saturating_sub(faults_before),
    }
}

impl Replay {
    fn ms_per_batch(&self) -> f64 {
        ms(self.wall_ns) / self.batches.max(1) as f64
    }
}

fn run_broker(
    workload: &BrokerShape,
    seed: u64,
    budget: Duration,
    traced: bool,
) -> Result<Report, String> {
    let BrokerShape {
        model,
        config,
        trace: shape,
    } = workload;
    let build = |recorder: Recorder| {
        Broker::new(
            config.clone(),
            model.clone(),
            ParamsPreset::Paper,
            seed,
            HE_THREADS,
            recorder,
        )
        .map_err(|e| format!("Broker::new failed: {e}"))
    };
    let provision = || build(Recorder::enabled());
    let mut setup = SetupTimer::new(budget, if traced { 1 } else { SETUP_REPS });
    let observed = setup.time(provision)?;
    // The traced run replays every trace a second time on an identical
    // broker without a recorder, which prices the recorder from outside.
    let plain = if traced {
        Some(build(Recorder::disabled())?)
    } else {
        None
    };

    let mut pixels = Pixels::new(seed);
    // Enough arrivals that both workers serve a batch.
    let warm_shape = TraceShape {
        requests: WARMUP_ARRIVALS,
        ..*shape
    };
    let (warm, warm_expected) = replay_trace(&warm_shape, model, seed, 0, &mut pixels);
    for broker in std::iter::once(&observed).chain(&plain) {
        let failed = replay(broker, &warm, &warm_expected).failed;
        if failed > 0 {
            return Err(format!(
                "{failed} warm-up request(s) failed, dropped or answered wrongly"
            ));
        }
    }

    let mut tracer = Tracer::new();
    // Replays on the recorded broker, and on the unrecorded one.
    let (mut measured, mut unrecorded): (Vec<Replay>, Vec<Replay>) = (Vec::new(), Vec::new());
    let (mut traced_reps, mut plain_reps, mut unrecorded_reps) =
        (Vec::new(), Vec::new(), Vec::new());
    let (mut samples, mut client_ms): (Vec<LayerSample>, Vec<f64>) = (Vec::new(), Vec::new());
    let mut index = 1u64;
    // A replay is not cut short, so none starts that the last one's wall
    // says would end past the budget.
    let mut last_cycle = Duration::ZERO;
    let start = Instant::now();
    while setup.measured(start) + last_cycle <= budget || measured.is_empty() {
        let cycle_start = Instant::now();
        let root = traced.then(|| tracer.begin("bench.replay", None, index));
        let span = traced.then(|| tracer.begin("bench.inputs", root, index));
        let (trace, expected) = replay_trace(shape, model, seed, index, &mut pixels);
        tracer.end(span);
        let span = traced.then(|| tracer.begin("broker.run", root, index));
        let rep = replay(&observed, &trace, &expected);
        tracer.end(span);
        tracer.end(root);
        if let Some(plain) = &plain {
            // The last batch each worker served, as the session reports it.
            // Client time pairs this replay's wall per batch with the stage
            // walls of its own sampled batches.
            let sampled: Vec<LayerSample> = observed
                .sessions()
                .iter()
                .filter_map(Session::metrics)
                .map(|m| LayerSample::of(&m))
                .collect();
            let stage_ms = sampled.iter().map(|s| ms(s.stage_sum_ns())).sum::<f64>()
                / sampled.len().max(1) as f64;
            client_ms.push(rep.ms_per_batch() - stage_ms);
            samples.extend(sampled);
            traced_reps.push(rep.ms_per_batch());
            let untraced = replay(&observed, &trace, &expected);
            plain_reps.push(untraced.ms_per_batch());
            let root = tracer.begin("bench.replay_unrecorded", None, index);
            let span = tracer.begin("broker.run", Some(root), index);
            let bare = replay(plain, &trace, &expected);
            tracer.end(span);
            tracer.end(root);
            unrecorded_reps.push(bare.ms_per_batch());
            measured.push(untraced);
            unrecorded.push(bare);
        }
        measured.push(rep);
        index += 1;
        last_cycle = cycle_start.elapsed();
        setup.catch_up(setup.measured(start), provision)?;
    }
    let loop_s = setup.measured(start).as_secs_f64();
    setup.catch_up(budget, provision)?;

    let sum = |f: fn(&Replay) -> u64| measured.iter().map(f).sum::<u64>();
    let every = |f: fn(&Replay) -> u64| sum(f) + unrecorded.iter().map(f).sum::<u64>();
    let (attempted, failed, wrong) = (
        every(|r| r.offered),
        every(|r| r.failed),
        every(|r| r.wrong),
    );
    let replays = measured.len();
    let warmup = format!(
        "1 replay of {WARMUP_ARRIVALS} requests per broker served and discarded after the \
         first Broker::new call"
    );
    let mut report = Report {
        attempted,
        failed,
        wrong,
        warmup,
        end_to_end: Vec::new(),
        printed_only: vec![metric(
            "failed_share",
            failed as f64 / attempted.max(1) as f64,
            "ratio",
            format!(
                "{failed} of {attempted} requests ({} dropped, {wrong} wrong)",
                every(|r| r.dropped)
            ),
        )],
        per_layer: Vec::new(),
        tracer: None,
    };
    let batches = sum(|r| r.batches);
    if traced {
        let per_batch = format!("{batches} batches over {replays} recorded replays");
        let ms_per_batch = median(&traced_reps);
        let modeled: Vec<f64> = measured.iter().flat_map(|r| r.modeled_ms.clone()).collect();
        let mut layers = vec![metric(
            "session.client_ms",
            median(&client_ms),
            "ms",
            format!(
                "median over {} recorded replays of wall per batch minus the mean stage walls \
                 of the batches sampled from that replay",
                client_ms.len()
            ),
        )];
        layers.extend(layer_metrics(model, &samples, "sampled batches"));
        layers.extend([
            metric(
                "tee.epc_faults",
                sum(|r| r.epc_faults) as f64 / batches.max(1) as f64,
                "count",
                format!("per batch, {per_batch}"),
            ),
            metric(
                "serve.batch_fill",
                sum(|r| r.batched_images) as f64 / batches.max(1) as f64,
                "images",
                format!("mean, {per_batch}"),
            ),
            metric(
                "serve.ms_per_batch",
                ms_per_batch,
                "ms",
                format!("median over {} recorded traced replays", traced_reps.len()),
            ),
            metric(
                "serve.dropped_share",
                sum(|r| r.dropped) as f64 / sum(|r| r.offered).max(1) as f64,
                "ratio",
                format!(
                    "{} requests offered to the recorded broker",
                    sum(|r| r.offered)
                ),
            ),
            metric(
                "serve.modeled_p50_ms",
                percentile(&modeled, 50).unwrap_or(0.0),
                "model_ms",
                format!(
                    "virtual clock, nearest rank over {} requests",
                    modeled.len()
                ),
            ),
            metric(
                "serve.modeled_p99_ms",
                percentile(&modeled, 99).unwrap_or(0.0),
                "model_ms",
                format!(
                    "virtual clock, nearest rank over {} requests",
                    modeled.len()
                ),
            ),
            metric(
                "obs.noise_probes_per_batch",
                sum(|r| r.noise_probes) as f64 / batches.max(1) as f64,
                "count",
                format!("recorder counter {}, {per_batch}", counters::NOISE_PROBES),
            ),
            metric(
                "obs.recorder_ms_per_batch",
                ms_per_batch - median(&unrecorded_reps),
                "ms",
                format!(
                    "same traces replayed without a recorder ({} replays)",
                    unrecorded_reps.len()
                ),
            ),
            overhead_metric(&traced_reps, &plain_reps),
        ]);
        report.per_layer = layers;
        report.tracer = Some(tracer);
    } else {
        let per_batch: Vec<f64> = measured.iter().map(Replay::ms_per_batch).collect();
        report.end_to_end = vec![
            metric(
                "images_per_s",
                sum(|r| r.exact_images) as f64 / loop_s,
                "images/s",
                format!("{} exact images in {loop_s:.3} s", sum(|r| r.exact_images)),
            ),
            metric(
                "latency_p50_ms",
                percentile(&per_batch, 50).unwrap_or(f64::NAN),
                "ms",
                format!(
                    "wall per Session::serve batch call: nearest rank over {replays} replays \
                     of (replay wall / batches); {batches} batches, mean fill {:.2}",
                    sum(|r| r.batched_images) as f64 / batches.max(1) as f64
                ),
            ),
            metric(
                "upload_bytes_per_image",
                sum(|r| r.upload_bytes) as f64 / sum(|r| r.batched_images).max(1) as f64,
                "B",
                format!("{} batched images", sum(|r| r.batched_images)),
            ),
            metric(
                "setup_s",
                median(&setup.samples),
                "s",
                format!(
                    "median of {} Broker::new calls spread over the run",
                    setup.samples.len()
                ),
            ),
            metric(
                "peak_rss_mib",
                peak_rss_mib()?,
                "MiB",
                "VmHWM of the process",
            ),
        ];
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hesgx_core::Error;

    fn response(logits: Vec<Vec<i64>>, served: Served) -> InferResponse {
        InferResponse {
            logits,
            served,
            metrics: HybridMetrics::default(),
            upload_bytes: 64,
            trace_id: "req-0".into(),
        }
    }

    #[test]
    fn a_wrong_logit_counts_as_a_failure() {
        let expected = vec![vec![3, -1, 7], vec![0, 2, 2]];
        let mut tally = Tally::default();
        tally.serve(&Ok(response(expected.clone(), Served::Exact)), &expected);
        assert_eq!((tally.failed, tally.exact_images), (0, 2));
        let mut off_by_one = expected.clone();
        off_by_one[1][2] += 1;
        tally.serve(&Ok(response(off_by_one, Served::Exact)), &expected);
        assert_eq!((tally.failed, tally.wrong), (1, 1));
        // A degraded answer is not the exact reference, even if it matched.
        tally.serve(&Ok(response(expected.clone(), Served::Degraded)), &expected);
        tally.serve(&Err(Error::Config("refused".into())), &expected);
        assert_eq!(tally.attempted, 4);
        assert_eq!(tally.failed, 3);
        assert_eq!(tally.wrong, 2);
        // Only the exact answer counts toward throughput and upload.
        assert_eq!((tally.exact_images, tally.upload_bytes), (2, 64));
    }

    #[test]
    fn a_wrong_broker_outcome_is_not_exact() {
        let expected = vec![vec![5, 5, -5]];
        let mut outcome = RequestOutcome {
            id: 0,
            tenant: 1,
            arrived: 0,
            dispatched: 1,
            completed: 2,
            batch_fill: 3,
            served: Served::Exact,
            logits: expected.clone(),
        };
        assert!(outcome_exact(&outcome, &expected));
        outcome.logits[0][0] = 4;
        assert!(!outcome_exact(&outcome, &expected));
    }

    #[test]
    fn setup_provisions_spread_over_the_budget() {
        let mut setup = SetupTimer::new(Duration::from_secs(10), 5);
        let mut built = 0;
        let mut build = || -> Result<(), String> {
            built += 1;
            Ok(())
        };
        setup.time(&mut build).unwrap();
        setup.catch_up(Duration::from_secs(1), &mut build).unwrap();
        assert_eq!(setup.samples.len(), 1);
        // Provision k is due at k/5 of the budget: 0, 2, 4, 6 and 8 s.
        setup.catch_up(Duration::from_secs(4), &mut build).unwrap();
        assert_eq!(setup.samples.len(), 3);
        setup.catch_up(Duration::from_secs(10), &mut build).unwrap();
        setup.catch_up(Duration::from_secs(60), &mut build).unwrap();
        assert_eq!((setup.samples.len(), built), (5, 5));
    }

    #[test]
    fn every_workload_name_resolves() {
        for name in Workload::NAMES {
            assert!(Workload::named(name).is_some(), "{name}");
        }
        assert!(Workload::named("nope").is_none());
    }
}
