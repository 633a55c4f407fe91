//! The hybrid inference pipeline — the paper's Fig. 2 put together.
//!
//! `EncryptSGX` flow: homomorphic convolution outside → exact sigmoid inside →
//! pooling split per the §VI-D rule → homomorphic fully connected outside →
//! encrypted logits back to the user. Per-stage wall-clock and enclave
//! virtual-time metrics are collected for the Fig. 8 comparison.

use crate::error::{Error, Result};
use crate::keydist::{
    enclave_generate_keys, seal_secret_keys, secret_key_bytes, KeyCeremonyPublic,
};
use crate::planner::{plan_for, InferencePlan, PoolStrategy};
use crate::recovery::RecoveryPolicy;
use crate::sgx_ops::{sum_costs, InferenceEnclave};
use hesgx_bfv::prelude::{EvaluationKeys, PolyArena};
use hesgx_chaos::FaultHook;
use hesgx_crypto::rng::ChaChaRng;
use hesgx_henn::crt::{CrtCiphertext, CrtPlainSystem};
use hesgx_henn::image::EncryptedMap;
use hesgx_henn::ops::{self, OpCounter};
use hesgx_henn::par::ParExec;
use hesgx_henn::weights::WeightBank;
use hesgx_nn::layers::ActivationKind;
use hesgx_nn::quantize::{QuantPipeline, QuantizedCnn};
use hesgx_obs::{counters, prof, Recorder};
use hesgx_tee::cost::{CostBreakdown, CostModel};
use hesgx_tee::enclave::{EnclaveBuilder, Platform};
use hesgx_tee::error::TeeError;
use hesgx_tee::sealing::SealedBlob;
use hesgx_tee::wall::WallTimer;
use std::sync::Arc;
use std::time::Duration;

/// Timing of one pipeline stage.
#[derive(Debug, Clone)]
pub struct StageMetrics {
    /// Stage label.
    pub name: String,
    /// Real wall-clock time of the untrusted-side work.
    pub wall: Duration,
    /// Enclave cost (virtual time), when the stage crossed into SGX.
    pub enclave: Option<CostBreakdown>,
}

impl StageMetrics {
    /// Wall time plus modeled enclave overhead (the number the paper reports).
    pub fn effective(&self) -> Duration {
        match &self.enclave {
            // In-enclave work: its body time is inside `wall` already; add the
            // modeled overhead terms on top.
            Some(cost) => {
                let overhead = cost.total_ns().saturating_sub(cost.real_ns);
                self.wall + Duration::from_nanos(overhead)
            }
            None => self.wall,
        }
    }
}

/// One noise-refresh decision taken (or audited) at the refresh point
/// between pooling and the fully connected layer.
///
/// The budget is the minimum invariant-noise budget in bits across the
/// feature map, measured *inside* the enclave: by the refresh ECALL's own
/// decryption in Always mode, by a functional [`InferenceEnclave::noise_probe`]
/// in Auto mode. Only the bit-counts recorded here ever cross the boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoiseDecision {
    /// Pipeline layer index the decision belongs to.
    pub layer: usize,
    /// Minimum budget (bits) measured before the decision.
    pub before_bits: u32,
    /// Minimum budget (bits) measured after a taken refresh by a standalone
    /// [`InferenceEnclave::noise_probe`] (`None` when the refresh was
    /// skipped or no recorder is installed).
    pub after_bits: Option<u32>,
    /// The `refresh_threshold_bits` in force (planner default or override).
    pub threshold_bits: u32,
    /// Whether the refresh actually ran.
    pub refreshed: bool,
}

/// Full-pipeline metrics.
#[derive(Debug, Clone, Default)]
pub struct HybridMetrics {
    /// Per-stage timings, in execution order.
    pub stages: Vec<StageMetrics>,
    /// Homomorphic operation counts.
    pub ops: OpCounter,
    /// Worker threads the run executed with (1 = serial).
    pub threads: usize,
    /// Noise-refresh decisions, in execution order (empty when no refresh
    /// point ran).
    pub noise: Vec<NoiseDecision>,
}

impl HybridMetrics {
    /// Total effective time across stages.
    pub fn total(&self) -> Duration {
        self.stages.iter().map(|s| s.effective()).sum()
    }

    /// Total enclave overhead (effective − wall).
    pub fn enclave_overhead(&self) -> Duration {
        self.total() - self.stages.iter().map(|s| s.wall).sum::<Duration>()
    }
}

/// Activation-in-enclave mode for the Fig. 8 control groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EcallBatching {
    /// One ECALL per feature map (the framework's design, `EncryptSGX`).
    Batched,
    /// One ECALL per pixel (`EncryptSGX (single)` — the paper's negative
    /// result: "frequent accesses to SGX bring about huge time-consuming").
    PerPixel,
}

/// Everything [`HybridInference::provision_with`] needs beyond the platform
/// and the model. [`ProvisionConfig::default`] matches the paper's setup:
/// `poly_degree = 1024`, real-SGX cost model, one worker per available core.
#[derive(Debug, Clone)]
pub struct ProvisionConfig {
    /// FV polynomial degree (the paper uses 1024 for the MNIST CNN).
    pub poly_degree: usize,
    /// Seed for the enclave identity, key ceremony, and re-encryption RNG.
    pub seed: u64,
    /// Enclave cost model; `None` is the calibrated SGX model, and
    /// [`CostModel::fake_sgx`] gives the paper's `EncryptFakeSGX` control.
    pub cost_model: Option<CostModel>,
    /// HE worker threads; `0` means one per available core, `1` is serial.
    pub threads: usize,
    /// Pooling split override; `None` applies the §VI-D window rule.
    pub pool_strategy: Option<PoolStrategy>,
    /// Bounded-retry policy for transient enclave-boundary faults.
    pub recovery: RecoveryPolicy,
    /// Fault-injection hook threaded through every enclave boundary (ECALL
    /// entry/exit, EPC paging, seal/unseal, noise refresh). `None` runs
    /// fault-free with zero overhead on the hot paths.
    pub fault_hook: Option<Arc<dyn FaultHook>>,
    /// Inserts an explicit in-enclave noise-refresh stage between pooling
    /// and the fully connected layer (`ecall_DecreaseNoise`, §IV-E). Off by
    /// default: the paper's four-stage pipeline does not need it at MNIST
    /// depth.
    pub refresh_between_stages: bool,
    /// Gates the refresh stage on a live in-enclave budget probe instead
    /// (Auto mode): the probe always runs at the refresh point, and the
    /// refresh fires only when the measured budget drops below the plan's
    /// `refresh_threshold_bits`. Takes precedence over
    /// `refresh_between_stages` when both are set.
    pub refresh_auto: bool,
    /// Overrides the planner's `refresh_threshold_bits` (the Auto-mode
    /// decision margin). `None` keeps the planner default.
    pub refresh_threshold_bits: Option<u32>,
    /// Observability recorder threaded through the enclave, the worker pool,
    /// and the pipeline stages. The default is the disabled no-op recorder:
    /// recording costs nothing unless a caller installs an enabled one.
    pub recorder: Recorder,
    /// Prepares every conv/FC weight form (Shoup constants, `Δ·c` bias
    /// residues) once at provisioning and runs the cached layer kernels —
    /// bit-identical logits and ciphertext bytes, zero per-request weight
    /// preparation. `false` keeps the uncached kernels (the honest A/B
    /// baseline the `ntt_bench` experiment measures against).
    pub cached_weights: bool,
}

impl Default for ProvisionConfig {
    fn default() -> Self {
        ProvisionConfig {
            poly_degree: 1024,
            seed: 0,
            cost_model: None,
            threads: 0,
            pool_strategy: None,
            recovery: RecoveryPolicy::default(),
            fault_hook: None,
            refresh_between_stages: false,
            refresh_auto: false,
            refresh_threshold_bits: None,
            recorder: Recorder::disabled(),
            cached_weights: true,
        }
    }
}

/// The hybrid HE + SGX inference service.
#[derive(Debug)]
pub struct HybridInference {
    sys: CrtPlainSystem,
    model: QuantizedCnn,
    enclave: InferenceEnclave,
    plan: InferencePlan,
    activation: ActivationKind,
    pool: ParExec,
    /// Evaluation keys for the pure-HE degraded path (square activation
    /// needs relinearization). Private on purpose: the secret-hygiene lint
    /// forbids evaluation keys in public signatures outside bfv/henn.
    evaluation: Vec<EvaluationKeys>,
    /// Sealed copy of the secret keys (restart persistence, §IV-A step 2);
    /// probed by [`HybridInference::verify_sealed_state`].
    sealed_keys: SealedBlob,
    refresh_between_stages: bool,
    refresh_auto: bool,
    /// Observability recorder shared with the enclave and the worker pool.
    recorder: Recorder,
    /// Conv and FC weight forms prepared once at provisioning
    /// (`ProvisionConfig::cached_weights`); `None` runs the uncached
    /// kernels — the A/B baseline for the bench experiments.
    banks: Option<(WeightBank, WeightBank)>,
    /// Session buffer pool: consumed feature maps recycle their limb
    /// buffers here and the next stage's accumulator copies draw from it.
    arena: PolyArena,
}

impl HybridInference {
    /// Provisions the service on `platform`: builds the inference enclave,
    /// runs the in-enclave key ceremony, and returns the service plus the
    /// attested public material for users.
    ///
    /// # Errors
    ///
    /// Fails when the model is not quantized for the hybrid pipeline or the
    /// HE parameters cannot cover its value range.
    pub fn provision_with(
        platform: Arc<Platform>,
        model: QuantizedCnn,
        config: ProvisionConfig,
    ) -> Result<(Self, KeyCeremonyPublic)> {
        if model.pipeline != QuantPipeline::Hybrid {
            return Err(Error::Config(format!(
                "model quantized for {:?}, the hybrid pipeline needs QuantPipeline::Hybrid",
                model.pipeline
            )));
        }
        let report = model.range_report();
        let sys = CrtPlainSystem::for_range(config.poly_degree, report.required_plain_bits)
            .map_err(Error::He)?;
        let banks = if config.cached_weights {
            let conv = WeightBank::prepare(&sys, &model.conv_weights, &model.conv_bias)
                .map_err(Error::He)?;
            let fc =
                WeightBank::prepare(&sys, &model.fc_weights, &model.fc_bias).map_err(Error::He)?;
            Some((conv, fc))
        } else {
            None
        };
        // The enclave heap must hold a full encrypted feature map; the EPC
        // stays at its hardware size, so oversized working sets page (and are
        // charged) exactly as the paper's §III-B describes.
        let mut builder = EnclaveBuilder::new("hesgx-inference")
            .add_code(b"hesgx-hybrid-inference-v1")
            .heap_bytes(512 * 1024 * 1024)
            .seed(config.seed);
        if let Some(cost_model) = config.cost_model {
            builder = builder.cost_model(cost_model);
        }
        if let Some(hook) = &config.fault_hook {
            builder = builder.fault_hook(hook.clone());
        }
        builder = builder.recorder(config.recorder.clone());
        let enclave = builder.build(platform);
        let mut rng = ChaChaRng::from_seed(config.seed).fork("provision");
        let provision_start = WallTimer::start();
        let (keys, ceremony) = enclave_generate_keys(&enclave, &sys, &mut rng)?;
        // Seal the secret keys right after the ceremony; a corrupted seal
        // (crash mid-write, injected fault) is only *detected* at the next
        // unseal, which is exactly what verify_sealed_state probes.
        let sealed_keys = seal_secret_keys(&enclave, &keys.secret);
        if config.recorder.is_enabled() {
            // The key-ceremony ECALL already recorded its own `ecall.*` span;
            // `session.provision` is the session-level rollup of the same
            // modeled cost plus the untrusted-side wall time around it.
            let mut span = ceremony.keygen_cost.span_cost();
            span.real_ns = provision_start.elapsed_ns();
            config.recorder.record_span("session.provision", span);
        }
        let mut plan = plan_for(&model);
        if let Some(strategy) = config.pool_strategy {
            plan.pool_strategy = strategy;
        }
        if let Some(threshold) = config.refresh_threshold_bits {
            plan.refresh_threshold_bits = threshold;
        }
        let mut inference =
            InferenceEnclave::new(enclave, keys.secret, keys.public, config.seed ^ 0x1ee7);
        inference.set_recovery_policy(config.recovery);
        let service = HybridInference {
            sys,
            enclave: inference,
            model,
            plan,
            activation: ActivationKind::Sigmoid,
            pool: ParExec::new(config.threads).with_recorder(config.recorder.clone()),
            evaluation: keys.evaluation,
            sealed_keys,
            refresh_between_stages: config.refresh_between_stages,
            refresh_auto: config.refresh_auto,
            recorder: config.recorder,
            banks,
            arena: PolyArena::new(),
        };
        Ok((service, ceremony))
    }

    /// Former constructor; thin wrapper over [`HybridInference::provision_with`].
    ///
    /// # Errors
    ///
    /// Propagates parameter-validation failures.
    #[deprecated(
        since = "0.2.0",
        note = "use `provision_with(platform, model, ProvisionConfig { .. })` or `SessionBuilder`"
    )]
    pub fn provision(
        platform: Arc<Platform>,
        model: QuantizedCnn,
        poly_degree: usize,
        seed: u64,
    ) -> Result<(Self, KeyCeremonyPublic)> {
        Self::provision_with(
            platform,
            model,
            ProvisionConfig {
                poly_degree,
                seed,
                ..ProvisionConfig::default()
            },
        )
    }

    /// Former constructor; thin wrapper over [`HybridInference::provision_with`].
    ///
    /// # Errors
    ///
    /// Propagates parameter-validation failures.
    #[deprecated(
        since = "0.2.0",
        note = "use `provision_with(platform, model, ProvisionConfig { cost_model, .. })`"
    )]
    pub fn provision_with_cost_model(
        platform: Arc<Platform>,
        model: QuantizedCnn,
        poly_degree: usize,
        seed: u64,
        cost_model: Option<CostModel>,
    ) -> Result<(Self, KeyCeremonyPublic)> {
        Self::provision_with(
            platform,
            model,
            ProvisionConfig {
                poly_degree,
                seed,
                cost_model,
                ..ProvisionConfig::default()
            },
        )
    }

    /// The CRT system (for user-side encryption/decryption).
    pub fn system(&self) -> &CrtPlainSystem {
        &self.sys
    }

    /// The quantized model.
    pub fn model(&self) -> &QuantizedCnn {
        &self.model
    }

    /// The execution plan.
    pub fn plan(&self) -> &InferencePlan {
        &self.plan
    }

    /// The inference enclave (metrics, side-channel log).
    pub fn enclave(&self) -> &InferenceEnclave {
        &self.enclave
    }

    /// Overrides the activation function computed inside the enclave
    /// (paper §VI-C: ReLU and Tanh work just as well as Sigmoid).
    pub fn set_activation(&mut self, kind: ActivationKind) {
        self.activation = kind;
    }

    /// The HE worker-thread count this service runs with.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Re-sizes the worker pool (`0` = one per available core). The results
    /// of [`HybridInference::infer`] are bit-identical for every pool size.
    pub fn set_threads(&mut self, threads: usize) {
        self.pool = ParExec::new(threads).with_recorder(self.recorder.clone());
    }

    /// The observability recorder this service reports into (disabled no-op
    /// unless [`ProvisionConfig::recorder`] installed an enabled one).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Records a per-layer pipeline span: `.he` stages carry wall time only
    /// (no boundary crossing, so no modeled terms), `.ecall` stages carry the
    /// stage's full [`CostBreakdown`] — which is what makes the obs totals
    /// reconcile ns-for-ns with [`total_enclave_cost`].
    pub(crate) fn record_stage(&self, name: &str, wall: Duration, enclave: Option<&CostBreakdown>) {
        if !self.recorder.is_enabled() {
            return;
        }
        let mut span = enclave.map(|c| c.span_cost()).unwrap_or_default();
        if enclave.is_none() {
            span.real_ns = wall.as_nanos() as u64;
        }
        self.recorder.record_span(name, span);
        if enclave.is_some() {
            // Per-layer ECALL cost distribution (modeled terms only, so the
            // histogram stays byte-stable across runs and pool sizes).
            self.recorder
                .observe(&format!("{name}.model_ns"), span.model_ns());
        }
    }

    /// The HE worker pool (crate-internal: the ingress dispatch shares it).
    pub(crate) fn pool(&self) -> &ParExec {
        &self.pool
    }

    /// Opens a stage slice on the trace timeline (no-op without one).
    pub(crate) fn trace_stage_begin(&self, name: &str) {
        if self.recorder.trace_enabled() {
            self.recorder.trace_begin(name, &[]);
        }
    }

    /// Closes a stage slice on the trace timeline (no-op without one).
    pub(crate) fn trace_stage_end(&self, name: &str) {
        if self.recorder.trace_enabled() {
            self.recorder.trace_end(name);
        }
    }

    /// Recorder-gated post-refresh telemetry: measures the minimum
    /// invariant-noise budget of freshly refreshed `cells` with a standalone
    /// probe ECALL and records the bit-count as a gauge sample. Every other
    /// budget gauge comes free from the operator ECALL that decrypted the
    /// cells; this one measures ciphertexts no operator has consumed yet.
    /// The probe's ECALL cost books under `ecall.ecall_NoiseProbe`, never
    /// under a pipeline stage, so the reconciliation invariant (the
    /// `infer.*.ecall` fold equals `total_enclave_cost`) is untouched.
    /// Returns the bits when measured.
    fn probe_gauge(&self, label: &str, cells: &[CrtCiphertext]) -> Result<Option<u32>> {
        if !self.recorder.is_enabled() || cells.is_empty() {
            return Ok(None);
        }
        let refs: Vec<&CrtCiphertext> = cells.iter().collect();
        let (bits, _) = self.enclave.noise_probe(&self.sys, &refs)?;
        self.recorder.gauge(label, u64::from(bits));
        self.recorder.incr(counters::NOISE_PROBES, 1);
        Ok(Some(bits))
    }

    /// Drops the refresh-decision instant on the timeline.
    fn trace_refresh_decision(&self, layer: usize, bits: u32, threshold: u32, taken: bool) {
        if self.recorder.trace_enabled() {
            self.recorder.trace_instant(
                "noise.refresh.decision",
                &[
                    ("layer", layer.to_string()),
                    ("budget_bits", bits.to_string()),
                    ("threshold_bits", threshold.to_string()),
                    (
                        "margin_bits",
                        (i64::from(bits) - i64::from(threshold)).to_string(),
                    ),
                    ("taken", taken.to_string()),
                ],
            );
        }
    }

    /// Runs the hybrid inference. Returns encrypted logits plus metrics.
    ///
    /// # Errors
    ///
    /// Propagates HE/TEE failures.
    pub fn infer(
        &self,
        input: &EncryptedMap,
        batching: EcallBatching,
    ) -> Result<(Vec<CrtCiphertext>, HybridMetrics)> {
        let mut metrics = HybridMetrics {
            threads: self.pool.threads(),
            ..HybridMetrics::default()
        };
        let m = &self.model;

        // 1. Convolutional layer — HE outside SGX, parallel over output
        // cells × CRT limbs (bit-identical for every pool size).
        let start = WallTimer::start();
        self.trace_stage_begin("infer.layer[0].he");
        let prof_stage = prof::span("infer.layer[0].he");
        let conv = match &self.banks {
            Some((conv_bank, _)) => ops::he_conv2d_cached_par(
                &self.sys,
                input,
                conv_bank,
                m.conv_out,
                m.kernel,
                1,
                &mut metrics.ops,
                &self.pool,
                &self.arena,
            )?,
            None => ops::he_conv2d_par(
                &self.sys,
                input,
                &m.conv_weights,
                &m.conv_bias,
                m.conv_out,
                m.kernel,
                1,
                &mut metrics.ops,
                &self.pool,
            )?,
        };
        drop(prof_stage);
        self.trace_stage_end("infer.layer[0].he");
        let conv_wall = start.elapsed();
        self.record_stage("infer.layer[0].he", conv_wall, None);
        metrics.stages.push(StageMetrics {
            name: "Convolutional Layer (HE outside)".into(),
            wall: conv_wall,
            enclave: None,
        });

        // 2. Activation — plaintext inside SGX; the whole map crosses the
        // ECALL boundary once, the per-cell work parallelizes inside.
        let start = WallTimer::start();
        self.trace_stage_begin("infer.layer[1].ecall");
        let prof_stage = prof::span("infer.layer[1].ecall");
        let (activated, act_bits, act_cost) = match batching {
            EcallBatching::Batched => {
                self.enclave
                    .activation_map_par(&self.sys, &conv, m, self.activation, &self.pool)?
            }
            EcallBatching::PerPixel => {
                self.enclave
                    .activation_map_single_ecalls(&self.sys, &conv, m, self.activation)?
            }
        };
        self.recorder
            .gauge("noise.budget.layer[1].pre", u64::from(act_bits));
        drop(prof_stage);
        self.trace_stage_end("infer.layer[1].ecall");
        // The conv map is consumed; its limb buffers seed the pool stage's
        // accumulator copies.
        conv.recycle(&self.arena);
        let act_wall = start.elapsed();
        self.record_stage("infer.layer[1].ecall", act_wall, Some(&act_cost));
        metrics.stages.push(StageMetrics {
            name: "Activation (SGX inside)".into(),
            wall: act_wall,
            enclave: Some(act_cost),
        });

        // 3. Pooling — split per the §VI-D rule; either way one ECALL. The
        // budget is that of what actually crosses the boundary: the
        // activated map for SgxPool, the homomorphically summed windows
        // (noisier) for SgxDiv.
        let start = WallTimer::start();
        self.trace_stage_begin("infer.layer[2].ecall");
        let prof_stage = prof::span("infer.layer[2].ecall");
        let (pooled, pool_bits, pool_cost) = match self.plan.pool_strategy {
            PoolStrategy::SgxPool => self
                .enclave
                .pool_full_map_par(&self.sys, &activated, m, false, &self.pool)?,
            PoolStrategy::SgxDiv => {
                let summed = ops::he_scaled_mean_pool_par(
                    &self.sys,
                    &activated,
                    m.window,
                    &mut metrics.ops,
                    &self.pool,
                    &self.arena,
                )?;
                let out = self
                    .enclave
                    .divide_map_par(&self.sys, &summed, m, &self.pool)?;
                summed.recycle(&self.arena);
                out
            }
        };
        self.recorder
            .gauge("noise.budget.layer[2].pre", u64::from(pool_bits));
        drop(prof_stage);
        self.trace_stage_end("infer.layer[2].ecall");
        activated.recycle(&self.arena);
        let pool_wall = start.elapsed();
        self.record_stage("infer.layer[2].ecall", pool_wall, Some(&pool_cost));
        metrics.stages.push(StageMetrics {
            name: format!("Pooling Layer ({:?})", self.plan.pool_strategy),
            wall: pool_wall,
            enclave: Some(pool_cost),
        });
        let mut layer = 3usize;

        // Noise-refresh point (§IV-E) between pooling and the FC layer.
        // `Always` mode inserts the decrypt–re-encrypt stage unconditionally
        // (the original semantics); `Auto` mode probes the live invariant-
        // noise budget inside the enclave and refreshes only when it falls
        // below the plan's threshold — the decision the trace timeline and
        // the `repro trace` noise table audit.
        let threshold = self.plan.refresh_threshold_bits;
        let pooled = if self.refresh_auto {
            let stage = format!("infer.layer[{layer}].ecall");
            let start = WallTimer::start();
            self.trace_stage_begin(&stage);
            let prof_stage = prof::span(&stage);
            // Functional probe: it decides the refresh, so its cost belongs
            // to the stage — folded into the stage metrics *and* the stage
            // span, keeping the reconciliation invariant exact.
            let refs: Vec<&CrtCiphertext> = pooled.cells().iter().collect();
            let (bits, probe_cost) = self.enclave.noise_probe(&self.sys, &refs)?;
            let refreshed = bits < threshold;
            self.recorder.incr(counters::NOISE_PROBES, 1);
            self.recorder
                .gauge(&format!("noise.budget.layer[{layer}].pre"), u64::from(bits));
            let (out, stage_cost, stage_name, after_bits) = if refreshed {
                self.recorder.incr(counters::NOISE_REFRESHES, 1);
                let (fresh, _, cost) =
                    self.enclave
                        .refresh_batch_par(&self.sys, pooled.cells(), &self.pool)?;
                let (c, h, w) = pooled.shape();
                let fresh = EncryptedMap::new(c, h, w, fresh);
                let after =
                    self.probe_gauge(&format!("noise.budget.layer[{layer}].post"), fresh.cells())?;
                (
                    fresh,
                    sum_costs(probe_cost, cost),
                    "Noise Refresh (SGX inside)",
                    after,
                )
            } else {
                self.recorder.incr(counters::NOISE_REFRESH_SKIPS, 1);
                (pooled, probe_cost, "Noise Check (SGX inside)", None)
            };
            self.trace_refresh_decision(layer, bits, threshold, refreshed);
            let refresh_wall = start.elapsed();
            self.record_stage(&stage, refresh_wall, Some(&stage_cost));
            metrics.stages.push(StageMetrics {
                name: stage_name.into(),
                wall: refresh_wall,
                enclave: Some(stage_cost),
            });
            metrics.noise.push(NoiseDecision {
                layer,
                before_bits: bits,
                after_bits,
                threshold_bits: threshold,
                refreshed,
            });
            drop(prof_stage);
            self.trace_stage_end(&stage);
            layer += 1;
            out
        } else if self.refresh_between_stages {
            let stage = format!("infer.layer[{layer}].ecall");
            let start = WallTimer::start();
            self.trace_stage_begin(&stage);
            let prof_stage = prof::span(&stage);
            // Always mode refreshes unconditionally. The refresh ECALL
            // reports its input's budget; the recorder-gated post probe is
            // cost-invisible to the stage books.
            let (fresh, before, cost) =
                self.enclave
                    .refresh_batch_par(&self.sys, pooled.cells(), &self.pool)?;
            self.recorder.gauge(
                &format!("noise.budget.layer[{layer}].pre"),
                u64::from(before),
            );
            let (c, h, w) = pooled.shape();
            let fresh = EncryptedMap::new(c, h, w, fresh);
            let after =
                self.probe_gauge(&format!("noise.budget.layer[{layer}].post"), fresh.cells())?;
            self.recorder.incr(counters::NOISE_REFRESHES, 1);
            self.trace_refresh_decision(layer, before, threshold, true);
            metrics.noise.push(NoiseDecision {
                layer,
                before_bits: before,
                after_bits: after,
                threshold_bits: threshold,
                refreshed: true,
            });
            let refresh_wall = start.elapsed();
            self.record_stage(&stage, refresh_wall, Some(&cost));
            metrics.stages.push(StageMetrics {
                name: "Noise Refresh (SGX inside)".into(),
                wall: refresh_wall,
                enclave: Some(cost),
            });
            drop(prof_stage);
            self.trace_stage_end(&stage);
            layer += 1;
            fresh
        } else {
            pooled
        };

        // 4. Fully connected layer — HE outside SGX, parallel over
        // classes × CRT limbs.
        let start = WallTimer::start();
        self.trace_stage_begin(&format!("infer.layer[{layer}].he"));
        let prof_stage = prof::span(&format!("infer.layer[{layer}].he"));
        let logits = match &self.banks {
            Some((_, fc_bank)) => ops::he_fully_connected_cached_par(
                &self.sys,
                &pooled,
                fc_bank,
                m.classes,
                &mut metrics.ops,
                &self.pool,
                &self.arena,
            )?,
            None => ops::he_fully_connected_par(
                &self.sys,
                &pooled,
                &m.fc_weights,
                &m.fc_bias,
                m.classes,
                &mut metrics.ops,
                &self.pool,
            )?,
        };
        drop(prof_stage);
        self.trace_stage_end(&format!("infer.layer[{layer}].he"));
        pooled.recycle(&self.arena);
        let fc_wall = start.elapsed();
        self.record_stage(&format!("infer.layer[{layer}].he"), fc_wall, None);
        metrics.stages.push(StageMetrics {
            name: "Fully Connected Layer (HE outside)".into(),
            wall: fc_wall,
            enclave: None,
        });

        Ok((logits, metrics))
    }

    /// Total enclave cost accumulated on this service's virtual clock.
    pub fn enclave_virtual_time(&self) -> Duration {
        self.enclave.enclave().vclock().elapsed()
    }

    /// Unseals the stored secret-key blob and checks it still decodes to the
    /// enclave-resident keys — the recovery ladder's sealed-state probe.
    ///
    /// # Errors
    ///
    /// A corrupted blob (crash mid-seal, injected [`hesgx_chaos::FaultSite::Seal`]
    /// or [`hesgx_chaos::FaultSite::Unseal`] fault) surfaces as
    /// [`TeeError::SealedBlobCorrupted`], which classifies as
    /// [`crate::error::FaultClass::SealedState`] and tells the session layer
    /// to re-provision rather than retry.
    pub fn verify_sealed_state(&self) -> Result<CostBreakdown> {
        let (restored, cost) = self.enclave.enclave().unseal(&self.sealed_keys);
        let bytes = restored.map_err(Error::Tee)?;
        if bytes != secret_key_bytes(self.enclave.secret_keys()) {
            return Err(Error::Tee(TeeError::SealedBlobCorrupted));
        }
        Ok(cost)
    }

    /// The pure-HE degraded fallback: when the enclave is unavailable
    /// (transient retries exhausted), linear layers run as usual but the
    /// exact in-enclave sigmoid is replaced by the CryptoNets-style square
    /// activation under the ceremony's evaluation keys, and mean pooling
    /// stays a homomorphic window sum (no division without the enclave).
    ///
    /// The logits therefore sit on a different fixed-point scale than the
    /// exact path — the caller gets a ranking-quality prediction, not the
    /// bit-exact reference. [`crate::session::Served::Degraded`] marks such
    /// results.
    ///
    /// # Errors
    ///
    /// Propagates HE failures.
    pub fn infer_degraded(
        &self,
        input: &EncryptedMap,
    ) -> Result<(Vec<CrtCiphertext>, HybridMetrics)> {
        let mut metrics = HybridMetrics {
            threads: self.pool.threads(),
            ..HybridMetrics::default()
        };
        let m = &self.model;

        let start = WallTimer::start();
        self.trace_stage_begin("infer.degraded.layer[0].he");
        let conv = match &self.banks {
            Some((conv_bank, _)) => ops::he_conv2d_cached_par(
                &self.sys,
                input,
                conv_bank,
                m.conv_out,
                m.kernel,
                1,
                &mut metrics.ops,
                &self.pool,
                &self.arena,
            )?,
            None => ops::he_conv2d_par(
                &self.sys,
                input,
                &m.conv_weights,
                &m.conv_bias,
                m.conv_out,
                m.kernel,
                1,
                &mut metrics.ops,
                &self.pool,
            )?,
        };
        self.trace_stage_end("infer.degraded.layer[0].he");
        let wall = start.elapsed();
        self.record_stage("infer.degraded.layer[0].he", wall, None);
        metrics.stages.push(StageMetrics {
            name: "Convolutional Layer (HE outside)".into(),
            wall,
            enclave: None,
        });

        let start = WallTimer::start();
        self.trace_stage_begin("infer.degraded.layer[1].he");
        let activated = ops::he_square_activation_par(
            &self.sys,
            &conv,
            &self.evaluation,
            &mut metrics.ops,
            &self.pool,
        )?;
        self.trace_stage_end("infer.degraded.layer[1].he");
        conv.recycle(&self.arena);
        let wall = start.elapsed();
        self.record_stage("infer.degraded.layer[1].he", wall, None);
        metrics.stages.push(StageMetrics {
            name: "Square Activation (HE fallback)".into(),
            wall,
            enclave: None,
        });

        let start = WallTimer::start();
        self.trace_stage_begin("infer.degraded.layer[2].he");
        let pooled = ops::he_scaled_mean_pool_par(
            &self.sys,
            &activated,
            m.window,
            &mut metrics.ops,
            &self.pool,
            &self.arena,
        )?;
        self.trace_stage_end("infer.degraded.layer[2].he");
        activated.recycle(&self.arena);
        let wall = start.elapsed();
        self.record_stage("infer.degraded.layer[2].he", wall, None);
        metrics.stages.push(StageMetrics {
            name: "Scaled Mean Pool (HE fallback)".into(),
            wall,
            enclave: None,
        });

        let start = WallTimer::start();
        self.trace_stage_begin("infer.degraded.layer[3].he");
        let logits = match &self.banks {
            Some((_, fc_bank)) => ops::he_fully_connected_cached_par(
                &self.sys,
                &pooled,
                fc_bank,
                m.classes,
                &mut metrics.ops,
                &self.pool,
                &self.arena,
            )?,
            None => ops::he_fully_connected_par(
                &self.sys,
                &pooled,
                &m.fc_weights,
                &m.fc_bias,
                m.classes,
                &mut metrics.ops,
                &self.pool,
            )?,
        };
        self.trace_stage_end("infer.degraded.layer[3].he");
        pooled.recycle(&self.arena);
        let wall = start.elapsed();
        self.record_stage("infer.degraded.layer[3].he", wall, None);
        metrics.stages.push(StageMetrics {
            name: "Fully Connected Layer (HE outside)".into(),
            wall,
            enclave: None,
        });

        Ok((logits, metrics))
    }
}

/// Sums the enclave costs of a metrics record.
pub fn total_enclave_cost(metrics: &HybridMetrics) -> CostBreakdown {
    metrics
        .stages
        .iter()
        .filter_map(|s| s.enclave)
        .fold(CostBreakdown::default(), sum_costs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hesgx_tee::enclave::Platform;

    fn small_hybrid_model() -> QuantizedCnn {
        QuantizedCnn {
            pipeline: QuantPipeline::Hybrid,
            in_side: 8,
            conv_out: 2,
            kernel: 3,
            window: 2,
            classes: 3,
            conv_weights: (0..18).map(|i| (i % 7) as i64 - 3).collect(),
            conv_bias: vec![5, -9],
            fc_weights: (0..3 * 18).map(|i| (i % 5) as i64 - 2).collect(),
            fc_bias: vec![10, -5, 0],
            weight_scale: 8,
            fc_scale: 8,
            act_scale: 16,
        }
    }

    #[test]
    fn hybrid_matches_integer_reference_exactly() {
        let model = small_hybrid_model();
        let (service, _ceremony) = HybridInference::provision_with(
            Platform::new(31),
            model.clone(),
            ProvisionConfig {
                poly_degree: 256,
                seed: 7,
                ..ProvisionConfig::default()
            },
        )
        .unwrap();
        let mut rng = ChaChaRng::from_seed(101);
        let images: Vec<Vec<i64>> = (0..3)
            .map(|b| (0..64).map(|p| ((p + b * 7) % 16) as i64).collect())
            .collect();
        let enc = EncryptedMap::encrypt_images(
            &service.sys,
            &images,
            model.in_side,
            service.enclave.public_keys(),
            &mut rng,
        )
        .unwrap();
        let (logits, metrics) = service.infer(&enc, EcallBatching::Batched).unwrap();
        // Decrypt with the enclave's secret keys (test-only access).
        for (b, img) in images.iter().enumerate() {
            let expect = model.forward_ints(img);
            for (class, ct) in logits.iter().enumerate() {
                let slots = service
                    .sys
                    .decrypt_slots(ct, service.enclave.secret_keys())
                    .unwrap();
                assert_eq!(
                    slots[b], expect[class] as i128,
                    "batch {b} class {class} logit"
                );
            }
        }
        assert_eq!(metrics.stages.len(), 4);
        assert!(metrics.total() > Duration::ZERO);
    }

    #[test]
    fn per_pixel_ecalls_cost_more() {
        let model = small_hybrid_model();
        let (service, _) = HybridInference::provision_with(
            Platform::new(32),
            model.clone(),
            ProvisionConfig {
                poly_degree: 256,
                seed: 8,
                ..ProvisionConfig::default()
            },
        )
        .unwrap();
        let mut rng = ChaChaRng::from_seed(102);
        let images = vec![(0..64).map(|p| (p % 16) as i64).collect::<Vec<i64>>()];
        let enc = EncryptedMap::encrypt_images(
            &service.sys,
            &images,
            model.in_side,
            service.enclave.public_keys(),
            &mut rng,
        )
        .unwrap();
        let (_, batched) = service.infer(&enc, EcallBatching::Batched).unwrap();
        let (_, single) = service.infer(&enc, EcallBatching::PerPixel).unwrap();
        let b = total_enclave_cost(&batched);
        let s = total_enclave_cost(&single);
        assert!(
            s.transition_ns > b.transition_ns,
            "per-pixel must pay more transitions"
        );
    }

    #[test]
    fn window_2_uses_sgx_pool() {
        let model = small_hybrid_model();
        let (service, _) = HybridInference::provision_with(
            Platform::new(33),
            model,
            ProvisionConfig {
                poly_degree: 256,
                seed: 9,
                ..ProvisionConfig::default()
            },
        )
        .unwrap();
        assert_eq!(service.plan().pool_strategy, PoolStrategy::SgxPool);
    }

    #[test]
    fn wrong_pipeline_is_a_config_error() {
        let mut model = small_hybrid_model();
        model.pipeline = QuantPipeline::CryptoNets;
        let err = HybridInference::provision_with(
            Platform::new(34),
            model,
            ProvisionConfig {
                poly_degree: 256,
                seed: 10,
                ..ProvisionConfig::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, Error::Config(_)), "{err}");
    }

    #[test]
    fn logits_bit_identical_across_thread_counts() {
        let model = small_hybrid_model();
        let images: Vec<Vec<i64>> = (0..2)
            .map(|b| (0..64).map(|p| ((p * 3 + b) % 16) as i64).collect())
            .collect();
        let mut reference: Option<Vec<CrtCiphertext>> = None;
        for threads in [1usize, 2, 4] {
            // Same seeds everywhere → only the pool size varies.
            let (service, _) = HybridInference::provision_with(
                Platform::new(35),
                model.clone(),
                ProvisionConfig {
                    poly_degree: 256,
                    seed: 11,
                    threads,
                    ..ProvisionConfig::default()
                },
            )
            .unwrap();
            let mut rng = ChaChaRng::from_seed(103);
            let enc = EncryptedMap::encrypt_images(
                &service.sys,
                &images,
                model.in_side,
                service.enclave.public_keys(),
                &mut rng,
            )
            .unwrap();
            let (logits, metrics) = service.infer(&enc, EcallBatching::Batched).unwrap();
            assert_eq!(metrics.threads, threads);
            match &reference {
                None => reference = Some(logits),
                Some(cts) => assert_eq!(&logits, cts, "{threads} threads"),
            }
        }
    }

    /// The cached weight bank must be a pure speed change: logits (ciphertext
    /// bytes, not just decrypted values) identical to the uncached kernels,
    /// and zero per-request weight preparations versus the uncached path's
    /// one-per-tap count.
    #[test]
    fn cached_weights_are_bit_identical_with_zero_weight_prep() {
        let model = small_hybrid_model();
        let images: Vec<Vec<i64>> = (0..2)
            .map(|b| (0..64).map(|p| ((p * 5 + b * 3) % 16) as i64).collect())
            .collect();
        let mut runs = Vec::new();
        for cached_weights in [true, false] {
            let (service, _) = HybridInference::provision_with(
                Platform::new(36),
                model.clone(),
                ProvisionConfig {
                    poly_degree: 256,
                    seed: 12,
                    cached_weights,
                    ..ProvisionConfig::default()
                },
            )
            .unwrap();
            let mut rng = ChaChaRng::from_seed(104);
            let enc = EncryptedMap::encrypt_images(
                &service.sys,
                &images,
                model.in_side,
                service.enclave.public_keys(),
                &mut rng,
            )
            .unwrap();
            let (logits, metrics) = service.infer(&enc, EcallBatching::Batched).unwrap();
            runs.push((logits, metrics.ops));
        }
        let (cached, uncached) = (&runs[0], &runs[1]);
        assert_eq!(cached.0, uncached.0, "cached logits must match uncached");
        assert_eq!(cached.1.ct_pt_mul, uncached.1.ct_pt_mul);
        assert_eq!(cached.1.ct_pt_add, uncached.1.ct_pt_add);
        assert_eq!(cached.1.weight_prep, 0, "no per-request weight prep");
        // Conv: 2 channels × 6×6 cells × 3×3 taps + bias per cell;
        // FC: 3 classes × 18 inputs + bias per class.
        assert_eq!(
            uncached.1.weight_prep as usize,
            2 * 36 * 9 + 2 * 36 + 3 * 18 + 3
        );
    }

    /// Degraded (pure-HE) inference takes the same cached conv/FC paths; the
    /// fallback must stay bit-identical to its uncached form too.
    #[test]
    fn degraded_cached_weights_are_bit_identical() {
        let model = small_hybrid_model();
        let images = vec![(0..64).map(|p| ((p * 7) % 16) as i64).collect::<Vec<i64>>()];
        let mut logits_runs = Vec::new();
        for cached_weights in [true, false] {
            let (service, _) = HybridInference::provision_with(
                Platform::new(37),
                model.clone(),
                ProvisionConfig {
                    poly_degree: 256,
                    seed: 13,
                    cached_weights,
                    ..ProvisionConfig::default()
                },
            )
            .unwrap();
            let mut rng = ChaChaRng::from_seed(105);
            let enc = EncryptedMap::encrypt_images(
                &service.sys,
                &images,
                model.in_side,
                service.enclave.public_keys(),
                &mut rng,
            )
            .unwrap();
            let (logits, metrics) = service.infer_degraded(&enc).unwrap();
            if cached_weights {
                assert_eq!(metrics.ops.weight_prep, 0);
            }
            logits_runs.push(logits);
        }
        assert_eq!(logits_runs[0], logits_runs[1]);
    }
}
