//! In-enclave plaintext computing (paper §IV-D/§IV-E): exact activations,
//! pooling, and noise refresh on ciphertexts passed into the enclave.
//!
//! Every operation follows the same shape: ECALL in with the ciphertexts,
//! decrypt with the enclave-resident secret keys, compute the exact function
//! on plaintext, re-encrypt, ECALL out. The re-encryption also resets the
//! invariant noise, which is why the hybrid pipeline never needs
//! relinearization keys (§IV-E). The decryption measures the input's
//! invariant-noise budget as a by-product, so every operator also returns
//! the minimum budget (bits) of what it consumed — four bytes riding in the
//! output the ECALL already marshals.
//!
//! Batching policy mirrors the paper §VI-E: a whole feature map (or a whole
//! batch of ciphertexts) enters in a *single* ECALL so the boundary-crossing
//! and key-load costs amortize; the `*_single_ecalls` variants reproduce the
//! pathological per-pixel design Fig. 8 calls `EncryptSGX (single)`.

use crate::error::{Error, Result};
use crate::recovery::{retry_with_cost, RecoveryPolicy};
use hesgx_bfv::prelude::{PublicKey, SecretKey};
use hesgx_chaos::{FaultHook, FaultSite};
use hesgx_crypto::rng::ChaChaRng;
use hesgx_crypto::transcipher::{self, IngressKey};
use hesgx_henn::crt::{CrtCiphertext, CrtPlainSystem};
use hesgx_henn::image::EncryptedMap;
use hesgx_henn::par::ParExec;
use hesgx_nn::layers::ActivationKind;
use hesgx_nn::quantize::QuantizedCnn;
use hesgx_tee::cost::CostBreakdown;
use hesgx_tee::enclave::Enclave;
use hesgx_tee::error::TeeError;
use hesgx_tee::wall::WallTimer;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// Former name of [`crate::Error`], kept for source compatibility.
#[deprecated(since = "0.2.0", note = "use `hesgx_core::Error` instead")]
pub type HybridError = Error;

/// The inference enclave: a TEE instance holding the FV secret keys, able to
/// decrypt → compute → re-encrypt.
#[derive(Debug)]
pub struct InferenceEnclave {
    enclave: Enclave,
    secret: Vec<SecretKey>,
    public: Vec<PublicKey>,
    rng: Mutex<ChaChaRng>,
    /// Monotone per-call counter: domain-separates the RNG forks of the
    /// parallel transforms (the fork itself never advances the parent
    /// stream, so without this two calls would reuse one stream).
    calls: AtomicU64,
    /// Bounded-retry policy for transient boundary faults.
    recovery: RecoveryPolicy,
}

impl InferenceEnclave {
    /// Wraps an enclave whose key ceremony produced `secret`/`public`.
    // hesgx-lint: allow(ecall-cost, reason = "constructor; performs no enclave computation")
    pub fn new(
        enclave: Enclave,
        secret: Vec<SecretKey>,
        public: Vec<PublicKey>,
        seed: u64,
    ) -> Self {
        InferenceEnclave {
            enclave,
            secret,
            public,
            rng: Mutex::new(ChaChaRng::from_seed(seed).fork("enclave-reencrypt")),
            calls: AtomicU64::new(0),
            recovery: RecoveryPolicy::default(),
        }
    }

    /// The underlying simulated enclave.
    // hesgx-lint: allow(ecall-cost, reason = "accessor; performs no enclave computation")
    pub fn enclave(&self) -> &Enclave {
        &self.enclave
    }

    /// Overrides the bounded-retry policy for transient boundary faults.
    // hesgx-lint: allow(ecall-cost, reason = "setter; performs no enclave computation")
    pub fn set_recovery_policy(&mut self, policy: RecoveryPolicy) {
        self.recovery = policy;
    }

    /// The active retry policy.
    // hesgx-lint: allow(ecall-cost, reason = "accessor; performs no enclave computation")
    pub fn recovery_policy(&self) -> RecoveryPolicy {
        self.recovery
    }

    /// The enclave's installed fault hook as a trait object (recovery-event
    /// sink), if any.
    fn hook(&self) -> Option<&dyn FaultHook> {
        self.enclave.fault_hook().map(|h| h.as_ref())
    }

    /// The observability recorder the enclave reports into (the disabled
    /// no-op recorder unless the provisioning config installed one).
    fn obs(&self) -> &hesgx_obs::Recorder {
        self.enclave.recorder()
    }

    /// Consults `site` before an attempt begins (the noise-refresh site: the
    /// request can be dropped before it ever reaches the enclave).
    fn consult_pre_site(&self, site: Option<FaultSite>) -> std::result::Result<(), Error> {
        if let Some(site) = site {
            if self.hook().and_then(|h| h.inject(site)).is_some() {
                return Err(Error::Tee(TeeError::Interrupted(site)));
            }
        }
        Ok(())
    }

    /// The public keys matching the enclave's secret keys.
    // hesgx-lint: allow(ecall-cost, reason = "accessor; performs no enclave computation")
    pub fn public_keys(&self) -> &[PublicKey] {
        &self.public
    }

    /// The enclave-resident secret keys (crate-internal; users receive their
    /// copy through the key ceremony).
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn secret_keys(&self) -> &[SecretKey] {
        &self.secret
    }

    /// Decrypt a batch of ciphertexts, map each slot value, re-encrypt —
    /// the common core of all in-enclave operators. Runs as ONE ecall and
    /// returns the outputs, the minimum noise budget (bits) of the inputs,
    /// and the boundary cost.
    fn transform_cells(
        &self,
        name: &str,
        sys: &CrtPlainSystem,
        cells: &[&CrtCiphertext],
        f: impl Fn(usize, i128) -> i64,
    ) -> Result<(Vec<CrtCiphertext>, u32, CostBreakdown)> {
        self.transform_cells_retrying(name, sys, cells, f, None)
    }

    /// [`InferenceEnclave::transform_cells`] with an optional extra fault
    /// site consulted before each attempt (the noise-refresh request path).
    ///
    /// Each attempt is a fallible ECALL; transient boundary faults are
    /// retried under the enclave's [`RecoveryPolicy`] with every attempt's
    /// boundary cost summed into the returned breakdown (an aborted `EENTER`
    /// still crossed the boundary). The decrypted values are exact on any
    /// successful attempt, so retries never change inference output.
    ///
    /// As on the parallel path, the base RNG stream is forked *once* per
    /// logical call, outside the retry loop, and each attempt restarts from
    /// that fork — so a retried attempt re-encrypts with exactly the same
    /// randomness and retries are bit-invisible in the output ciphertexts.
    /// (An earlier version locked the shared stream inside the attempt, so a
    /// failed attempt advanced it and the retry produced different bits.)
    fn transform_cells_retrying(
        &self,
        name: &str,
        sys: &CrtPlainSystem,
        cells: &[&CrtCiphertext],
        f: impl Fn(usize, i128) -> i64,
        pre_site: Option<FaultSite>,
    ) -> Result<(Vec<CrtCiphertext>, u32, CostBreakdown)> {
        let in_bytes: usize = cells.iter().map(|c| c.byte_len()).sum();
        let call = self.calls.fetch_add(1, Ordering::Relaxed);
        let base = self.rng.lock().fork(&format!("seq-call-{call}"));
        let (result, cost) = retry_with_cost(&self.recovery, self.hook(), self.obs(), || {
            if let Err(e) = self.consult_pre_site(pre_site) {
                return (Err(e), CostBreakdown::default());
            }
            let (res, cost) = self
                .enclave
                .ecall_fallible(name, in_bytes, in_bytes, |ctx| {
                    let region = ctx.alloc(in_bytes.max(4096)).map_err(Error::Tee)?;
                    // First pass marshals the input in (cold faults); the
                    // compute pass then re-reads the header page, now
                    // resident — the spot where injected EPC load pressure
                    // strikes.
                    ctx.touch(region).map_err(Error::Tee)?;
                    ctx.touch_bytes(region, 1).map_err(Error::Tee)?;
                    // Every attempt restarts the sequential stream from the
                    // per-call fork: retries are bit-invisible.
                    let mut rng = base.clone();
                    let mut out = Vec::with_capacity(cells.len());
                    let mut min_bits = u32::MAX;
                    for (idx, cell) in cells.iter().enumerate() {
                        let (slots, bits) = sys.decrypt_slots_with_budget(cell, &self.secret)?;
                        min_bits = min_bits.min(bits);
                        let mapped: Vec<i64> = slots.iter().map(|&v| f(idx, v)).collect();
                        out.push(sys.encrypt_slots(&mapped, &self.public, &mut rng)?);
                    }
                    ctx.free(region).map_err(Error::Tee)?;
                    Ok::<_, Error>((out, min_bits))
                });
            match res {
                Ok(inner) => (inner, cost),
                Err(tee) => (Err(Error::Tee(tee)), cost),
            }
        });
        let (out, min_bits) = result?;
        Ok((out, min_bits, cost))
    }

    /// Parallel [`InferenceEnclave::transform_cells`]: still ONE ecall for the
    /// whole batch, but the per-cell decrypt→map→re-encrypt work is scheduled
    /// on `pool` inside the enclave body.
    ///
    /// Each cell re-encrypts with its own fork of the enclave RNG, keyed by
    /// `(call number, cell index)`, so the output is bit-identical for every
    /// pool size — including `pool.threads() == 1` — though the ciphertext
    /// bits differ from the sequential-stream [`InferenceEnclave::transform_cells`]
    /// (the decrypted values are always identical). The summed per-task CPU
    /// time is reported to the cost model via
    /// [`hesgx_tee::enclave::EnclaveCtx::record_cpu_ns`], so the virtual
    /// clock charges the enclave for the *full* CPU work of the batch, not
    /// just the shortened wall time.
    fn transform_cells_par(
        &self,
        name: &str,
        sys: &CrtPlainSystem,
        cells: &[&CrtCiphertext],
        f: impl Fn(usize, i128) -> i64 + Sync,
        pool: &ParExec,
    ) -> Result<(Vec<CrtCiphertext>, u32, CostBreakdown)> {
        self.transform_cells_par_retrying(name, sys, cells, f, pool, None)
    }

    /// [`InferenceEnclave::transform_cells_par`] with retry and an optional
    /// pre-attempt fault site, mirroring
    /// [`InferenceEnclave::transform_cells_retrying`].
    ///
    /// The call counter advances and the base RNG stream is forked *once* per
    /// logical call, outside the retry loop (forking never advances the
    /// parent stream), so a retried attempt re-encrypts with exactly the same
    /// randomness as the attempt it replaces: retries are bit-invisible in
    /// the output ciphertexts.
    fn transform_cells_par_retrying(
        &self,
        name: &str,
        sys: &CrtPlainSystem,
        cells: &[&CrtCiphertext],
        f: impl Fn(usize, i128) -> i64 + Sync,
        pool: &ParExec,
        pre_site: Option<FaultSite>,
    ) -> Result<(Vec<CrtCiphertext>, u32, CostBreakdown)> {
        let in_bytes: usize = cells.iter().map(|c| c.byte_len()).sum();
        let call = self.calls.fetch_add(1, Ordering::Relaxed);
        let base = self.rng.lock().fork(&format!("par-call-{call}"));
        let (result, cost) = retry_with_cost(&self.recovery, self.hook(), self.obs(), || {
            if let Err(e) = self.consult_pre_site(pre_site) {
                return (Err(e), CostBreakdown::default());
            }
            let (res, cost) = self
                .enclave
                .ecall_fallible(name, in_bytes, in_bytes, |ctx| {
                    let region = ctx.alloc(in_bytes.max(4096)).map_err(Error::Tee)?;
                    // First pass marshals the input in (cold faults); the
                    // compute pass then re-reads the header page, now
                    // resident — the spot where injected EPC load pressure
                    // strikes.
                    ctx.touch(region).map_err(Error::Tee)?;
                    ctx.touch_bytes(region, 1).map_err(Error::Tee)?;
                    let tasks = pool.try_run(cells.len(), |idx| {
                        let start = WallTimer::start();
                        let mut rng = base.fork(&format!("cell-{idx}"));
                        let (slots, bits) =
                            sys.decrypt_slots_with_budget(cells[idx], &self.secret)?;
                        let mapped: Vec<i64> = slots.iter().map(|&v| f(idx, v)).collect();
                        let ct = sys.encrypt_slots(&mapped, &self.public, &mut rng)?;
                        Ok::<_, Error>((ct, bits, start.elapsed_ns()))
                    })?;
                    let mut out = Vec::with_capacity(tasks.len());
                    let mut min_bits = u32::MAX;
                    let mut cpu_ns = 0u64;
                    for (ct, bits, ns) in tasks {
                        out.push(ct);
                        min_bits = min_bits.min(bits);
                        cpu_ns = cpu_ns.saturating_add(ns);
                    }
                    ctx.record_cpu_ns(cpu_ns);
                    ctx.free(region).map_err(Error::Tee)?;
                    Ok::<_, Error>((out, min_bits))
                });
            match res {
                Ok(inner) => (inner, cost),
                Err(tee) => (Err(Error::Tee(tee)), cost),
            }
        });
        let (out, min_bits) = result?;
        Ok((out, min_bits, cost))
    }

    /// Exact activation over a whole feature map in a single batched ECALL
    /// (`SGXSigmoid` in Fig. 5; also serves ReLU/Tanh/LeakyReLU, §VI-C).
    /// Returns the activated map, the input's minimum noise budget (bits),
    /// and the boundary cost.
    ///
    /// # Errors
    ///
    /// Propagates HE/TEE failures.
    pub fn activation_map(
        &self,
        sys: &CrtPlainSystem,
        input: &EncryptedMap,
        model: &QuantizedCnn,
        kind: ActivationKind,
    ) -> Result<(EncryptedMap, u32, CostBreakdown)> {
        let (c, h, w) = input.shape();
        let cells: Vec<&CrtCiphertext> = input.cells().iter().collect();
        let (out, bits, cost) = self.transform_cells("ecall_activation", sys, &cells, |_, v| {
            model.enclave_activation(v as i64, kind)
        })?;
        Ok((EncryptedMap::new(c, h, w, out), bits, cost))
    }

    /// Parallel [`InferenceEnclave::activation_map`]: one ECALL for the whole
    /// feature map, per-cell work scheduled on `pool` inside the enclave.
    ///
    /// # Errors
    ///
    /// Propagates HE/TEE failures.
    pub fn activation_map_par(
        &self,
        sys: &CrtPlainSystem,
        input: &EncryptedMap,
        model: &QuantizedCnn,
        kind: ActivationKind,
        pool: &ParExec,
    ) -> Result<(EncryptedMap, u32, CostBreakdown)> {
        let (c, h, w) = input.shape();
        let cells: Vec<&CrtCiphertext> = input.cells().iter().collect();
        let (out, bits, cost) = self.transform_cells_par(
            "ecall_activation",
            sys,
            &cells,
            |_, v| model.enclave_activation(v as i64, kind),
            pool,
        )?;
        Ok((EncryptedMap::new(c, h, w, out), bits, cost))
    }

    /// The pathological per-pixel variant: one ECALL per cell
    /// (`EncryptSGX (single)` in Fig. 8). Returns the minimum budget over
    /// all the calls and the summed cost.
    ///
    /// # Errors
    ///
    /// Propagates HE/TEE failures.
    pub fn activation_map_single_ecalls(
        &self,
        sys: &CrtPlainSystem,
        input: &EncryptedMap,
        model: &QuantizedCnn,
        kind: ActivationKind,
    ) -> Result<(EncryptedMap, u32, CostBreakdown)> {
        let (c, h, w) = input.shape();
        let mut out = Vec::with_capacity(input.cells().len());
        let mut min_bits = u32::MAX;
        let mut total = CostBreakdown::default();
        for cell in input.cells() {
            let (mut mapped, bits, cost) =
                self.transform_cells("ecall_activation_single", sys, &[cell], |_, v| {
                    model.enclave_activation(v as i64, kind)
                })?;
            out.push(
                mapped
                    .pop()
                    .ok_or(Error::Internal("single-cell transform returned no cell"))?,
            );
            min_bits = min_bits.min(bits);
            total = sum_costs(total, cost);
        }
        Ok((EncryptedMap::new(c, h, w, out), min_bits, total))
    }

    /// `SGXDiv` (paper §VI-D): the window sums were computed homomorphically
    /// outside; the enclave only performs the non-linear division by `k²`.
    /// Returns the divided map, the sums' minimum noise budget (bits), and
    /// the boundary cost.
    ///
    /// # Errors
    ///
    /// Propagates HE/TEE failures.
    pub fn divide_map(
        &self,
        sys: &CrtPlainSystem,
        summed: &EncryptedMap,
        model: &QuantizedCnn,
    ) -> Result<(EncryptedMap, u32, CostBreakdown)> {
        let (c, h, w) = summed.shape();
        let cells: Vec<&CrtCiphertext> = summed.cells().iter().collect();
        let (out, bits, cost) = self.transform_cells("ecall_divide", sys, &cells, |_, v| {
            model.enclave_mean(v as i64)
        })?;
        Ok((EncryptedMap::new(c, h, w, out), bits, cost))
    }

    /// Parallel [`InferenceEnclave::divide_map`]: one ECALL, per-cell work on
    /// `pool`.
    ///
    /// # Errors
    ///
    /// Propagates HE/TEE failures.
    pub fn divide_map_par(
        &self,
        sys: &CrtPlainSystem,
        summed: &EncryptedMap,
        model: &QuantizedCnn,
        pool: &ParExec,
    ) -> Result<(EncryptedMap, u32, CostBreakdown)> {
        let (c, h, w) = summed.shape();
        let cells: Vec<&CrtCiphertext> = summed.cells().iter().collect();
        let (out, bits, cost) = self.transform_cells_par(
            "ecall_divide",
            sys,
            &cells,
            |_, v| model.enclave_mean(v as i64),
            pool,
        )?;
        Ok((EncryptedMap::new(c, h, w, out), bits, cost))
    }

    /// Transciphered ingress (`ecall_Transcipher`, DESIGN.md §17): the
    /// client's ChaCha20-sealed pixel payload enters the enclave, is
    /// authenticated and opened *inside*, and the quantized pixels are
    /// re-encrypted under FV — one ciphertext per pixel position with the
    /// batch riding the SIMD slots, exactly the layout
    /// `EncryptedMap::encrypt_images_par` produces on the client for the
    /// FV-ciphertext ingress path.
    ///
    /// The upload is kilobytes where an FV-ciphertext upload is megabytes;
    /// the price is the in-enclave FV encryption, which is charged honestly:
    /// EPC touches for the marshalled payload region, measured CPU time for
    /// the authenticate+stream-decrypt and for every per-pixel FV encryption
    /// (summed across pool workers via
    /// [`hesgx_tee::enclave::EnclaveCtx::record_cpu_ns`]), and output
    /// marshalling sized from a deterministic probe encryption — fresh
    /// ciphertext sizes depend only on the FV parameters, and the produced
    /// map must leave the enclave for the HE-outside linear layers.
    ///
    /// [`FaultSite::Transcipher`] is consulted before every attempt (the
    /// upload can be dropped in transit); transient faults retry under the
    /// enclave's [`RecoveryPolicy`]. The RNG base is forked once per logical
    /// call *outside* the retry loop and every cell encrypts from its own
    /// `cell-{pixel}` fork, so retries are bit-invisible and the ciphertext
    /// bits are identical for every pool size.
    ///
    /// Returns the per-pixel ciphertext cells, the batch size the payload
    /// carried, and the boundary cost.
    ///
    /// # Errors
    ///
    /// Fails without retry when the payload does not authenticate or is
    /// malformed ([`Error::Config`] — a forged upload must not burn the
    /// retry budget), or when its batch exceeds the SIMD slot count;
    /// propagates HE/TEE failures.
    pub fn transcipher_ingress(
        &self,
        sys: &CrtPlainSystem,
        key: &IngressKey,
        payload: &[u8],
        pool: &ParExec,
    ) -> Result<(Vec<CrtCiphertext>, usize, CostBreakdown)> {
        let in_bytes = payload.len();
        // The clear framing header sizes the out-marshalling before the tag
        // is checked; a lying header can only mis-price a request that then
        // fails authentication, never desynchronize unpacking (the shape is
        // re-read from the authenticated header inside the ECALL body).
        let (_, pixels) = transcipher::peek_shape(payload)
            .map_err(|e| Error::Config(format!("transcipher ingress: {e}")))?;
        let call = self.calls.fetch_add(1, Ordering::Relaxed);
        let base = self.rng.lock().fork(&format!("transcipher-call-{call}"));
        let out_bytes = {
            let mut probe_rng = base.fork("size-probe");
            let probe = sys.encrypt_slots(&[0], &self.public, &mut probe_rng)?;
            probe.byte_len().saturating_mul(pixels)
        };
        let (result, cost) = retry_with_cost(&self.recovery, self.hook(), self.obs(), || {
            if let Err(e) = self.consult_pre_site(Some(FaultSite::Transcipher)) {
                return (Err(e), CostBreakdown::default());
            }
            let (res, cost) =
                self.enclave
                    .ecall_fallible("ecall_Transcipher", in_bytes, out_bytes, |ctx| {
                        let region = ctx.alloc(in_bytes.max(4096)).map_err(Error::Tee)?;
                        // First pass marshals the payload in (cold faults);
                        // the open pass re-reads the header page, now
                        // resident — the spot where injected EPC load
                        // pressure strikes.
                        ctx.touch(region).map_err(Error::Tee)?;
                        ctx.touch_bytes(region, 1).map_err(Error::Tee)?;
                        let open_timer = WallTimer::start();
                        let images = transcipher::open_images(key, payload)
                            .map_err(|e| Error::Config(format!("transcipher ingress: {e}")))?;
                        let mut cpu_ns = open_timer.elapsed_ns();
                        let batch = images.len();
                        let Some(first) = images.first() else {
                            return Err(Error::Internal("transcipher payload opened empty"));
                        };
                        if batch > sys.slot_count() {
                            return Err(Error::Config(format!(
                                "transcipher batch of {batch} images exceeds the {} SIMD slots",
                                sys.slot_count()
                            )));
                        }
                        let pixels = first.len();
                        let images = &images;
                        let tasks = pool.try_run(pixels, |pixel| {
                            let start = WallTimer::start();
                            let mut rng = base.fork(&format!("cell-{pixel}"));
                            let slots: Vec<i64> = images.iter().map(|img| img[pixel]).collect();
                            let ct = sys.encrypt_slots(&slots, &self.public, &mut rng)?;
                            Ok::<_, Error>((ct, start.elapsed_ns()))
                        })?;
                        let mut out = Vec::with_capacity(tasks.len());
                        for (ct, ns) in tasks {
                            out.push(ct);
                            cpu_ns = cpu_ns.saturating_add(ns);
                        }
                        ctx.record_cpu_ns(cpu_ns);
                        ctx.free(region).map_err(Error::Tee)?;
                        Ok::<_, Error>((out, batch))
                    });
            match res {
                Ok(inner) => (inner, cost),
                Err(tee) => (Err(Error::Tee(tee)), cost),
            }
        });
        let (cells, batch) = result?;
        self.obs().incr(hesgx_obs::counters::TRANSCIPHERS, 1);
        self.obs()
            .incr(hesgx_obs::counters::INGRESS_UPLOAD_BYTES, in_bytes as u64);
        Ok((cells, batch, cost))
    }

    /// `SGXPool` (paper §VI-D): the whole feature map enters the enclave and
    /// both the addition and the division happen inside. Fixed input size
    /// regardless of window (the paper's green line in Fig. 6). Returns the
    /// pooled map, the input's minimum noise budget (bits), and the cost.
    ///
    /// # Errors
    ///
    /// Propagates HE/TEE failures.
    pub fn pool_full_map(
        &self,
        sys: &CrtPlainSystem,
        input: &EncryptedMap,
        model: &QuantizedCnn,
        max_pool: bool,
    ) -> Result<(EncryptedMap, u32, CostBreakdown)> {
        let (c, h, w) = input.shape();
        let window = model.window;
        let (oh, ow) = (h / window, w / window);
        let in_bytes = input.byte_len();
        let out_count = c * oh * ow;
        let slot_count = sys.slot_count();
        // One fork per logical call, outside the retry loop; every attempt
        // restarts from the fork, so retries are bit-invisible (the same fix
        // the par variant always had).
        let call = self.calls.fetch_add(1, Ordering::Relaxed);
        let base = self.rng.lock().fork(&format!("seq-call-{call}"));
        let (result, cost) = retry_with_cost(&self.recovery, self.hook(), self.obs(), || {
            let (res, cost) = self.enclave.ecall_fallible(
                "ecall_pool",
                in_bytes,
                in_bytes / (window * window).max(1),
                |ctx| {
                    let region = ctx.alloc(in_bytes.max(4096)).map_err(Error::Tee)?;
                    ctx.touch(region).map_err(Error::Tee)?;
                    // Decrypt the full map.
                    let mut plain: Vec<Vec<i128>> = Vec::with_capacity(input.cells().len());
                    let mut min_bits = u32::MAX;
                    for cell in input.cells() {
                        let (slots, bits) = sys.decrypt_slots_with_budget(cell, &self.secret)?;
                        min_bits = min_bits.min(bits);
                        plain.push(slots);
                    }
                    // Pool per slot.
                    let mut rng = base.clone();
                    let mut out_cells = Vec::with_capacity(out_count);
                    for ch in 0..c {
                        for oy in 0..oh {
                            for ox in 0..ow {
                                let mut slots_out = vec![0i64; slot_count];
                                for (s, slot_out) in slots_out.iter_mut().enumerate() {
                                    let mut acc: Option<i64> = None;
                                    for dy in 0..window {
                                        for dx in 0..window {
                                            let v = plain
                                                [(ch * h + oy * window + dy) * w + ox * window + dx]
                                                [s]
                                                as i64;
                                            acc = Some(match acc {
                                                None => v,
                                                Some(a) if max_pool => a.max(v),
                                                Some(a) => a + v,
                                            });
                                        }
                                    }
                                    let acc =
                                        acc.ok_or(Error::Internal("pooling window is empty"))?;
                                    *slot_out = if max_pool {
                                        acc
                                    } else {
                                        model.enclave_mean(acc)
                                    };
                                }
                                out_cells.push(sys.encrypt_slots(
                                    &slots_out,
                                    &self.public,
                                    &mut rng,
                                )?);
                            }
                        }
                    }
                    ctx.free(region).map_err(Error::Tee)?;
                    Ok::<_, Error>((out_cells, min_bits))
                },
            );
            match res {
                Ok(inner) => (inner, cost),
                Err(tee) => (Err(Error::Tee(tee)), cost),
            }
        });
        let (out_cells, min_bits) = result?;
        Ok((EncryptedMap::new(c, oh, ow, out_cells), min_bits, cost))
    }

    /// Parallel [`InferenceEnclave::pool_full_map`]: still one ECALL for the
    /// whole map; the decryption of every input cell and the pool+re-encrypt
    /// of every output cell are scheduled on `pool` inside the enclave body,
    /// with the summed per-task CPU time reported to the cost model.
    ///
    /// # Errors
    ///
    /// Propagates HE/TEE failures.
    pub fn pool_full_map_par(
        &self,
        sys: &CrtPlainSystem,
        input: &EncryptedMap,
        model: &QuantizedCnn,
        max_pool: bool,
        pool: &ParExec,
    ) -> Result<(EncryptedMap, u32, CostBreakdown)> {
        let (c, h, w) = input.shape();
        let window = model.window;
        let (oh, ow) = (h / window, w / window);
        let in_bytes = input.byte_len();
        let out_count = c * oh * ow;
        let slot_count = sys.slot_count();
        // One fork per logical call, outside the retry loop: a retried
        // attempt re-encrypts with the same randomness as the one it
        // replaces.
        let call = self.calls.fetch_add(1, Ordering::Relaxed);
        let base = self.rng.lock().fork(&format!("par-call-{call}"));
        let (result, cost) = retry_with_cost(&self.recovery, self.hook(), self.obs(), || {
            let (res, cost) = self.enclave.ecall_fallible(
                "ecall_pool",
                in_bytes,
                in_bytes / (window * window).max(1),
                |ctx| {
                    let region = ctx.alloc(in_bytes.max(4096)).map_err(Error::Tee)?;
                    ctx.touch(region).map_err(Error::Tee)?;
                    let mut cpu_ns = 0u64;
                    // Decrypt the full map, one task per cell.
                    let decrypted = pool.try_run(input.cells().len(), |i| {
                        let start = WallTimer::start();
                        let (slots, bits) =
                            sys.decrypt_slots_with_budget(&input.cells()[i], &self.secret)?;
                        Ok::<_, Error>((slots, bits, start.elapsed_ns()))
                    })?;
                    let mut plain = Vec::with_capacity(decrypted.len());
                    let mut min_bits = u32::MAX;
                    for (slots, bits, ns) in decrypted {
                        plain.push(slots);
                        min_bits = min_bits.min(bits);
                        cpu_ns = cpu_ns.saturating_add(ns);
                    }
                    // Pool + re-encrypt, one task per output cell.
                    let plain = &plain;
                    let outs = pool.try_run(out_count, |o| {
                        let start = WallTimer::start();
                        let ch = o / (oh * ow);
                        let oy = (o / ow) % oh;
                        let ox = o % ow;
                        let mut rng = base.fork(&format!("cell-{o}"));
                        let mut slots_out = vec![0i64; slot_count];
                        for (s, slot_out) in slots_out.iter_mut().enumerate() {
                            let mut acc: Option<i64> = None;
                            for dy in 0..window {
                                for dx in 0..window {
                                    let v = plain
                                        [(ch * h + oy * window + dy) * w + ox * window + dx][s]
                                        as i64;
                                    acc = Some(match acc {
                                        None => v,
                                        Some(a) if max_pool => a.max(v),
                                        Some(a) => a + v,
                                    });
                                }
                            }
                            let acc = acc.ok_or(Error::Internal("pooling window is empty"))?;
                            *slot_out = if max_pool {
                                acc
                            } else {
                                model.enclave_mean(acc)
                            };
                        }
                        let ct = sys.encrypt_slots(&slots_out, &self.public, &mut rng)?;
                        Ok::<_, Error>((ct, start.elapsed_ns()))
                    })?;
                    let mut out_cells = Vec::with_capacity(out_count);
                    for (ct, ns) in outs {
                        out_cells.push(ct);
                        cpu_ns = cpu_ns.saturating_add(ns);
                    }
                    ctx.record_cpu_ns(cpu_ns);
                    ctx.free(region).map_err(Error::Tee)?;
                    Ok::<_, Error>((out_cells, min_bits))
                },
            );
            match res {
                Ok(inner) => (inner, cost),
                Err(tee) => (Err(Error::Tee(tee)), cost),
            }
        });
        let (out_cells, min_bits) = result?;
        Ok((EncryptedMap::new(c, oh, ow, out_cells), min_bits, cost))
    }

    /// Noise refresh (`ecall_DcreaseNoise`, paper §VI-E / Table V): decrypt
    /// and re-encrypt a batch of ciphertexts in one ECALL, removing all
    /// accumulated noise and shrinking size-3 ciphertexts back to size 2 —
    /// the enclave alternative to relinearization. Returns the fresh
    /// ciphertexts, the inputs' minimum noise budget (bits), and the cost.
    ///
    /// # Errors
    ///
    /// Propagates HE/TEE failures.
    pub fn refresh_batch(
        &self,
        sys: &CrtPlainSystem,
        cts: &[CrtCiphertext],
    ) -> Result<(Vec<CrtCiphertext>, u32, CostBreakdown)> {
        let refs: Vec<&CrtCiphertext> = cts.iter().collect();
        self.transform_cells_retrying(
            "ecall_DecreaseNoise",
            sys,
            &refs,
            |_, v| v as i64,
            Some(FaultSite::NoiseRefresh),
        )
    }

    /// Parallel [`InferenceEnclave::refresh_batch`]: one ECALL, per-ciphertext
    /// work on `pool`.
    ///
    /// # Errors
    ///
    /// Propagates HE/TEE failures.
    pub fn refresh_batch_par(
        &self,
        sys: &CrtPlainSystem,
        cts: &[CrtCiphertext],
        pool: &ParExec,
    ) -> Result<(Vec<CrtCiphertext>, u32, CostBreakdown)> {
        let refs: Vec<&CrtCiphertext> = cts.iter().collect();
        self.transform_cells_par_retrying(
            "ecall_DecreaseNoise",
            sys,
            &refs,
            |_, v| v as i64,
            pool,
            Some(FaultSite::NoiseRefresh),
        )
    }

    /// Single-ciphertext refresh (one ECALL round-trip each — the
    /// unamortized row of Table V).
    ///
    /// # Errors
    ///
    /// Propagates HE/TEE failures.
    pub fn refresh_one(
        &self,
        sys: &CrtPlainSystem,
        ct: &CrtCiphertext,
    ) -> Result<(CrtCiphertext, u32, CostBreakdown)> {
        let (mut out, bits, cost) = self.transform_cells_retrying(
            "ecall_DecreaseNoise",
            sys,
            &[ct],
            |_, v| v as i64,
            Some(FaultSite::NoiseRefresh),
        )?;
        let fresh = out
            .pop()
            .ok_or(Error::Internal("refresh returned no ciphertext"))?;
        Ok((fresh, bits, cost))
    }

    /// Measures the minimum invariant-noise budget (bits) across `cts`
    /// inside the enclave, as a standalone ECALL — the input to the Auto
    /// refresh decision and the post-refresh measurement (DESIGN.md §13.2).
    /// The operator ECALLs need no probe: they report their input's budget
    /// from the decryption they already run.
    ///
    /// The probe deliberately sits *outside* the fault-injection and RNG
    /// machinery: it uses the plain (infallible) ECALL path, consults no
    /// fault sites, advances neither the call counter nor the re-encryption
    /// stream, and touches no EPC pages (it reads ciphertexts the
    /// surrounding operator already marshalled). Enabling telemetry can
    /// therefore never shift a chaos occurrence index or change a single
    /// output ciphertext bit. Measurement stays behind the enclave
    /// boundary: the secret key and the noise polynomial never leave, only
    /// the bit-count (4 bytes) is marshalled out.
    ///
    /// # Errors
    ///
    /// Propagates HE decryption failures.
    pub fn noise_probe(
        &self,
        sys: &CrtPlainSystem,
        cts: &[&CrtCiphertext],
    ) -> Result<(u32, CostBreakdown)> {
        let in_bytes: usize = cts.iter().map(|c| c.byte_len()).sum();
        let (bits, cost) = self.enclave.ecall("ecall_NoiseProbe", in_bytes, 4, |_ctx| {
            let mut min_bits = u32::MAX;
            for ct in cts {
                min_bits = min_bits.min(sys.noise_budget(ct, &self.secret)?);
            }
            Ok::<_, Error>(min_bits)
        });
        Ok((bits?, cost))
    }
}

/// Sums two cost breakdowns term-wise.
///
/// Delegates to [`CostBreakdown::saturating_add`] so every fold path in the
/// workspace — retry accumulation, pipeline metrics, report totals — shares
/// one saturating primitive instead of each re-implementing (and one of them
/// wrapping) the arithmetic.
pub fn sum_costs(a: CostBreakdown, b: CostBreakdown) -> CostBreakdown {
    a.saturating_add(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keydist::enclave_generate_keys;
    use hesgx_nn::quantize::{QuantPipeline, QuantizedCnn};
    use hesgx_tee::enclave::{EnclaveBuilder, Platform};

    fn small_model() -> QuantizedCnn {
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

    fn setup() -> (InferenceEnclave, CrtPlainSystem, ChaChaRng) {
        let platform = Platform::new(21);
        let enclave = EnclaveBuilder::new("test-enclave")
            .add_code(b"v1")
            .build(platform);
        let sys = CrtPlainSystem::new(256, &[12289, 13313]).unwrap();
        let mut rng = ChaChaRng::from_seed(91);
        let (keys, _) = enclave_generate_keys(&enclave, &sys, &mut rng).expect("key ceremony");
        let ie = InferenceEnclave::new(enclave, keys.secret, keys.public, 92);
        (ie, sys, rng)
    }

    #[test]
    fn activation_matches_reference() {
        let (ie, sys, mut rng) = setup();
        let model = small_model();
        // A map of "conv outputs" to activate.
        let values: Vec<Vec<i64>> = vec![vec![-500, -10, 0, 10, 500, 123, -77, 999, 4]];
        let enc = EncryptedMap::encrypt_images(&sys, &values, 3, &ie.public, &mut rng).unwrap();
        let (out, _, cost) = ie
            .activation_map(&sys, &enc, &model, ActivationKind::Sigmoid)
            .unwrap();
        let dec = out.decrypt_all(&sys, &ie.secret, 1).unwrap();
        let expect: Vec<i128> = values[0]
            .iter()
            .map(|&v| model.enclave_sigmoid(v) as i128)
            .collect();
        assert_eq!(dec[0], expect);
        assert!(cost.total_ns() > 0);
    }

    #[test]
    fn batched_ecall_cheaper_than_per_cell() {
        let (ie, sys, mut rng) = setup();
        let model = small_model();
        let values = vec![(0..16).map(|v| v * 10 - 80).collect::<Vec<i64>>()];
        let enc = EncryptedMap::encrypt_images(&sys, &values, 4, &ie.public, &mut rng).unwrap();
        let (_, _, batched) = ie
            .activation_map(&sys, &enc, &model, ActivationKind::Sigmoid)
            .unwrap();
        let (_, _, single) = ie
            .activation_map_single_ecalls(&sys, &enc, &model, ActivationKind::Sigmoid)
            .unwrap();
        assert!(
            single.transition_ns > batched.transition_ns,
            "per-cell ECALLs must pay more transitions: {} vs {}",
            single.transition_ns,
            batched.transition_ns
        );
    }

    #[test]
    fn refresh_preserves_value_and_resets_noise() {
        let (ie, sys, mut rng) = setup();
        let keys_secret = &ie.secret;
        let ct = sys
            .encrypt_slots(&[1234, -99], &ie.public, &mut rng)
            .unwrap();
        // Square to consume budget and grow the ciphertext.
        let sq = sys.square(&ct).unwrap();
        assert_eq!(sq.size(), 3);
        let before = sys.noise_budget(&sq, keys_secret).unwrap();
        let (fresh, _, _) = ie.refresh_one(&sys, &sq).unwrap();
        assert_eq!(fresh.size(), 2, "refresh shrinks the ciphertext");
        let after = sys.noise_budget(&fresh, keys_secret).unwrap();
        assert!(
            after > before,
            "refresh must reset noise: {before} -> {after}"
        );
        let dec = sys.decrypt_slots(&fresh, keys_secret).unwrap();
        assert_eq!(dec[0], 1234 * 1234);
        assert_eq!(dec[1], 99 * 99);
    }

    #[test]
    fn batched_refresh_amortizes_transitions() {
        let (ie, sys, mut rng) = setup();
        let cts: Vec<_> = (0..8)
            .map(|i| sys.encrypt_slots(&[i], &ie.public, &mut rng).unwrap())
            .collect();
        let (_, _, batched) = ie.refresh_batch(&sys, &cts).unwrap();
        let mut single_total = CostBreakdown::default();
        for ct in &cts {
            let (_, _, c) = ie.refresh_one(&sys, ct).unwrap();
            single_total = sum_costs(single_total, c);
        }
        assert!(single_total.transition_ns > batched.transition_ns);
    }

    #[test]
    fn parallel_activation_bit_identical_across_pool_sizes() {
        let model = small_model();
        let values: Vec<Vec<i64>> = vec![(0..16).map(|v| v * 9 - 70).collect()];
        let mut reference: Option<Vec<CrtCiphertext>> = None;
        for threads in [1usize, 2, 3, 8] {
            // Fresh (deterministic) enclave per pool size so each run starts
            // from the same RNG state and call counter.
            let (ie, sys, mut rng) = setup();
            let enc = EncryptedMap::encrypt_images(&sys, &values, 4, &ie.public, &mut rng).unwrap();
            let pool = ParExec::new(threads);
            let (out, _, cost) = ie
                .activation_map_par(&sys, &enc, &model, ActivationKind::Sigmoid, &pool)
                .unwrap();
            assert!(cost.total_ns() > 0);
            // Decrypted values always match the serial operator.
            let dec = out.decrypt_all(&sys, &ie.secret, 1).unwrap();
            let expect: Vec<i128> = values[0]
                .iter()
                .map(|&v| model.enclave_sigmoid(v) as i128)
                .collect();
            assert_eq!(dec[0], expect, "{threads} threads");
            match &reference {
                None => reference = Some(out.cells().to_vec()),
                Some(cells) => assert_eq!(out.cells(), &cells[..], "{threads} threads"),
            }
        }
    }

    #[test]
    fn parallel_pool_full_map_matches_serial_values() {
        let (ie, sys, mut rng) = setup();
        let model = small_model();
        let img = vec![(1..=16i64).collect::<Vec<i64>>()];
        let enc = EncryptedMap::encrypt_images(&sys, &img, 4, &ie.public, &mut rng).unwrap();
        let pool = ParExec::new(4);
        let (mean, _, _) = ie
            .pool_full_map_par(&sys, &enc, &model, false, &pool)
            .unwrap();
        assert_eq!(mean.shape(), (1, 2, 2));
        let dec = mean.decrypt_all(&sys, &ie.secret, 1).unwrap();
        assert_eq!(dec[0], vec![4, 6, 12, 14]);
        let (maxp, _, _) = ie
            .pool_full_map_par(&sys, &enc, &model, true, &pool)
            .unwrap();
        let dec = maxp.decrypt_all(&sys, &ie.secret, 1).unwrap();
        assert_eq!(dec[0], vec![6, 8, 14, 16]);
    }

    #[test]
    fn parallel_refresh_preserves_values() {
        let (ie, sys, mut rng) = setup();
        let cts: Vec<_> = (0..6)
            .map(|i| {
                sys.encrypt_slots(&[i * 11 - 20], &ie.public, &mut rng)
                    .unwrap()
            })
            .collect();
        let pool = ParExec::new(3);
        let (fresh, _, _) = ie.refresh_batch_par(&sys, &cts, &pool).unwrap();
        for (i, ct) in fresh.iter().enumerate() {
            let dec = sys.decrypt_slots(ct, &ie.secret).unwrap();
            assert_eq!(dec[0], (i as i128) * 11 - 20);
        }
    }

    #[test]
    fn divide_map_computes_means() {
        let (ie, sys, mut rng) = setup();
        let model = small_model();
        // Window sums (window=2 → divide by 4 with rounding).
        let sums = vec![vec![4i64, 6, 7, 0]];
        let enc = EncryptedMap::encrypt_images(&sys, &sums, 2, &ie.public, &mut rng).unwrap();
        let (out, _, _) = ie.divide_map(&sys, &enc, &model).unwrap();
        let dec = out.decrypt_all(&sys, &ie.secret, 1).unwrap();
        assert_eq!(dec[0], vec![1, 2, 2, 0]);
    }

    #[test]
    fn pool_full_map_mean_and_max() {
        let (ie, sys, mut rng) = setup();
        let model = small_model();
        let img = vec![(1..=16i64).collect::<Vec<i64>>()];
        let enc = EncryptedMap::encrypt_images(&sys, &img, 4, &ie.public, &mut rng).unwrap();
        let (mean, _, _) = ie.pool_full_map(&sys, &enc, &model, false).unwrap();
        assert_eq!(mean.shape(), (1, 2, 2));
        let dec = mean.decrypt_all(&sys, &ie.secret, 1).unwrap();
        // windows sums 14,22,46,54 → means 4,6,12,14 (round half up).
        assert_eq!(dec[0], vec![4, 6, 12, 14]);
        let (maxp, _, _) = ie.pool_full_map(&sys, &enc, &model, true).unwrap();
        let dec = maxp.decrypt_all(&sys, &ie.secret, 1).unwrap();
        assert_eq!(dec[0], vec![6, 8, 14, 16]);
    }

    #[test]
    fn transform_ecalls_report_the_probed_input_budget() {
        let model = small_model();
        let kind = ActivationKind::Sigmoid;
        for threads in [1usize, 2, 4] {
            let (ie, sys, mut rng) = setup();
            let pool = ParExec::new(threads);
            // Cells with spread-out budgets (fresh, scalar-scaled, squared to
            // size 3), so each operator's min-reduction is actually tested.
            let cells: Vec<CrtCiphertext> = (0..16i64)
                .map(|i| {
                    let ct = sys
                        .encrypt_slots(&[i - 8, 3 * i], &ie.public, &mut rng)
                        .unwrap();
                    match i % 3 {
                        0 => ct,
                        1 => sys.mul_scalar(&ct, 97 * i).unwrap(),
                        _ => sys.square(&ct).unwrap(),
                    }
                })
                .collect();
            let map = EncryptedMap::new(1, 4, 4, cells);
            let refs: Vec<&CrtCiphertext> = map.cells().iter().collect();
            let (probed, _) = ie.noise_probe(&sys, &refs).unwrap();
            let fresh = sys.noise_budget(&map.cells()[0], &ie.secret).unwrap();
            assert!(probed < fresh, "the map's minimum sits below a fresh cell");
            let reported = [
                (
                    "activation_map",
                    ie.activation_map(&sys, &map, &model, kind).unwrap().1,
                ),
                (
                    "activation_map_par",
                    ie.activation_map_par(&sys, &map, &model, kind, &pool)
                        .unwrap()
                        .1,
                ),
                (
                    "activation_map_single_ecalls",
                    ie.activation_map_single_ecalls(&sys, &map, &model, kind)
                        .unwrap()
                        .1,
                ),
                ("divide_map", ie.divide_map(&sys, &map, &model).unwrap().1),
                (
                    "divide_map_par",
                    ie.divide_map_par(&sys, &map, &model, &pool).unwrap().1,
                ),
                (
                    "pool_full_map",
                    ie.pool_full_map(&sys, &map, &model, false).unwrap().1,
                ),
                (
                    "pool_full_map_par",
                    ie.pool_full_map_par(&sys, &map, &model, true, &pool)
                        .unwrap()
                        .1,
                ),
                (
                    "refresh_batch",
                    ie.refresh_batch(&sys, map.cells()).unwrap().1,
                ),
                (
                    "refresh_batch_par",
                    ie.refresh_batch_par(&sys, map.cells(), &pool).unwrap().1,
                ),
            ];
            for (name, bits) in reported {
                assert_eq!(bits, probed, "{name} at {threads} threads");
            }
            let squared = &map.cells()[2];
            let (alone, _) = ie.noise_probe(&sys, &[squared]).unwrap();
            assert_eq!(ie.refresh_one(&sys, squared).unwrap().1, alone);
        }
    }

    #[test]
    fn sequential_retry_is_bit_invisible_in_the_ciphertexts() {
        // Regression: the sequential transforms used to lock (and advance)
        // the shared RNG stream *inside* the retry closure, so a retried
        // attempt re-encrypted with different randomness than a fault-free
        // run. The stream is now forked once per logical call, outside the
        // retry loop, exactly like the parallel variants.
        use hesgx_chaos::{FaultInjector, FaultKind, FaultPlan};
        use std::sync::Arc;
        let model = small_model();
        let values: Vec<Vec<i64>> = vec![(0..16).map(|v| v * 9 - 70).collect()];
        let run = |hook: Option<Arc<FaultInjector>>| {
            let platform = Platform::new(21);
            let mut builder = EnclaveBuilder::new("test-enclave").add_code(b"v1");
            if let Some(h) = hook {
                builder = builder.fault_hook(h);
            }
            let enclave = builder.build(platform);
            let sys = CrtPlainSystem::new(256, &[12289, 13313]).unwrap();
            let mut rng = ChaChaRng::from_seed(91);
            let (keys, _) = enclave_generate_keys(&enclave, &sys, &mut rng).expect("key ceremony");
            let ie = InferenceEnclave::new(enclave, keys.secret, keys.public, 92);
            let enc = EncryptedMap::encrypt_images(&sys, &values, 4, &ie.public, &mut rng).unwrap();
            let (act, _, _) = ie
                .activation_map(&sys, &enc, &model, ActivationKind::Sigmoid)
                .unwrap();
            let (pooled, _, _) = ie.pool_full_map(&sys, &enc, &model, false).unwrap();
            (act.cells().to_vec(), pooled.cells().to_vec())
        };
        let clean = run(None);
        // EcallExit consultation order in `run`: occurrence 0 is the
        // activation ECALL (faulted, retried as occurrence 1), occurrence 2
        // is the pool ECALL (faulted, retried as occurrence 3).
        let injector = Arc::new(
            FaultPlan::new(5)
                .script(FaultSite::EcallExit, 0, FaultKind::Transient)
                .script(FaultSite::EcallExit, 2, FaultKind::Transient)
                .build(),
        );
        let faulted = run(Some(injector.clone()));
        assert_eq!(injector.report().retries(), 2, "both faults delivered");
        assert_eq!(
            clean.0, faulted.0,
            "activation ciphertexts changed by retry"
        );
        assert_eq!(clean.1, faulted.1, "pool ciphertexts changed by retry");
    }

    #[test]
    fn transcipher_ingress_recovers_pixels_and_retries_are_bit_invisible() {
        use hesgx_chaos::{FaultInjector, FaultKind, FaultPlan};
        use std::sync::Arc;
        let images: Vec<Vec<i64>> = (0..2)
            .map(|b| (0..16).map(|p| (p * 3 + b) as i64 - 7).collect())
            .collect();
        let key = IngressKey::derive(b"salt", b"ikm", b"test-ingress");
        let payload = transcipher::seal_images(&key, &[9u8; 12], &images).unwrap();
        let run = |hook: Option<Arc<FaultInjector>>, threads: usize| {
            let platform = Platform::new(21);
            let mut builder = EnclaveBuilder::new("test-enclave").add_code(b"v1");
            if let Some(h) = hook {
                builder = builder.fault_hook(h);
            }
            let enclave = builder.build(platform);
            let sys = CrtPlainSystem::new(256, &[12289, 13313]).unwrap();
            let mut rng = ChaChaRng::from_seed(91);
            let (keys, _) = enclave_generate_keys(&enclave, &sys, &mut rng).expect("key ceremony");
            let ie = InferenceEnclave::new(enclave, keys.secret, keys.public, 92);
            let pool = ParExec::new(threads);
            let (cells, batch, cost) = ie.transcipher_ingress(&sys, &key, &payload, &pool).unwrap();
            assert_eq!(batch, 2);
            assert_eq!(cells.len(), 16);
            assert!(cost.total_ns() > 0);
            // The re-encrypted cells decrypt to exactly the sealed pixels,
            // slot b = image b — the layout the conv layer expects.
            for (pixel, ct) in cells.iter().enumerate() {
                let slots = sys.decrypt_slots(ct, &ie.secret).unwrap();
                for (b, img) in images.iter().enumerate() {
                    assert_eq!(slots[b], img[pixel] as i128, "pixel {pixel} batch {b}");
                }
            }
            cells
        };
        let clean = run(None, 1);
        let par = run(None, 4);
        assert_eq!(clean, par, "pool size must not change ciphertext bits");
        let injector = Arc::new(
            FaultPlan::new(6)
                .script(FaultSite::Transcipher, 0, FaultKind::Transient)
                .build(),
        );
        let faulted = run(Some(injector.clone()), 2);
        assert_eq!(
            injector.report().retries(),
            1,
            "fault delivered and retried"
        );
        assert_eq!(clean, faulted, "retry must be bit-invisible");
    }

    #[test]
    fn transcipher_ingress_rejects_forged_payloads_without_retrying() {
        let (ie, sys, _) = setup();
        let images = vec![vec![1i64, 2, 3, 4]];
        let key = IngressKey::derive(b"salt", b"ikm", b"test-ingress");
        let mut payload = transcipher::seal_images(&key, &[1u8; 12], &images).unwrap();
        let mid = payload.len() / 2;
        payload[mid] ^= 0x40;
        let pool = ParExec::new(1);
        let err = ie
            .transcipher_ingress(&sys, &key, &payload, &pool)
            .unwrap_err();
        assert!(
            matches!(err, Error::Config(_)),
            "auth failure must be fatal, not transient: {err}"
        );
    }

    #[test]
    fn dropped_refresh_attempts_still_land_in_the_cost_books() {
        // A NoiseRefresh fault drops the request before the boundary, so the
        // attempt is (correctly) charged CostBreakdown::default() — but it
        // must still appear as a recorded entry, or FaultReport attempt
        // counts and recorded cost entries stop reconciling.
        use hesgx_chaos::{FaultKind, FaultPlan};
        use hesgx_obs::{counters, Recorder};
        use std::sync::Arc;
        let rec = Recorder::enabled();
        let injector = Arc::new(
            FaultPlan::new(9)
                .script(FaultSite::NoiseRefresh, 0, FaultKind::Transient)
                .build(),
        );
        let platform = Platform::new(21);
        let enclave = EnclaveBuilder::new("test-enclave")
            .add_code(b"v1")
            .fault_hook(injector.clone())
            .recorder(rec.clone())
            .build(platform);
        let sys = CrtPlainSystem::new(256, &[12289, 13313]).unwrap();
        let mut rng = ChaChaRng::from_seed(91);
        let (keys, _) = enclave_generate_keys(&enclave, &sys, &mut rng).expect("key ceremony");
        let ie = InferenceEnclave::new(enclave, keys.secret, keys.public, 92);
        let cts: Vec<_> = (0..4)
            .map(|i| sys.encrypt_slots(&[i * 3], &ie.public, &mut rng).unwrap())
            .collect();
        let (fresh, _, cost) = ie.refresh_batch(&sys, &cts).unwrap();
        assert_eq!(fresh.len(), 4);
        let span = rec.span("recovery.retry").expect("attempts recorded");
        // One dropped attempt + one real crossing.
        assert_eq!(span.entries, 2, "zero-cost attempt must be recorded");
        assert_eq!(span.cost.transition_ns, cost.transition_ns);
        assert_eq!(rec.counter(counters::RECOVERY_ATTEMPTS), 2);
        assert_eq!(rec.counter(counters::RECOVERY_RETRIES), 1);
        // Attempt count reconciles with the fault report: retries + 1.
        assert_eq!(span.entries, injector.report().retries() + 1);
        // Only one ECALL actually crossed the boundary.
        let ecall = rec
            .span("ecall.ecall_DecreaseNoise")
            .expect("refresh crossing recorded");
        assert_eq!(ecall.entries, 1);
    }

    #[test]
    fn sum_costs_saturates_near_u64_max() {
        let big = CostBreakdown {
            real_ns: u64::MAX - 5,
            slowdown_ns: u64::MAX,
            transition_ns: u64::MAX - 1,
            copy_ns: 10,
            paging_ns: u64::MAX / 2,
            jitter_ns: i64::MAX - 1,
        };
        let other = CostBreakdown {
            real_ns: 100,
            slowdown_ns: 1,
            transition_ns: 1,
            copy_ns: 20,
            paging_ns: u64::MAX / 2 + 10,
            jitter_ns: 100,
        };
        let sum = sum_costs(big, other);
        assert_eq!(sum.real_ns, u64::MAX);
        assert_eq!(sum.slowdown_ns, u64::MAX);
        assert_eq!(sum.transition_ns, u64::MAX);
        assert_eq!(sum.copy_ns, 30);
        assert_eq!(sum.paging_ns, u64::MAX);
        assert_eq!(sum.jitter_ns, i64::MAX);
        // A saturated breakdown's total pins at the ceiling instead of
        // wrapping back toward zero.
        assert_eq!(sum.total_ns(), u64::MAX);
    }
}
