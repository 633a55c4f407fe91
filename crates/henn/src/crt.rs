//! Plaintext-CRT arithmetic over FV — the CryptoNets technique (paper [16])
//! for dynamic ranges larger than one plaintext modulus.
//!
//! A logical value is encrypted once per plaintext modulus `t_i` (all moduli
//! prime and `≡ 1 mod 2n`, so every part supports SIMD batching). Homomorphic
//! operations run component-wise; decryption CRT-combines the per-modulus
//! residues back into a signed integer in `(-T/2, T/2)` with `T = Π t_i`.
//!
//! The batch (SIMD) dimension carries the image batch, exactly as the paper's
//! experiments run `batchSize = 10` images at once (§V-B, §VIII).

use hesgx_bfv::decryptor::decrypt_with_budget;
use hesgx_bfv::prelude::*;
use hesgx_bfv::{arith, context::BfvContext};
use hesgx_crypto::rng::ChaChaRng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A logical ciphertext: one FV ciphertext per plaintext modulus.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrtCiphertext {
    pub(crate) parts: Vec<Ciphertext>,
}

impl CrtCiphertext {
    /// Number of CRT parts.
    pub fn part_count(&self) -> usize {
        self.parts.len()
    }

    /// Borrows one component ciphertext (for serialization / auditing).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.part_count()`.
    pub fn part(&self, i: usize) -> &Ciphertext {
        &self.parts[i]
    }

    /// Approximate serialized size in bytes (for transfer/EPC modeling).
    pub fn byte_len(&self) -> usize {
        self.parts.iter().map(|c| c.byte_len()).sum()
    }

    /// Largest component ciphertext size (2 fresh, 3 after a multiply).
    pub fn size(&self) -> usize {
        self.parts.iter().map(|c| c.size()).max().unwrap_or(0)
    }

    /// A copy whose limb buffers are drawn from `arena` instead of the
    /// global allocator. Bit-identical to [`Clone::clone`].
    pub fn arena_copy(&self, arena: &PolyArena) -> CrtCiphertext {
        CrtCiphertext {
            parts: self
                .parts
                .iter()
                .map(|p| arena.copy_ciphertext(p))
                .collect(),
        }
    }

    /// Returns every limb buffer of a consumed ciphertext to `arena`.
    pub fn recycle(self, arena: &PolyArena) {
        for part in self.parts {
            arena.recycle_ciphertext(part);
        }
    }
}

/// A scalar weight prepared for every CRT part: the per-part `rem_euclid`
/// centering plus the per-limb Shoup precomputation that
/// [`CrtPlainSystem::mul_scalar`] redoes on every call, hoisted to
/// provisioning time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrtPreparedScalar {
    pub(crate) parts: Vec<PlainScalar>,
}

impl CrtPreparedScalar {
    /// Borrows the prepared form for CRT part `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn part(&self, i: usize) -> &PlainScalar {
        &self.parts[i]
    }
}

/// A bias constant prepared for every CRT part: the per-limb `Δ·c mod qi`
/// values that [`CrtPlainSystem::add_scalar`] recomputes (plus a full
/// polynomial allocation) on every call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrtPreparedBias {
    pub(crate) parts: Vec<PreparedBias>,
}

impl CrtPreparedBias {
    /// Borrows the prepared form for CRT part `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn part(&self, i: usize) -> &PreparedBias {
        &self.parts[i]
    }
}

/// Key material for every CRT part.
#[derive(Debug, Clone)]
pub struct CrtKeys {
    /// Public keys, one per modulus.
    pub public: Vec<PublicKey>,
    /// Secret keys, one per modulus.
    pub secret: Vec<SecretKey>,
    /// Relinearization keys, one per modulus.
    pub evaluation: Vec<EvaluationKeys>,
}

/// The multi-modulus FV system: contexts, encoders, and evaluators for each
/// plaintext modulus.
#[derive(Debug)]
pub struct CrtPlainSystem {
    moduli: Vec<u64>,
    contexts: Vec<Arc<BfvContext>>,
    encoders: Vec<BatchEncoder>,
    evaluators: Vec<Evaluator>,
    product: u128,
}

impl CrtPlainSystem {
    /// Builds a system over explicit plaintext moduli (each prime,
    /// `≡ 1 mod 2n`).
    ///
    /// # Errors
    ///
    /// Propagates parameter/batching validation failures.
    pub fn new(poly_degree: usize, moduli: &[u64]) -> hesgx_bfv::error::Result<Self> {
        let mut contexts = Vec::new();
        let mut encoders = Vec::new();
        let mut evaluators = Vec::new();
        for &t in moduli {
            let params = EncryptionParameters::builder()
                .poly_degree(poly_degree)
                .plain_modulus(t)
                .build()?;
            let ctx = BfvContext::new(params.clone())?;
            encoders.push(BatchEncoder::new(&params)?);
            evaluators.push(Evaluator::new(ctx.clone()));
            contexts.push(ctx);
        }
        let product = moduli.iter().map(|&t| t as u128).product();
        Ok(CrtPlainSystem {
            moduli: moduli.to_vec(),
            contexts,
            encoders,
            evaluators,
            product,
        })
    }

    /// Builds a system whose modulus product covers `required_bits` of signed
    /// dynamic range (from [`hesgx_nn::quantize::RangeReport`]).
    ///
    /// # Errors
    ///
    /// Propagates parameter validation failures.
    pub fn for_range(poly_degree: usize, required_bits: u32) -> hesgx_bfv::error::Result<Self> {
        let step = 2 * poly_degree as u64;
        // One modulus when the range fits a single prime below the 2^30
        // validation cap — every homomorphic operation then runs once instead
        // of once per CRT part. Only sound for linear (ct × plaintext)
        // pipelines: ciphertext–ciphertext multiplication carries an
        // `r_t·‖m‖ ≈ t²` noise floor that a large t would blow through; deep
        // pipelines must use [`CrtPlainSystem::for_range_deep`].
        if required_bits <= 28 {
            let lower = (1u64 << (required_bits + 1)).max(40_000);
            let t = arith::smallest_prime_congruent_one_above(lower, step);
            return Self::new(poly_degree, &[t]);
        }
        Self::for_range_deep(poly_degree, required_bits)
    }

    /// Like [`CrtPlainSystem::for_range`] but always composes the range from
    /// ~16-bit moduli, keeping the per-part noise growth of
    /// ciphertext–ciphertext multiplication small. Use this for pipelines
    /// with multiplicative depth (the CryptoNets baseline).
    ///
    /// # Errors
    ///
    /// Propagates parameter validation failures.
    pub fn for_range_deep(
        poly_degree: usize,
        required_bits: u32,
    ) -> hesgx_bfv::error::Result<Self> {
        let step = 2 * poly_degree as u64;
        let mut moduli = Vec::new();
        let mut bits = 0f64;
        let mut lower = 40_000u64;
        while bits < required_bits as f64 + 1.0 {
            let t = arith::smallest_prime_congruent_one_above(lower, step);
            moduli.push(t);
            bits += (t as f64).log2();
            lower = t;
        }
        Self::new(poly_degree, &moduli)
    }

    /// The plaintext moduli.
    pub fn moduli(&self) -> &[u64] {
        &self.moduli
    }

    /// Number of CRT parts (limbs) per logical ciphertext.
    pub fn part_count(&self) -> usize {
        self.moduli.len()
    }

    /// The per-part contexts.
    pub fn contexts(&self) -> &[Arc<BfvContext>] {
        &self.contexts
    }

    /// The modulus product `T` (signed range is `±T/2`).
    pub fn modulus_product(&self) -> u128 {
        self.product
    }

    /// SIMD slots per ciphertext (= ring degree).
    pub fn slot_count(&self) -> usize {
        self.contexts[0].poly_degree()
    }

    /// Generates key material for all parts.
    pub fn generate_keys(&self, rng: &mut ChaChaRng) -> CrtKeys {
        let mut public = Vec::new();
        let mut secret = Vec::new();
        let mut evaluation = Vec::new();
        for ctx in &self.contexts {
            let keygen = KeyGenerator::new(ctx.clone(), rng);
            public.push(keygen.public_key());
            secret.push(keygen.secret_key());
            evaluation.push(keygen.evaluation_keys(rng));
        }
        CrtKeys {
            public,
            secret,
            evaluation,
        }
    }

    /// Encrypts one signed value per SIMD slot.
    ///
    /// # Errors
    ///
    /// Fails when more values than slots are supplied.
    pub fn encrypt_slots(
        &self,
        values: &[i64],
        public: &[PublicKey],
        rng: &mut ChaChaRng,
    ) -> hesgx_bfv::error::Result<CrtCiphertext> {
        let mut parts = Vec::with_capacity(self.moduli.len());
        for (i, ctx) in self.contexts.iter().enumerate() {
            let t = self.moduli[i];
            // Residues mod t_i (signed lift handled per modulus).
            let residues: Vec<u64> = values
                .iter()
                .map(|&v| {
                    let r = v.rem_euclid(t as i64) as u64;
                    r % t
                })
                .collect();
            let pt = self.encoders[i].encode(&residues)?;
            let enc = Encryptor::new(ctx.clone(), public[i].clone());
            parts.push(enc.encrypt(&pt, rng)?);
        }
        Ok(CrtCiphertext { parts })
    }

    /// Decrypts to one signed value per slot (CRT combination, centered lift).
    ///
    /// # Errors
    ///
    /// Propagates decryption failures (context mismatch etc.).
    pub fn decrypt_slots(
        &self,
        ct: &CrtCiphertext,
        secret: &[SecretKey],
    ) -> hesgx_bfv::error::Result<Vec<i128>> {
        Ok(self.decrypt_slots_with_budget(ct, secret)?.0)
    }

    /// [`CrtPlainSystem::decrypt_slots`] plus the minimum invariant-noise
    /// budget over the parts, measured in the same pass (see
    /// [`hesgx_bfv::decryptor::decrypt_with_budget`]) — the budget costs no
    /// second decryption. The keys are borrowed, never copied.
    ///
    /// # Errors
    ///
    /// Propagates decryption failures (context mismatch etc.).
    pub fn decrypt_slots_with_budget(
        &self,
        ct: &CrtCiphertext,
        secret: &[SecretKey],
    ) -> hesgx_bfv::error::Result<(Vec<i128>, u32)> {
        let slots = self.slot_count();
        let mut min_bits = u32::MAX;
        let mut residues_per_part = Vec::with_capacity(self.moduli.len());
        for (i, ctx) in self.contexts.iter().enumerate() {
            let (pt, bits) = decrypt_with_budget(ctx, &secret[i], &ct.parts[i])?;
            min_bits = min_bits.min(bits);
            residues_per_part.push(self.encoders[i].decode(&pt));
        }
        let mut out = Vec::with_capacity(slots);
        for s in 0..slots {
            let residues: Vec<u64> = residues_per_part.iter().map(|r| r[s]).collect();
            out.push(self.crt_combine_signed(&residues));
        }
        Ok((out, min_bits))
    }

    /// Combines per-modulus residues into a signed value in `(-T/2, T/2]`.
    fn crt_combine_signed(&self, residues: &[u64]) -> i128 {
        let t_big = self.product;
        let mut acc: u128 = 0;
        for (i, &t) in self.moduli.iter().enumerate() {
            let hat = t_big / t as u128;
            let hat_mod = (hat % t as u128) as u64;
            let inv = arith::inv_mod(hat_mod, t).expect("moduli coprime");
            let c = arith::mul_mod(residues[i] % t, inv, t);
            // acc += c * hat (mod T). hat < 2^~35, c < 2^17 -> fits u128.
            acc = (acc + (c as u128 * hat) % t_big) % t_big;
        }
        if acc > t_big / 2 {
            acc as i128 - t_big as i128
        } else {
            acc as i128
        }
    }

    /// `a += b`, component-wise.
    ///
    /// # Errors
    ///
    /// Propagates component failures.
    pub fn add_inplace(
        &self,
        a: &mut CrtCiphertext,
        b: &CrtCiphertext,
    ) -> hesgx_bfv::error::Result<()> {
        for i in 0..self.evaluators.len() {
            self.add_inplace_part(&mut a.parts[i], &b.parts[i], i)?;
        }
        Ok(())
    }

    /// `a += b` on CRT part `part` only — the limb-level entry point used by
    /// the parallel engine ([`crate::par`]), which schedules limbs as
    /// independent tasks. Applying the part-level ops in the same per-limb
    /// order as the whole-ciphertext op yields bit-identical parts.
    ///
    /// # Errors
    ///
    /// Propagates component failures.
    pub fn add_inplace_part(
        &self,
        a: &mut Ciphertext,
        b: &Ciphertext,
        part: usize,
    ) -> hesgx_bfv::error::Result<()> {
        self.evaluators[part].add_inplace(a, b)
    }

    /// Multiplies by a signed integer constant (applied to all slots).
    ///
    /// # Errors
    ///
    /// Propagates component failures.
    pub fn mul_scalar(
        &self,
        a: &CrtCiphertext,
        value: i64,
    ) -> hesgx_bfv::error::Result<CrtCiphertext> {
        let mut parts = Vec::with_capacity(a.parts.len());
        for i in 0..self.evaluators.len() {
            parts.push(self.mul_scalar_part(&a.parts[i], value, i)?);
        }
        Ok(CrtCiphertext { parts })
    }

    /// Scalar multiply of CRT part `part` only (limb-level entry point).
    ///
    /// # Errors
    ///
    /// Propagates component failures.
    pub fn mul_scalar_part(
        &self,
        a: &Ciphertext,
        value: i64,
        part: usize,
    ) -> hesgx_bfv::error::Result<Ciphertext> {
        let t = self.moduli[part] as i64;
        let reduced = value.rem_euclid(t);
        // Use the centered representative for minimal noise growth.
        let centered = if reduced > t / 2 {
            reduced - t
        } else {
            reduced
        };
        self.evaluators[part].mul_plain_signed_scalar(a, centered)
    }

    /// Prepares a signed scalar weight once for repeated multiplication —
    /// [`CrtPlainSystem::mul_scalar`] with the centering and Shoup
    /// precomputation hoisted out of the per-request path.
    ///
    /// # Errors
    ///
    /// Propagates component failures.
    pub fn prepare_scalar(&self, value: i64) -> hesgx_bfv::error::Result<CrtPreparedScalar> {
        let mut parts = Vec::with_capacity(self.moduli.len());
        for part in 0..self.moduli.len() {
            let t = self.moduli[part] as i64;
            let reduced = value.rem_euclid(t);
            let centered = if reduced > t / 2 {
                reduced - t
            } else {
                reduced
            };
            parts.push(self.evaluators[part].prepare_plain_scalar(centered)?);
        }
        Ok(CrtPreparedScalar { parts })
    }

    /// Multiplies by a prepared scalar. Bit-identical to
    /// [`CrtPlainSystem::mul_scalar`] with the original value.
    ///
    /// # Errors
    ///
    /// Propagates component failures.
    pub fn mul_scalar_prepared(
        &self,
        a: &CrtCiphertext,
        scalar: &CrtPreparedScalar,
    ) -> hesgx_bfv::error::Result<CrtCiphertext> {
        let mut parts = Vec::with_capacity(a.parts.len());
        for i in 0..self.evaluators.len() {
            parts.push(self.mul_scalar_prepared_part(&a.parts[i], scalar.part(i), i)?);
        }
        Ok(CrtCiphertext { parts })
    }

    /// Prepared scalar multiply of CRT part `part` only (limb-level entry
    /// point).
    ///
    /// # Errors
    ///
    /// Propagates component failures.
    pub fn mul_scalar_prepared_part(
        &self,
        a: &Ciphertext,
        scalar: &PlainScalar,
        part: usize,
    ) -> hesgx_bfv::error::Result<Ciphertext> {
        self.evaluators[part].mul_plain_scalar(a, scalar)
    }

    /// Prepared scalar multiply of part `part`, drawing the output's limb
    /// buffers from `arena` (bit-identical to
    /// [`CrtPlainSystem::mul_scalar_prepared_part`]).
    ///
    /// # Errors
    ///
    /// Propagates component failures.
    pub fn mul_scalar_prepared_arena_part(
        &self,
        a: &Ciphertext,
        scalar: &PlainScalar,
        arena: &PolyArena,
        part: usize,
    ) -> hesgx_bfv::error::Result<Ciphertext> {
        self.evaluators[part].mul_plain_scalar_arena(a, scalar, arena)
    }

    /// Fused multiply-accumulate `acc += a · w` on every CRT part — the
    /// conv/FC inner loop without the temporary ciphertext. Accumulated
    /// values are bit-identical to [`CrtPlainSystem::mul_scalar`] followed
    /// by [`CrtPlainSystem::add_inplace`].
    ///
    /// # Errors
    ///
    /// Propagates component failures.
    pub fn mul_scalar_acc(
        &self,
        acc: &mut CrtCiphertext,
        a: &CrtCiphertext,
        scalar: &CrtPreparedScalar,
    ) -> hesgx_bfv::error::Result<()> {
        for i in 0..self.evaluators.len() {
            self.mul_scalar_acc_part(&mut acc.parts[i], &a.parts[i], scalar.part(i), i)?;
        }
        Ok(())
    }

    /// Fused multiply-accumulate on CRT part `part` only (limb-level entry
    /// point).
    ///
    /// # Errors
    ///
    /// Propagates component failures.
    pub fn mul_scalar_acc_part(
        &self,
        acc: &mut Ciphertext,
        a: &Ciphertext,
        scalar: &PlainScalar,
        part: usize,
    ) -> hesgx_bfv::error::Result<()> {
        self.evaluators[part].mul_plain_scalar_acc(acc, a, scalar)
    }

    /// Caches the evaluation (NTT) form of an encoded-weight plaintext for
    /// CRT part `part` — the per-call centering + forward transform that
    /// [`CrtPlainSystem::mul_plain_part`] redoes per request, done once at
    /// weight provisioning.
    ///
    /// # Errors
    ///
    /// Propagates component failures.
    pub fn transform_plain_part(
        &self,
        plain: &Plaintext,
        part: usize,
    ) -> hesgx_bfv::error::Result<NttPlaintext> {
        self.evaluators[part].transform_plain_to_ntt(plain)
    }

    /// Multiplies part `part` by a plaintext polynomial, re-transforming the
    /// plaintext on every call (the uncached baseline for
    /// [`CrtPlainSystem::mul_plain_ntt_part`]).
    ///
    /// # Errors
    ///
    /// Propagates component failures.
    pub fn mul_plain_part(
        &self,
        a: &Ciphertext,
        plain: &Plaintext,
        part: usize,
    ) -> hesgx_bfv::error::Result<Ciphertext> {
        self.evaluators[part].mul_plain(a, plain)
    }

    /// Multiplies part `part` by a cached evaluation-form plaintext —
    /// bit-identical to [`CrtPlainSystem::mul_plain_part`] without the
    /// per-call transform.
    ///
    /// # Errors
    ///
    /// Propagates component failures.
    pub fn mul_plain_ntt_part(
        &self,
        a: &Ciphertext,
        plain: &NttPlaintext,
        part: usize,
    ) -> hesgx_bfv::error::Result<Ciphertext> {
        self.evaluators[part].mul_plain_ntt(a, plain)
    }

    /// Adds a signed integer constant (to all slots).
    ///
    /// # Errors
    ///
    /// Propagates component failures.
    pub fn add_scalar(
        &self,
        a: &CrtCiphertext,
        value: i64,
    ) -> hesgx_bfv::error::Result<CrtCiphertext> {
        let mut parts = Vec::with_capacity(a.parts.len());
        for i in 0..self.evaluators.len() {
            parts.push(self.add_scalar_part(&a.parts[i], value, i)?);
        }
        Ok(CrtCiphertext { parts })
    }

    /// Scalar add on CRT part `part` only (limb-level entry point).
    ///
    /// # Errors
    ///
    /// Propagates component failures.
    pub fn add_scalar_part(
        &self,
        a: &Ciphertext,
        value: i64,
        part: usize,
    ) -> hesgx_bfv::error::Result<Ciphertext> {
        let t = self.moduli[part];
        let residue = value.rem_euclid(t as i64) as u64;
        self.evaluators[part].add_plain(a, &Plaintext::constant(residue))
    }

    /// Prepares a bias constant once for repeated in-place addition —
    /// [`CrtPlainSystem::add_scalar`] without the per-call polynomial
    /// allocation.
    ///
    /// # Errors
    ///
    /// Propagates component failures.
    pub fn prepare_bias(&self, value: i64) -> hesgx_bfv::error::Result<CrtPreparedBias> {
        let mut parts = Vec::with_capacity(self.moduli.len());
        for part in 0..self.moduli.len() {
            let t = self.moduli[part];
            let residue = value.rem_euclid(t as i64) as u64;
            parts.push(self.evaluators[part].prepare_plain_bias(residue)?);
        }
        Ok(CrtPreparedBias { parts })
    }

    /// Adds a prepared bias in place on every CRT part. Values are
    /// bit-identical to [`CrtPlainSystem::add_scalar`] with the original
    /// constant (pinned by the bfv evaluator tests), with no allocation.
    ///
    /// # Errors
    ///
    /// Propagates component failures.
    pub fn add_bias_inplace(
        &self,
        a: &mut CrtCiphertext,
        bias: &CrtPreparedBias,
    ) -> hesgx_bfv::error::Result<()> {
        for i in 0..self.evaluators.len() {
            self.add_bias_inplace_part(&mut a.parts[i], bias.part(i), i)?;
        }
        Ok(())
    }

    /// Prepared bias add on CRT part `part` only (limb-level entry point).
    ///
    /// # Errors
    ///
    /// Propagates component failures.
    pub fn add_bias_inplace_part(
        &self,
        a: &mut Ciphertext,
        bias: &PreparedBias,
        part: usize,
    ) -> hesgx_bfv::error::Result<()> {
        self.evaluators[part].add_plain_bias_inplace(a, bias)
    }

    /// Slot-wise square (`C × C` multiply). Output parts have size 3 until
    /// relinearized or refreshed.
    ///
    /// # Errors
    ///
    /// Propagates component failures.
    pub fn square(&self, a: &CrtCiphertext) -> hesgx_bfv::error::Result<CrtCiphertext> {
        let mut parts = Vec::with_capacity(a.parts.len());
        for i in 0..self.evaluators.len() {
            parts.push(self.square_part(&a.parts[i], i)?);
        }
        Ok(CrtCiphertext { parts })
    }

    /// Square of CRT part `part` only (limb-level entry point).
    ///
    /// # Errors
    ///
    /// Propagates component failures.
    pub fn square_part(&self, a: &Ciphertext, part: usize) -> hesgx_bfv::error::Result<Ciphertext> {
        self.evaluators[part].square(a)
    }

    /// Relinearizes all parts back to size 2.
    ///
    /// # Errors
    ///
    /// Propagates component failures.
    pub fn relinearize(
        &self,
        a: &CrtCiphertext,
        keys: &[EvaluationKeys],
    ) -> hesgx_bfv::error::Result<CrtCiphertext> {
        let mut parts = Vec::with_capacity(a.parts.len());
        for i in 0..self.evaluators.len() {
            parts.push(self.relinearize_part(&a.parts[i], keys, i)?);
        }
        Ok(CrtCiphertext { parts })
    }

    /// Relinearization of CRT part `part` only (limb-level entry point).
    ///
    /// # Errors
    ///
    /// Propagates component failures.
    pub fn relinearize_part(
        &self,
        a: &Ciphertext,
        keys: &[EvaluationKeys],
        part: usize,
    ) -> hesgx_bfv::error::Result<Ciphertext> {
        self.evaluators[part].relinearize(a, &keys[part])
    }

    /// Minimum invariant-noise budget over the parts (each part measured by
    /// [`hesgx_bfv::decryptor::decrypt_with_budget`], the key borrowed).
    ///
    /// # Errors
    ///
    /// Propagates component failures.
    pub fn noise_budget(
        &self,
        ct: &CrtCiphertext,
        secret: &[SecretKey],
    ) -> hesgx_bfv::error::Result<u32> {
        let mut min = u32::MAX;
        for (i, ctx) in self.contexts.iter().enumerate() {
            min = min.min(decrypt_with_budget(ctx, &secret[i], &ct.parts[i])?.1);
        }
        Ok(min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn system() -> (CrtPlainSystem, CrtKeys, ChaChaRng) {
        let sys = CrtPlainSystem::new(256, &[12289, 13313]).unwrap();
        let mut rng = ChaChaRng::from_seed(41);
        let keys = sys.generate_keys(&mut rng);
        (sys, keys, rng)
    }

    #[test]
    fn for_range_covers_requirement() {
        let sys = CrtPlainSystem::for_range(256, 30).unwrap();
        assert!(sys.modulus_product() > 1u128 << 31);
        // All moduli batching-friendly.
        for &t in sys.moduli() {
            assert_eq!(t % 512, 1);
            assert!(arith::is_prime_u64(t));
        }
    }

    #[test]
    fn encrypt_decrypt_signed_values() {
        let (sys, keys, mut rng) = system();
        let values = vec![-1_000_000i64, -5, 0, 5, 1_000_000, 80_000_000];
        let ct = sys.encrypt_slots(&values, &keys.public, &mut rng).unwrap();
        let back = sys.decrypt_slots(&ct, &keys.secret).unwrap();
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(back[i], v as i128, "slot {i}");
        }
        assert!(back[values.len()..].iter().all(|&v| v == 0));
    }

    #[test]
    fn linear_homomorphism() {
        let (sys, keys, mut rng) = system();
        let a = sys
            .encrypt_slots(&[10, -20], &keys.public, &mut rng)
            .unwrap();
        let b = sys.encrypt_slots(&[3, 7], &keys.public, &mut rng).unwrap();
        let mut acc = sys.mul_scalar(&a, -4).unwrap();
        sys.add_inplace(&mut acc, &b).unwrap();
        let acc = sys.add_scalar(&acc, 100).unwrap();
        let back = sys.decrypt_slots(&acc, &keys.secret).unwrap();
        assert_eq!(back[0], 10 * -4 + 3 + 100);
        assert_eq!(back[1], -20 * -4 + 7 + 100);
    }

    #[test]
    fn square_exceeding_single_modulus() {
        // 9000^2 = 8.1e7 exceeds each modulus (~1.3e4) but fits the signed
        // range of the product (12289 * 13313 / 2 ≈ 8.18e7).
        let (sys, keys, mut rng) = system();
        let a = sys
            .encrypt_slots(&[9_000, -300], &keys.public, &mut rng)
            .unwrap();
        let sq = sys.square(&a).unwrap();
        assert_eq!(sq.size(), 3);
        let back = sys.decrypt_slots(&sq, &keys.secret).unwrap();
        assert_eq!(back[0], 81_000_000);
        assert_eq!(back[1], 90_000);
    }

    #[test]
    fn relinearize_preserves_slots() {
        let (sys, keys, mut rng) = system();
        let a = sys
            .encrypt_slots(&[111, -42], &keys.public, &mut rng)
            .unwrap();
        let sq = sys.square(&a).unwrap();
        let relin = sys.relinearize(&sq, &keys.evaluation).unwrap();
        assert_eq!(relin.size(), 2);
        let back = sys.decrypt_slots(&relin, &keys.secret).unwrap();
        assert_eq!(back[0], 111 * 111);
        assert_eq!(back[1], 42 * 42);
    }

    #[test]
    fn prepared_scalar_and_bias_match_uncached_bitwise() {
        let (sys, keys, mut rng) = system();
        let a = sys
            .encrypt_slots(&[10, -20, 7], &keys.public, &mut rng)
            .unwrap();
        for v in [-9_000i64, -1, 0, 1, 4, 11_000] {
            let prepared = sys.prepare_scalar(v).unwrap();
            assert_eq!(
                sys.mul_scalar_prepared(&a, &prepared).unwrap(),
                sys.mul_scalar(&a, v).unwrap(),
                "prepared multiply diverged for {v}"
            );
            // Fused accumulate vs multiply-then-add.
            let mut fused = a.clone();
            sys.mul_scalar_acc(&mut fused, &a, &prepared).unwrap();
            let term = sys.mul_scalar(&a, v).unwrap();
            let mut want = a.clone();
            sys.add_inplace(&mut want, &term).unwrap();
            assert_eq!(fused, want, "fused accumulate diverged for {v}");

            let bias = sys.prepare_bias(v).unwrap();
            let mut got = a.clone();
            sys.add_bias_inplace(&mut got, &bias).unwrap();
            assert_eq!(
                got,
                sys.add_scalar(&a, v).unwrap(),
                "prepared bias diverged for {v}"
            );
        }
    }

    #[test]
    fn arena_prepared_multiply_is_bit_identical() {
        let (sys, keys, mut rng) = system();
        let arena = PolyArena::new();
        let a = sys
            .encrypt_slots(&[42, -3], &keys.public, &mut rng)
            .unwrap();
        let prepared = sys.prepare_scalar(-6).unwrap();
        for part in 0..sys.part_count() {
            let got = sys
                .mul_scalar_prepared_arena_part(&a.parts[part], prepared.part(part), &arena, part)
                .unwrap();
            assert_eq!(
                got,
                sys.mul_scalar_prepared_part(&a.parts[part], prepared.part(part), part)
                    .unwrap()
            );
            arena.recycle_ciphertext(got);
        }
        assert!(arena.free_buffers() > 0);
    }

    #[test]
    fn cached_ntt_plain_part_matches_per_call_transform() {
        let (sys, keys, mut rng) = system();
        let a = sys.encrypt_slots(&[5, -2], &keys.public, &mut rng).unwrap();
        // A low-norm integer-encoded weight, as produced by the SEAL-style
        // encoder: a few small signed digits.
        let plain = Plaintext::from_coeffs(vec![3, 0, 1, 12288]);
        for part in 0..sys.part_count() {
            let cached = sys.transform_plain_part(&plain, part).unwrap();
            assert_eq!(
                sys.mul_plain_ntt_part(&a.parts[part], &cached, part)
                    .unwrap(),
                sys.mul_plain_part(&a.parts[part], &plain, part).unwrap(),
                "part {part}"
            );
        }
    }

    #[test]
    fn noise_budget_positive_and_decreasing() {
        let (sys, keys, mut rng) = system();
        let a = sys.encrypt_slots(&[1], &keys.public, &mut rng).unwrap();
        let fresh = sys.noise_budget(&a, &keys.secret).unwrap();
        let sq = sys.square(&a).unwrap();
        let after = sys.noise_budget(&sq, &keys.secret).unwrap();
        assert!(fresh > after);
        assert!(after > 0);
    }
}
