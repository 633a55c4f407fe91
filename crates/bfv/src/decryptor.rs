//! Decryption and noise-budget measurement — the paper's `Decrypt(sk, c)`
//! (§II-B).

use crate::ciphertext::Ciphertext;
use crate::context::BfvContext;
use crate::error::{BfvError, Result};
use crate::keys::SecretKey;
use crate::plaintext::Plaintext;
use crate::poly::{PolyForm, RnsPoly};
use hesgx_crypto::uint::U256;
use std::sync::Arc;

/// Decrypts ciphertexts with a secret key; also measures the invariant noise
/// budget, which the hybrid planner uses to decide when an enclave refresh is
/// due.
#[derive(Debug)]
pub struct Decryptor {
    ctx: Arc<BfvContext>,
    sk: SecretKey,
}

impl Decryptor {
    /// Creates a decryptor for `sk` on `ctx`.
    pub fn new(ctx: Arc<BfvContext>, sk: SecretKey) -> Self {
        assert_eq!(sk.context_id(), ctx.id(), "secret key context mismatch");
        Decryptor { ctx, sk }
    }

    /// Decrypts: `m = round(t·[c(s)]_q / q) mod t`.
    ///
    /// # Errors
    ///
    /// Fails when the ciphertext is bound to another context or malformed.
    pub fn decrypt(&self, ct: &Ciphertext) -> Result<Plaintext> {
        Ok(decrypt_with_budget(&self.ctx, &self.sk, ct)?.0)
    }

    /// Measures the invariant-noise budget in bits.
    ///
    /// The invariant noise `v` satisfies `(t/q)·c(s) = m + v + t·k`; decryption
    /// is correct while `‖v‖ < 1/2`. The budget is `−log2(2‖v‖)`, i.e. the
    /// number of noise-doubling operations the ciphertext can still absorb.
    /// Returns 0 when the ciphertext is no longer decryptable.
    ///
    /// # Errors
    ///
    /// Fails when the ciphertext is bound to another context or malformed.
    pub fn invariant_noise_budget(&self, ct: &Ciphertext) -> Result<u32> {
        Ok(decrypt_with_budget(&self.ctx, &self.sk, ct)?.1)
    }

    /// Reconstructs the raw `[c(s)]_q` coefficients (diagnostic API used by
    /// tests and by the noise-analysis example).
    ///
    /// # Errors
    ///
    /// Fails when the ciphertext is bound to another context or malformed.
    pub fn raw_phase(&self, ct: &Ciphertext) -> Result<Vec<U256>> {
        check(&self.ctx, ct)?;
        let ctx = &self.ctx;
        let acc = dot_with_secret(ctx, &self.sk, ct);
        let n = ctx.poly_degree();
        let mut out = Vec::with_capacity(n);
        let mut residues = vec![0u64; ctx.limb_count()];
        for j in 0..n {
            for (r, limb) in residues.iter_mut().zip(&acc.limbs) {
                *r = limb[j];
            }
            out.push(ctx.crt_reconstruct(&residues));
        }
        Ok(out)
    }
}

/// Decrypts `ct` under a borrowed `sk` and measures its invariant-noise
/// budget in the same pass: `(`[`Decryptor::decrypt`]`,`
/// [`Decryptor::invariant_noise_budget`]`)` for the price of the first.
///
/// Both come out of one rounding division per coefficient. With
/// `x = [c(s)]_q`, `h = ⌊q/2⌋` and `t·x + h = quot·q + rem`, the plaintext
/// coefficient is `quot mod t`, and because `q` is odd (a product of odd NTT
/// primes) the centered magnitude of `t·x mod q` — the scaled noise — is
/// exactly `|rem − h|`: one compare and one subtract on top of decryption.
///
/// # Errors
///
/// Fails when the ciphertext or the key is bound to another context, or the
/// ciphertext is malformed.
pub fn decrypt_with_budget(
    ctx: &BfvContext,
    sk: &SecretKey,
    ct: &Ciphertext,
) -> Result<(Plaintext, u32)> {
    if sk.context_id() != ctx.id() {
        return Err(BfvError::ContextMismatch);
    }
    check(ctx, ct)?;
    let acc = dot_with_secret(ctx, sk, ct);
    let t = ctx.params().plain_modulus();
    let n = ctx.poly_degree();
    let mut coeffs = vec![0u64; n];
    let mut max_bits = 0u32;
    if ctx.limb_count() == 1 {
        // Single-limb fast path: everything fits u128.
        let q = ctx.params().coeff_moduli()[0] as u128;
        let half = q / 2;
        for (j, out) in coeffs.iter_mut().enumerate() {
            let sum = t as u128 * acc.limbs[0][j] as u128 + half;
            let quot = sum / q;
            *out = (quot % t as u128) as u64;
            let mag = (sum - quot * q).abs_diff(half);
            max_bits = max_bits.max(u128::BITS - mag.leading_zeros());
        }
    } else {
        let mut residues = vec![0u64; ctx.limb_count()];
        for (j, out) in coeffs.iter_mut().enumerate() {
            for (r, limb) in residues.iter_mut().zip(&acc.limbs) {
                *r = limb[j];
            }
            let x = ctx.crt_reconstruct(&residues);
            // round(t*x/q) = floor((t*x + q/2) / q), then reduce mod t.
            let (tx, carry) = x.carrying_mul_u64(t);
            debug_assert_eq!(carry, 0, "t*x fits in 256 bits by parameter validation");
            let (sum, overflow) = tx.overflowing_add(ctx.q_half);
            debug_assert!(!overflow);
            let (quot, rem) = ctx.rec_q.div_rem(sum);
            // quot <= t, so it fits u64 after reduction.
            *out = quot.to_u64().unwrap_or(0) % t;
            let mag = if rem >= ctx.q_half {
                rem.wrapping_sub(ctx.q_half)
            } else {
                ctx.q_half.wrapping_sub(rem)
            };
            max_bits = max_bits.max(mag.bits());
        }
    }
    // v = (t*x mod q)/q  =>  budget = -log2(2*||v||) ≈ q_bits - mag_bits - 1.
    let budget = ctx.q.bits().saturating_sub(max_bits + 1);
    Ok((Plaintext::from_coeffs(coeffs), budget))
}

/// Computes `c(s) = c0 + c1·s + c2·s² + …` in coefficient form.
fn dot_with_secret(ctx: &BfvContext, sk: &SecretKey, ct: &Ciphertext) -> RnsPoly {
    let mut acc = RnsPoly::zero(ctx, PolyForm::Ntt);
    // s^idx for idx >= 2; s itself is read in place, never copied.
    let mut s_power: Option<RnsPoly> = None;
    for (idx, poly) in ct.polys.iter().enumerate() {
        let mut p = poly.clone();
        p.to_ntt(ctx);
        match idx {
            0 => acc.add_assign(&p, ctx),
            1 => acc.mul_acc(&p, &sk.s, ctx),
            _ => {
                let next = s_power.as_ref().unwrap_or(&sk.s).mul_pointwise(&sk.s, ctx);
                acc.mul_acc(&p, &next, ctx);
                s_power = Some(next);
            }
        }
    }
    acc.to_coeff(ctx);
    acc
}

fn check(ctx: &BfvContext, ct: &Ciphertext) -> Result<()> {
    if ct.context_id() != ctx.id() {
        return Err(BfvError::ContextMismatch);
    }
    if ct.size() < 2 {
        return Err(BfvError::InvalidCiphertextSize(ct.size()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encryptor::Encryptor;
    use crate::keys::KeyGenerator;
    use crate::params::presets;
    use hesgx_crypto::rng::ChaChaRng;

    fn setup() -> (Arc<BfvContext>, Encryptor, Decryptor, ChaChaRng) {
        let ctx = BfvContext::new(presets::test_n256()).unwrap();
        let mut rng = ChaChaRng::from_seed(21);
        let keygen = KeyGenerator::new(ctx.clone(), &mut rng);
        let enc = Encryptor::new(ctx.clone(), keygen.public_key());
        let dec = Decryptor::new(ctx.clone(), keygen.secret_key());
        (ctx, enc, dec, rng)
    }

    #[test]
    fn encrypt_decrypt_roundtrip_constants() {
        let (ctx, enc, dec, mut rng) = setup();
        let t = ctx.params().plain_modulus();
        for v in [0u64, 1, 2, 7, t - 1, t / 2] {
            let ct = enc.encrypt(&Plaintext::constant(v), &mut rng).unwrap();
            let back = dec.decrypt(&ct).unwrap();
            assert_eq!(back.coeffs()[0], v, "value {v}");
            assert!(back.coeffs()[1..].iter().all(|&c| c == 0));
        }
    }

    #[test]
    fn encrypt_decrypt_roundtrip_polynomials() {
        let (ctx, enc, dec, mut rng) = setup();
        let t = ctx.params().plain_modulus();
        let n = ctx.poly_degree();
        let coeffs: Vec<u64> = (0..n as u64).map(|i| (i * 37) % t).collect();
        let pt = Plaintext::from_coeffs(coeffs.clone());
        let ct = enc.encrypt(&pt, &mut rng).unwrap();
        assert_eq!(dec.decrypt(&ct).unwrap().coeffs(), &coeffs[..]);
    }

    #[test]
    fn fresh_budget_positive_and_reasonable() {
        let (ctx, enc, dec, mut rng) = setup();
        let ct = enc.encrypt(&Plaintext::constant(3), &mut rng).unwrap();
        let budget = dec.invariant_noise_budget(&ct).unwrap();
        let q_bits = ctx.params().coeff_modulus_bits();
        assert!(budget > 0, "fresh ciphertext must be decryptable");
        assert!(
            budget < q_bits,
            "budget {budget} must be below q bits {q_bits}"
        );
    }

    #[test]
    fn wrong_context_rejected() {
        let (_, _, dec, mut rng) = setup();
        let other_ctx = BfvContext::new(presets::paper_n1024()).unwrap();
        let keygen = KeyGenerator::new(other_ctx.clone(), &mut rng);
        let enc2 = Encryptor::new(other_ctx, keygen.public_key());
        let ct = enc2.encrypt(&Plaintext::constant(1), &mut rng).unwrap();
        assert_eq!(dec.decrypt(&ct), Err(BfvError::ContextMismatch));
    }
}
