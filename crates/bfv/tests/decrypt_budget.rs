//! Differential suite for the fused decrypt-and-measure pass.
//!
//! `decryptor::decrypt_with_budget` reads the plaintext and the invariant
//! noise budget out of one rounding division per coefficient. Both results
//! must equal — exactly — [`Decryptor::decrypt`] and
//! [`Decryptor::invariant_noise_budget`], and an independent oracle that
//! recomputes them from the raw phase `[c(s)]_q` with schoolbook 512-bit
//! division: `round(t·x/q) mod t` for the plaintext and
//! `q_bits − bits(centered(t·x mod q)) − 1` for the budget.
//!
//! Coverage: one- and two-limb `q` at n ∈ {256, 1024, 4096}, on fresh,
//! plain-multiplied, squared (size 3), and repeatedly squared ciphertexts
//! down to (and including) budget 0, where decryption is garbage but both
//! sides must still agree bit for bit.

use hesgx_bfv::arith::largest_prime_congruent_one;
use hesgx_bfv::context::BfvContext;
use hesgx_bfv::decryptor::decrypt_with_budget;
use hesgx_bfv::params::EncryptionParameters;
use hesgx_bfv::prelude::*;
use hesgx_crypto::rng::ChaChaRng;
use hesgx_crypto::uint::{div_rem_u512, U256, U512};
use std::sync::Arc;

const DEGREES: &[usize] = &[256, 1024, 4096];
const PLAIN_MODULUS: u64 = 65537;
/// Squarings allowed before the budget must have reached 0.
const MAX_SQUARINGS: usize = 5;

struct Keys {
    ctx: Arc<BfvContext>,
    sk: SecretKey,
    encryptor: Encryptor,
    decryptor: Decryptor,
    evaluator: Evaluator,
}

fn keys(n: usize, limbs: usize, seed: u64) -> Keys {
    let moduli = match limbs {
        1 => vec![largest_prime_congruent_one(60, 2 * n as u64)],
        _ => EncryptionParameters::default_coeff_moduli(n),
    };
    assert_eq!(moduli.len(), limbs);
    let params = EncryptionParameters::builder()
        .poly_degree(n)
        .coeff_moduli(moduli)
        .plain_modulus(PLAIN_MODULUS)
        .build()
        .unwrap();
    let ctx = BfvContext::new(params).unwrap();
    let mut rng = ChaChaRng::from_seed(seed);
    let keygen = KeyGenerator::new(ctx.clone(), &mut rng);
    Keys {
        sk: keygen.secret_key(),
        encryptor: Encryptor::new(ctx.clone(), keygen.public_key()),
        decryptor: Decryptor::new(ctx.clone(), keygen.secret_key()),
        evaluator: Evaluator::new(ctx.clone()),
        ctx,
    }
}

/// The textbook formulas, recomputed from the raw phase with schoolbook
/// division (no reciprocal, no shared remainder).
fn oracle(ctx: &BfvContext, phase: &[U256]) -> (Vec<u64>, u32) {
    let q = ctx.coeff_modulus();
    let half = q.shr(1);
    let t = ctx.params().plain_modulus();
    let mut coeffs = Vec::with_capacity(phase.len());
    let mut max_bits = 0;
    for &x in phase {
        let (tx, carry) = x.carrying_mul_u64(t);
        assert_eq!(carry, 0);
        let (quot, _) = div_rem_u512(U512::from_u256(tx.wrapping_add(half)), q);
        coeffs.push(quot.lo().to_u64().unwrap() % t);
        let (_, rem) = div_rem_u512(U512::from_u256(tx), q);
        let mag = if rem > half { q.wrapping_sub(rem) } else { rem };
        max_bits = max_bits.max(mag.bits());
    }
    (coeffs, q.bits().saturating_sub(max_bits + 1))
}

/// Checks one ciphertext three ways and returns its budget.
fn assert_fused_matches(k: &Keys, ct: &Ciphertext, what: &str) -> u32 {
    let (pt, budget) = decrypt_with_budget(&k.ctx, &k.sk, ct).unwrap();
    assert_eq!(pt, k.decryptor.decrypt(ct).unwrap(), "{what}: plaintext");
    assert_eq!(
        budget,
        k.decryptor.invariant_noise_budget(ct).unwrap(),
        "{what}: budget"
    );
    let (coeffs, oracle_budget) = oracle(&k.ctx, &k.decryptor.raw_phase(ct).unwrap());
    assert_eq!(pt.coeffs(), &coeffs[..], "{what}: plaintext vs oracle");
    assert_eq!(budget, oracle_budget, "{what}: budget vs oracle");
    budget
}

fn random_plaintext(n: usize, rng: &mut ChaChaRng) -> Plaintext {
    Plaintext::from_coeffs((0..n).map(|_| rng.next_below(PLAIN_MODULUS)).collect())
}

#[test]
fn fused_pass_equals_decrypt_and_budget_on_every_tier() {
    for &n in DEGREES {
        for limbs in [1, 2] {
            let tier = format!("n={n} limbs={limbs}");
            let k = keys(n, limbs, 0xB0D6E7 ^ n as u64 ^ limbs as u64);
            let mut rng = ChaChaRng::from_seed(n as u64 * 31 + limbs as u64);

            let msg = random_plaintext(n, &mut rng);
            let fresh = k.encryptor.encrypt(&msg, &mut rng).unwrap();
            let fresh_budget = assert_fused_matches(&k, &fresh, &format!("{tier} fresh"));
            assert!(fresh_budget > 0, "{tier}: fresh ciphertext decryptable");
            assert_eq!(k.decryptor.decrypt(&fresh).unwrap(), msg, "{tier}");

            let factor = random_plaintext(n, &mut rng);
            let scaled = k.evaluator.mul_plain(&fresh, &factor).unwrap();
            let scaled_budget = assert_fused_matches(&k, &scaled, &format!("{tier} mul_plain"));
            assert!(
                scaled_budget < fresh_budget,
                "{tier}: mul_plain costs budget"
            );

            let mut ct = k.evaluator.square(&fresh).unwrap();
            assert_eq!(ct.size(), 3);
            let mut budget = assert_fused_matches(&k, &ct, &format!("{tier} squared"));
            let mut squarings = 1;
            while budget > 0 {
                assert!(
                    squarings < MAX_SQUARINGS,
                    "{tier}: budget {budget} after {squarings} squarings"
                );
                ct = k.evaluator.square(&ct).unwrap();
                squarings += 1;
                budget = assert_fused_matches(
                    &k,
                    &ct,
                    &format!("{tier} squared x{squarings} (size {})", ct.size()),
                );
            }
        }
    }
}

#[test]
fn fused_pass_rejects_foreign_key_and_ciphertext() {
    let a = keys(256, 2, 1);
    let b = keys(256, 1, 2);
    let mut rng = ChaChaRng::from_seed(3);
    let ct = a
        .encryptor
        .encrypt(&Plaintext::constant(5), &mut rng)
        .unwrap();
    assert_eq!(
        decrypt_with_budget(&a.ctx, &b.sk, &ct),
        Err(BfvError::ContextMismatch)
    );
    assert_eq!(
        decrypt_with_budget(&b.ctx, &b.sk, &ct),
        Err(BfvError::ContextMismatch)
    );
}
