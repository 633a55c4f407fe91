//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! * **ECALL batching** — whole-map vs per-pixel enclave crossings (the
//!   design choice behind `EncryptSGX` vs `EncryptSGX (single)`).
//! * **Polynomial degree** — how n scales the per-operation costs (the paper
//!   fixed n = 1024; this sweep shows what that choice buys).
//! * **Quantization scales** — fixed-point precision vs agreement with the
//!   float model (the knob that trades plaintext-modulus head-room for
//!   fidelity).
//! * **CRT modulus count** — single large vs multiple small plaintext moduli
//!   for a linear pipeline (the `for_range` fast path).

use super::{header, RunConfig};
use crate::experiments::figures::scale_stub;
use crate::PaperEnv;
use hesgx_crypto::rng::ChaChaRng;
use hesgx_henn::crt::CrtPlainSystem;
use hesgx_henn::image::EncryptedMap;
use hesgx_nn::dataset;
use hesgx_nn::layers::{ActivationKind, PoolKind};
use hesgx_nn::model_zoo::paper_cnn;
use hesgx_nn::quantize::{QuantPipeline, QuantizedCnn};
use std::time::Instant;

/// Ablation 1: ECALL batching granularity on a single feature map.
pub fn ablate_ecall_batching(env: &mut PaperEnv) {
    header("ABLATION: ECALL batching granularity (16x16 feature map)");
    let model = scale_stub(2);
    let ie = env.inference_enclave(false);
    let mut rng = env.rng.fork("ablate-batching");
    let images = vec![(0..256).map(|p| (p as i64 % 41) - 20).collect::<Vec<i64>>()];
    let input =
        EncryptedMap::encrypt_images(&env.sys, &images, 16, &env.keys.public, &mut rng).unwrap();
    let (_, _, batched) = ie
        .activation_map(&env.sys, &input, &model, ActivationKind::Sigmoid)
        .unwrap();
    let (_, _, single) = ie
        .activation_map_single_ecalls(&env.sys, &input, &model, ActivationKind::Sigmoid)
        .unwrap();
    println!("granularity   virtual (ms)  transitions (ms)");
    println!(
        "one ECALL     {:12.3}  {:16.3}",
        batched.total_ns() as f64 / 1e6,
        batched.transition_ns as f64 / 1e6
    );
    println!(
        "per pixel     {:12.3}  {:16.3}",
        single.total_ns() as f64 / 1e6,
        single.transition_ns as f64 / 1e6
    );
    println!(
        "per-pixel transition overhead: {:.0}x",
        single.transition_ns as f64 / batched.transition_ns.max(1) as f64
    );
}

/// Ablation 2: polynomial degree vs per-operation cost.
pub fn ablate_poly_degree(cfg: RunConfig) {
    header("ABLATION: polynomial degree n (per-op costs, single 65537 modulus)");
    let reps = cfg.reps(50);
    println!("n       slots   encrypt(ms)  decrypt(ms)  C×P mul(us)");
    for n in [256usize, 512, 1024, 2048] {
        // 65537 ≡ 1 mod 2n for n up to 32768 (65536 = 2^16).
        let sys = CrtPlainSystem::new(n, &[65537]).unwrap();
        let mut rng = ChaChaRng::from_seed(n as u64);
        let keys = sys.generate_keys(&mut rng);
        let values = vec![5i64; 10];
        let ct = sys.encrypt_slots(&values, &keys.public, &mut rng).unwrap();
        let start = Instant::now();
        for _ in 0..reps {
            let _ = sys.encrypt_slots(&values, &keys.public, &mut rng).unwrap();
        }
        let enc_ms = start.elapsed().as_secs_f64() * 1e3 / reps as f64;
        let start = Instant::now();
        for _ in 0..reps {
            let _ = sys.decrypt_slots(&ct, &keys.secret).unwrap();
        }
        let dec_ms = start.elapsed().as_secs_f64() * 1e3 / reps as f64;
        let start = Instant::now();
        for _ in 0..reps {
            let _ = sys.mul_scalar(&ct, 13).unwrap();
        }
        let mul_us = start.elapsed().as_secs_f64() * 1e6 / reps as f64;
        println!("{n:6}  {n:6}  {enc_ms:11.3}  {dec_ms:11.3}  {mul_us:11.2}");
    }
    println!("(the paper fixed n = 1024; costs scale ~n·log n, slots scale ~n)");
}

/// Ablation 3: quantization scales vs agreement with the float model.
pub fn ablate_quantization(cfg: RunConfig) {
    header("ABLATION: quantization scales vs float-model agreement");
    let samples = dataset::generate(if cfg.quick { 40 } else { 120 }, 17);
    let mut rng = ChaChaRng::from_seed(99);
    let net = paper_cnn(ActivationKind::Sigmoid, PoolKind::Mean, &mut rng);
    println!("weight_scale  fc_scale  act_scale  agreement  required plain bits");
    for (ws, fs, act) in [
        (4, 8, 4),
        (8, 16, 8),
        (16, 32, 16),
        (64, 64, 64),
        (256, 256, 256),
    ] {
        let q = QuantizedCnn::from_network(&net, QuantPipeline::Hybrid, ws, fs, act);
        let agree = samples
            .iter()
            .filter(|s| q.predict_image(&s.image) == net.predict(&dataset::normalize(&s.image)))
            .count();
        let report = q.range_report();
        println!(
            "{ws:12}  {fs:8}  {act:9}  {:6.1}%    {:8}",
            100.0 * agree as f64 / samples.len() as f64,
            report.required_plain_bits
        );
    }
    println!("(coarser scales shrink the plaintext modulus but drift from the float model)");
}

/// Ablation 4: one large plaintext modulus vs several small ones for the
/// hybrid (linear) pipeline.
pub fn ablate_crt_parts(cfg: RunConfig) {
    header("ABLATION: plaintext-CRT composition for a 24-bit linear pipeline");
    let reps = cfg.reps(50);
    let single = hesgx_bfv::arith::smallest_prime_congruent_one_above(1 << 24, 2048);
    let configs: [(&str, Vec<u64>); 3] = [
        ("1 x 25-bit prime", vec![single]),
        ("2 x 16-bit primes", vec![40961, 65537]),
        ("3 x 16-bit primes", vec![40961, 61441, 65537]),
    ];
    println!("composition          product bits  conv C×P (us)  refresh dec+enc (ms)");
    for (label, moduli) in configs {
        let sys = CrtPlainSystem::new(1024, &moduli).unwrap();
        let mut rng = ChaChaRng::from_seed(7);
        let keys = sys.generate_keys(&mut rng);
        let ct = sys.encrypt_slots(&[9; 10], &keys.public, &mut rng).unwrap();
        let start = Instant::now();
        for _ in 0..reps {
            let _ = sys.mul_scalar(&ct, 13).unwrap();
        }
        let mul_us = start.elapsed().as_secs_f64() * 1e6 / reps as f64;
        let start = Instant::now();
        for _ in 0..reps {
            let slots = sys.decrypt_slots(&ct, &keys.secret).unwrap();
            let back: Vec<i64> = slots.iter().map(|&v| v as i64).collect();
            let _ = sys.encrypt_slots(&back, &keys.public, &mut rng).unwrap();
        }
        let refresh_ms = start.elapsed().as_secs_f64() * 1e3 / reps as f64;
        println!(
            "{label:20} {:12.1}  {mul_us:13.2}  {refresh_ms:19.3}",
            (sys.modulus_product() as f64).log2()
        );
    }
    println!("(every operation scales with the part count — why for_range prefers one modulus for linear pipelines)");
}

/// Runs all ablations.
pub fn run_all(env: &mut PaperEnv, cfg: RunConfig) {
    ablate_ecall_batching(env);
    ablate_poly_degree(cfg);
    ablate_quantization(cfg);
    ablate_crt_parts(cfg);
}
