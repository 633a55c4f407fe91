//! Operation explorer: the paper's §VI quantitative analysis at example
//! scale — per-operation costs of FV and the enclave, SIMD batching
//! throughput, and the pooling-strategy decision rule.
//!
//! ```text
//! cargo run --release -p hesgx-core --example operation_explorer
//! ```

use hesgx_bfv::prelude::*;
use hesgx_core::planner::PoolStrategy;
use hesgx_core::InferenceEnclave;
use hesgx_crypto::rng::ChaChaRng;
use hesgx_henn::crt::CrtPlainSystem;
use hesgx_henn::image::EncryptedMap;
use hesgx_henn::ops::{self, OpCounter};
use hesgx_nn::layers::ActivationKind;
use hesgx_nn::quantize::{QuantPipeline, QuantizedCnn};
use hesgx_tee::enclave::{EnclaveBuilder, Platform};
use std::time::Instant;

fn time_ms(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64() * 1e3
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = ChaChaRng::from_seed(1);

    println!("== FV basics at the paper's parameters (n = 1024, t = 65537) ==");
    let params = presets::paper_n1024();
    let ctx = BfvContext::new(params.clone())?;
    println!(
        "q = {} bits across {} RNS limbs | security: {:?}",
        params.coeff_modulus_bits(),
        params.coeff_moduli().len(),
        params.security_level()
    );
    let keygen = KeyGenerator::new(ctx.clone(), &mut rng);
    let encryptor = Encryptor::new(ctx.clone(), keygen.public_key());
    let decryptor = Decryptor::new(ctx.clone(), keygen.secret_key());
    let evaluator = Evaluator::new(ctx.clone());
    let evk = keygen.evaluation_keys(&mut rng);

    let pt = Plaintext::constant(123);
    let ct = encryptor.encrypt(&pt, &mut rng)?;
    println!(
        "fresh noise budget: {} bits",
        decryptor.invariant_noise_budget(&ct)?
    );
    println!(
        "encrypt:      {:8.3} ms",
        time_ms(|| {
            let _ = encryptor.encrypt(&pt, &mut rng).unwrap();
        })
    );
    println!(
        "decrypt:      {:8.3} ms",
        time_ms(|| {
            let _ = decryptor.decrypt(&ct).unwrap();
        })
    );
    println!(
        "add:          {:8.3} ms",
        time_ms(|| {
            let _ = evaluator.add(&ct, &ct).unwrap();
        })
    );
    println!(
        "mul_plain:    {:8.3} ms",
        time_ms(|| {
            let _ = evaluator.mul_plain_signed_scalar(&ct, 31).unwrap();
        })
    );
    let mut size3 = None;
    println!(
        "multiply:     {:8.3} ms",
        time_ms(|| {
            size3 = Some(evaluator.multiply(&ct, &ct).unwrap());
        })
    );
    let size3 = size3.unwrap();
    println!(
        "relinearize:  {:8.3} ms",
        time_ms(|| {
            let _ = evaluator.relinearize(&size3, &evk).unwrap();
        })
    );
    println!(
        "noise after square: {} bits",
        decryptor.invariant_noise_budget(&size3)?
    );

    println!("\n== SIMD batching (paper §VIII: 'you can get 1024 times the throughput') ==");
    let batch_encoder = BatchEncoder::new(&params)?;
    let values: Vec<u64> = (0..batch_encoder.slot_count() as u64).collect();
    let packed = batch_encoder.encode(&values)?;
    let ct_packed = encryptor.encrypt(&packed, &mut rng)?;
    let tripled = evaluator.mul_plain_signed_scalar(&ct_packed, 3)?;
    let decoded = batch_encoder.decode(&decryptor.decrypt(&tripled)?);
    assert!(decoded
        .iter()
        .enumerate()
        .all(|(i, &v)| v == (3 * i as u64) % 65537));
    println!(
        "{} independent values in ONE ciphertext, one op = {} multiplications",
        batch_encoder.slot_count(),
        batch_encoder.slot_count()
    );

    println!("\n== Fig. 4 intuition: op count vs kernel size (28x28 map) ==");
    for k in [1usize, 7, 14, 15, 22, 28] {
        println!(
            "kernel {k:2}: {:6} C×P ops",
            OpCounter::conv_theoretical(28, k)
        );
    }

    println!("\n== pooling strategy rule (paper §VI-D) ==");
    let sys = CrtPlainSystem::new(1024, &[65537])?;
    let keys = sys.generate_keys(&mut rng);
    let platform = Platform::new(3);
    let enclave = EnclaveBuilder::new("explorer")
        .add_code(b"x")
        .build(platform);
    let ie = InferenceEnclave::new(enclave, keys.secret.clone(), keys.public.clone(), 9);
    let images = vec![(0..576).map(|p| (p % 16) as i64).collect::<Vec<i64>>()];
    let input = EncryptedMap::encrypt_images(&sys, &images, 24, &keys.public, &mut rng)?;
    println!("window   rule        SGXDiv(ms)   SGXPool(ms)");
    for window in [2usize, 3, 4, 6, 8, 12] {
        let model = QuantizedCnn {
            pipeline: QuantPipeline::Hybrid,
            in_side: 24,
            conv_out: 1,
            kernel: 1,
            window,
            classes: 10,
            conv_weights: vec![1],
            conv_bias: vec![0],
            fc_weights: vec![1; 10 * (24 / window) * (24 / window)],
            fc_bias: vec![0; 10],
            weight_scale: 16,
            fc_scale: 16,
            act_scale: 16,
        };
        let start = Instant::now();
        let mut counter = OpCounter::default();
        let summed =
            ops::he_scaled_mean_pool(&sys, &input, window, &mut counter, &PolyArena::new())?;
        let (_, _, div_cost) = ie.divide_map(&sys, &summed, &model)?;
        let div_ms = start.elapsed().as_secs_f64() * 1e3
            + (div_cost.total_ns().saturating_sub(div_cost.real_ns)) as f64 / 1e6;
        let (_, _, pool_cost) = ie.pool_full_map(&sys, &input, &model, false)?;
        let pool_ms = pool_cost.total_ns() as f64 / 1e6;
        println!(
            "{window:6}   {:?}   {div_ms:10.3}   {pool_ms:11.3}",
            PoolStrategy::select(window)
        );
    }

    println!("\n== exact activations inside SGX (paper §VI-C) ==");
    let model = QuantizedCnn {
        pipeline: QuantPipeline::Hybrid,
        in_side: 8,
        conv_out: 1,
        kernel: 1,
        window: 2,
        classes: 10,
        conv_weights: vec![1],
        conv_bias: vec![0],
        fc_weights: vec![1; 160],
        fc_bias: vec![0; 10],
        weight_scale: 16,
        fc_scale: 16,
        act_scale: 16,
    };
    let img = vec![(0..64).map(|p| p as i64 * 4 - 128).collect::<Vec<i64>>()];
    let map = EncryptedMap::encrypt_images(&sys, &img, 8, &keys.public, &mut rng)?;
    for kind in [
        ActivationKind::Sigmoid,
        ActivationKind::Relu,
        ActivationKind::Tanh,
        ActivationKind::LeakyRelu,
    ] {
        let (_, _, cost) = ie.activation_map(&sys, &map, &model, kind)?;
        println!(
            "{kind:?} over 64 cells: {:.3} ms virtual",
            cost.total_ns() as f64 / 1e6
        );
    }
    println!("\nall exact — no polynomial approximation, no accuracy loss.");
    Ok(())
}
