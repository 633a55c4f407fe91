//! Integration tests spanning all crates: the full paper pipeline at the
//! paper's parameters, exactness against the plaintext reference, the
//! attestation chain, and the side-channel claims.

mod testutil;

use hesgx_core::keydist::verify_key_ceremony;
use hesgx_core::pipeline::EcallBatching;
use hesgx_core::planner::PoolStrategy;
use hesgx_crypto::rng::ChaChaRng;
use hesgx_henn::cryptonets::CryptoNets;
use hesgx_henn::image::EncryptedMap;
use hesgx_nn::dataset;
use hesgx_nn::layers::ActivationKind;
use hesgx_nn::quantize::{QuantPipeline, QuantizedCnn};
use hesgx_tee::attestation::AttestationService;
use hesgx_tee::enclave::Platform;
use testutil::{hybrid_paper_model, provision};

#[test]
fn full_paper_pipeline_matches_reference_for_batch() {
    // The headline correctness claim (paper §VII-B): encrypted hybrid
    // inference produces exactly the plaintext predictions — here verified on
    // the real 28×28 architecture at n = 1024 with a batch of 3 images.
    let model = hybrid_paper_model(1);
    let platform = Platform::new(50);
    let mut attestation = AttestationService::new();
    attestation.register_platform(platform.quoting_enclave());
    let (service, ceremony) = provision(platform, model.clone(), 3);

    // Attestation chain must verify before the user encrypts anything.
    let measurement = *service.enclave().enclave().measurement();
    let keys = verify_key_ceremony(&attestation, &ceremony, &measurement).unwrap();

    let samples = dataset::generate(3, 9);
    let images: Vec<Vec<i64>> = samples
        .iter()
        .map(|s| dataset::quantize_pixels(&s.image))
        .collect();
    let mut rng = ChaChaRng::from_seed(10);
    let enc = EncryptedMap::encrypt_images(service.system(), &images, 28, &keys, &mut rng).unwrap();
    let (logits, metrics) = service.infer(&enc, EcallBatching::Batched).unwrap();

    for (b, img) in images.iter().enumerate() {
        let expect = model.forward_ints(img);
        for (class, ct) in logits.iter().enumerate() {
            let got = service
                .system()
                .decrypt_slots(ct, &ceremony.user_secret)
                .unwrap()[b];
            assert_eq!(got, expect[class] as i128, "batch {b} class {class}");
        }
    }
    // The paper model's 2×2 window selects SgxPool; all four stages ran.
    assert_eq!(service.plan().pool_strategy, PoolStrategy::SgxPool);
    assert_eq!(metrics.stages.len(), 4);
    assert_eq!(
        metrics.ops.ct_ct_mul, 0,
        "hybrid pipeline never multiplies ciphertexts"
    );
    assert_eq!(metrics.ops.relin, 0, "hybrid pipeline never relinearizes");
}

#[test]
fn cryptonets_baseline_matches_reference_on_paper_architecture() {
    // The pure-HE baseline on a reduced instance of the paper architecture
    // (12×12 input keeps the square count manageable in a test).
    let model = QuantizedCnn {
        pipeline: QuantPipeline::CryptoNets,
        in_side: 12,
        conv_out: 3,
        kernel: 5,
        window: 2,
        classes: 10,
        conv_weights: (0..75).map(|i| (i % 9) as i64 - 4).collect(),
        conv_bias: vec![3, -2, 7],
        fc_weights: (0..10 * 48).map(|i| (i % 7) as i64 - 3).collect(),
        fc_bias: (0..10).map(|i| i * 11 - 50).collect(),
        weight_scale: 8,
        fc_scale: 8,
        act_scale: 16,
    };
    let engine = CryptoNets::new(model.clone(), 1024).unwrap();
    let mut rng = ChaChaRng::from_seed(20);
    let keys = engine.system().generate_keys(&mut rng);
    let images: Vec<Vec<i64>> = (0..2)
        .map(|b| (0..144).map(|p| ((p * 5 + b) % 16) as i64).collect())
        .collect();
    let enc = engine.encrypt_batch(&images, &keys, &mut rng).unwrap();
    let (logits, counter) = engine.infer(&enc, &keys).unwrap();
    let dec = engine.decrypt_logits(&logits, &keys, 2).unwrap();
    for (b, img) in images.iter().enumerate() {
        let expect: Vec<i128> = model.forward_ints(img).iter().map(|&v| v as i128).collect();
        assert_eq!(dec[b], expect, "batch {b}");
    }
    // The baseline pays squares + relinearizations the hybrid avoids.
    assert_eq!(counter.ct_ct_mul as usize, 3 * 8 * 8);
    assert_eq!(counter.relin, counter.ct_ct_mul);
}

#[test]
fn hybrid_and_plaintext_predictions_agree_across_dataset() {
    // Prediction-level consistency over more samples (argmax, not raw logits,
    // to mirror the paper's accuracy claim).
    let model = hybrid_paper_model(2);
    let (service, ceremony) = provision(Platform::new(51), model.clone(), 4);
    let samples = dataset::generate(4, 33);
    let images: Vec<Vec<i64>> = samples
        .iter()
        .map(|s| dataset::quantize_pixels(&s.image))
        .collect();
    let mut rng = ChaChaRng::from_seed(11);
    let enc =
        EncryptedMap::encrypt_images(service.system(), &images, 28, &ceremony.public, &mut rng)
            .unwrap();
    let (logits, _) = service.infer(&enc, EcallBatching::Batched).unwrap();
    for (b, img) in images.iter().enumerate() {
        let mut best = (0usize, i128::MIN);
        for (class, ct) in logits.iter().enumerate() {
            let v = service
                .system()
                .decrypt_slots(ct, &ceremony.user_secret)
                .unwrap()[b];
            if v > best.1 {
                best = (class, v);
            }
        }
        assert_eq!(best.0, model.predict_ints(img), "sample {b}");
    }
}

#[test]
fn relu_and_tanh_in_enclave_also_exact() {
    // Paper §VI-C: SGX computes diverse activations exactly.
    for kind in [ActivationKind::Relu, ActivationKind::Tanh] {
        let model = hybrid_paper_model(3);
        let (mut service, ceremony) = provision(Platform::new(52), model.clone(), 5);
        service.set_activation(kind);
        let image = vec![dataset::quantize_pixels(&dataset::generate(1, 8)[0].image)];
        let mut rng = ChaChaRng::from_seed(12);
        let enc =
            EncryptedMap::encrypt_images(service.system(), &image, 28, &ceremony.public, &mut rng)
                .unwrap();
        let (logits, _) = service.infer(&enc, EcallBatching::Batched).unwrap();
        // Reference with the same activation.
        let conv = model.conv_ints(&image[0]);
        let act: Vec<i64> = conv
            .iter()
            .map(|&v| model.enclave_activation(v, kind))
            .collect();
        let cs = model.conv_side();
        let ps = model.pool_side();
        let mut pooled = vec![0i64; model.fc_in()];
        for c in 0..model.conv_out {
            for py in 0..ps {
                for px in 0..ps {
                    let mut sum = 0;
                    for dy in 0..2 {
                        for dx in 0..2 {
                            sum += act[(c * cs + py * 2 + dy) * cs + px * 2 + dx];
                        }
                    }
                    pooled[(c * ps + py) * ps + px] = model.enclave_mean(sum);
                }
            }
        }
        for (class, ct) in logits.iter().enumerate() {
            let mut expect = model.fc_bias[class];
            for (i, &p) in pooled.iter().enumerate() {
                expect += model.fc_weights[class * model.fc_in() + i] * p;
            }
            let got = service
                .system()
                .decrypt_slots(ct, &ceremony.user_secret)
                .unwrap()[0];
            assert_eq!(got, expect as i128, "{kind:?} class {class}");
        }
    }
}

#[test]
fn side_channel_exposure_lower_for_batched_design() {
    // Paper §IV-C/§IV-D: batching ECALLs reduces the observable surface.
    let model = hybrid_paper_model(4);
    let image = vec![dataset::quantize_pixels(&dataset::generate(1, 3)[0].image)];
    let mut rng = ChaChaRng::from_seed(13);

    let run = |batching: EcallBatching, seed: u64| {
        let (service, ceremony) = provision(Platform::new(seed), model.clone(), seed);
        let enc = EncryptedMap::encrypt_images(
            service.system(),
            &image,
            28,
            &ceremony.public,
            &mut ChaChaRng::from_seed(14),
        )
        .unwrap();
        let _ = service.infer(&enc, batching).unwrap();
        service
            .enclave()
            .enclave()
            .with_monitor(|m| (m.ecall_count(), m.exposure_score()))
    };
    let _ = &mut rng;
    let (batched_ecalls, batched_score) = run(EcallBatching::Batched, 60);
    let (single_ecalls, single_score) = run(EcallBatching::PerPixel, 61);
    assert!(
        single_ecalls > 100 * batched_ecalls,
        "per-pixel design crosses the boundary orders of magnitude more: {single_ecalls} vs {batched_ecalls}"
    );
    assert!(single_score > batched_score);
}

#[test]
fn noise_refresh_extends_computation_indefinitely() {
    // Paper §IV-E: the enclave refresh replaces relinearization. Chain many
    // squarings, refreshing in between — impossible under pure HE at these
    // parameters without evaluation keys.
    let sys = hesgx_henn::crt::CrtPlainSystem::new(1024, &[40961]).unwrap();
    let mut rng = ChaChaRng::from_seed(15);
    let keys = sys.generate_keys(&mut rng);
    let platform = Platform::new(70);
    let enclave = hesgx_tee::enclave::EnclaveBuilder::new("refresh")
        .add_code(b"r")
        .build(platform);
    let ie =
        hesgx_core::InferenceEnclave::new(enclave, keys.secret.clone(), keys.public.clone(), 16);
    // 3^2 = 9, 9^2 = 81, 81^2 = 6561, 6561^2 mod 40961 wraps — stop at depth 3.
    let mut ct = sys.encrypt_slots(&[3], &keys.public, &mut rng).unwrap();
    let mut expected = 3i128;
    for depth in 0..3 {
        let sq = sys.square(&ct).unwrap();
        let (fresh, _, _) = ie.refresh_one(&sys, &sq).unwrap();
        expected *= expected;
        let budget = sys.noise_budget(&fresh, &keys.secret).unwrap();
        assert!(
            budget > 20,
            "refresh must restore budget at depth {depth}: {budget}"
        );
        assert_eq!(
            sys.decrypt_slots(&fresh, &keys.secret).unwrap()[0],
            expected
        );
        ct = fresh;
    }
}
