//! Golden digests of the trained protect models.
//!
//! Trained models are memoized by their *input* fingerprint
//! (`training_fingerprint`), so a store written by one build is read by
//! the next: any change to the trainer that moves a single bit of a
//! model silently mixes old and new models in existing stores. This
//! suite freezes the exact output of `train_top_configs` on the training
//! sets of the five protect request types (a fixed-seed 200-run
//! campaign each, labelled both ways) as one FNV-1a digest per set over
//! the bits of every exported `TrainedModel` field.
//!
//! The digests were captured before the duplicate-aware SMO replaced
//! the per-sample trainer, so they pin the new trainer to the old one's
//! models. Regenerate them only for a deliberate change of the models,
//! and say so in the commit: run the test and copy the `actual` block
//! from the failure message.

use ipas_core::{dataset_from_artifact, train_top_configs, training_set_artifact, LabelKind};
use ipas_faultsim::{run_campaign, CampaignConfig};
use ipas_store::TrainedModel;
use ipas_svm::GridOptions;
use ipas_workloads::Kind;

/// `kind input label digest`, one line per training set.
const EXPECTED: &[&str] = &[
    "CoMD 3 soc a8f3a48c967caf8d",
    "CoMD 3 symptom 6626995e3214b8a2",
    "HPCCG 6 soc e9d88552d1e262bf",
    "HPCCG 6 symptom 43625cc6459edd50",
    "FFT 16 soc a4a89cc94105da57",
    "FFT 16 symptom d89156c9e9385cbc",
    "IS 1024 soc b172c8453c5ec9c5",
    "IS 1024 symptom f5e4fd572314a9b7",
    "IS 2048 soc 8c3e9a76d4b39e3c",
    "IS 2048 symptom dec316527ef490d9",
];

/// The (kernel, input) pairs of the protect requests.
fn request_types() -> [(Kind, i64); 5] {
    [
        (Kind::Comd, 3),
        (Kind::Hpccg, 6),
        (Kind::Fft, 16),
        (Kind::Is, 1024),
        (Kind::Is, 2048),
    ]
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64s(&mut self, vs: &[f64]) {
        self.u64(vs.len() as u64);
        for v in vs {
            self.u64(v.to_bits());
        }
    }
}

fn hash_model(h: &mut Fnv, m: &TrainedModel) {
    for v in [m.c, m.gamma, m.pos_weight, m.tol] {
        h.u64(v.to_bits());
    }
    h.u64(m.max_passes as u64);
    for v in [m.f_score, m.acc1, m.acc2] {
        h.u64(v.to_bits());
    }
    h.f64s(&m.scaler_mean);
    h.f64s(&m.scaler_std);
    h.u64(m.support.len() as u64);
    for sv in &m.support {
        h.f64s(sv);
    }
    h.f64s(&m.coef);
    h.u64(m.bias.to_bits());
}

fn actual() -> Vec<String> {
    let mut lines = Vec::new();
    for (kind, input) in request_types() {
        let workload = kind.build(input).expect("workload builds");
        let config = CampaignConfig {
            runs: 200,
            seed: 2016,
            ..CampaignConfig::default()
        };
        let campaign = run_campaign(&workload, &config).expect("campaign completes");
        let set = training_set_artifact(&workload, &campaign);
        for (label, name) in [
            (LabelKind::SocGenerating, "soc"),
            (LabelKind::SymptomGenerating, "symptom"),
        ] {
            let data = dataset_from_artifact(&set, label);
            let models = train_top_configs(&data, &GridOptions::quick(), 2);
            let mut h = Fnv::new();
            h.u64(models.len() as u64);
            for m in &models {
                hash_model(&mut h, &m.export());
            }
            lines.push(format!("{} {input} {name} {:016x}", kind.name(), h.0));
        }
    }
    lines
}

#[test]
fn trained_models_match_golden_digests() {
    let actual = actual();
    let expected: Vec<String> = EXPECTED.iter().map(|s| s.to_string()).collect();
    assert_eq!(
        actual,
        expected,
        "trained models drifted from the golden digests; actual:\n{}",
        actual
            .iter()
            .map(|l| format!("    \"{l}\","))
            .collect::<Vec<_>>()
            .join("\n")
    );
}
