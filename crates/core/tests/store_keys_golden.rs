//! Golden store keys and artifact checksums of the protect workflow.
//!
//! An artifact store written by one build is read by the next, so every
//! stage key and every encoded artifact byte is part of the on-disk
//! contract: a key that moves orphans every stored result, and an
//! artifact byte that moves changes what a warm run replays. This suite
//! runs the protect workflow's stages (`training_stage`,
//! `classifier_stage`, `memoized_protect`, `evaluation_stage`) on the
//! five protect request types at fixed seeds and a small scale, and
//! pins, per request:
//!
//! - the standalone campaign summary key (`summary_key`) and the
//!   program fingerprint the CLI names journal directories after;
//! - the training key, each classifier key, and each variant's protect
//!   and eval keys;
//!
//! and then the SHA-256 of every artifact file the requests stored. A
//! second, warm pass over the filled store must derive the same keys
//! and store nothing new.
//! Every key carries the run identity. Keys and checksums are
//! abbreviated to 16 hex digits. They were captured before the
//! accelerated SHA-256, the memoized module text and the lean hex-float
//! codec went in, so they pin those to the bytes the earlier code
//! wrote. Regenerate them only for a deliberate key or schema change,
//! and say so in the commit: run the test and copy the `actual` block
//! from the failure message.

use ipas_core::{
    classifier_stage, dataset_from_artifact, evaluation_stage, memoized_protect,
    module_fingerprint, protect_fingerprint, summary_key, training_stage, with_run_identity,
    LabelKind, ProtectionPolicy,
};
use ipas_faultsim::CampaignConfig;
use ipas_store::hash::{hex, sha256};
use ipas_store::{Key, Store};
use ipas_svm::GridOptions;
use ipas_workloads::Kind;

/// `kind input stage [variant] key`, one line per stage key, then
/// `object kind key checksum`, one line per stored artifact.
const EXPECTED: &[&str] = &[
    "CoMD 3 program 3c33a5d2eee720cd",
    "CoMD 3 campaign ac371ff59c8aaa24",
    "CoMD 3 training a065e53d7a34a2e9",
    "CoMD 3 classifier IPAS 8ceffc7eef6eeeab",
    "CoMD 3 classifier Baseline 41a56e01a3d6ee40",
    "CoMD 3 eval unprotected 6c4cda0eddffb08f",
    "CoMD 3 protect full 6207b8d8b4a55737",
    "CoMD 3 eval full 67312f7a90289120",
    "CoMD 3 protect IPAS#1 08712a72cc0fb516",
    "CoMD 3 eval IPAS#1 efb3238a8406d12c",
    "CoMD 3 protect Baseline#1 70cf6373822655d3",
    "CoMD 3 eval Baseline#1 a281ffb344812b21",
    "HPCCG 6 program 9902df8a654d18d8",
    "HPCCG 6 campaign cbc1ed9dfd99b087",
    "HPCCG 6 training 5f68887508cce00b",
    "HPCCG 6 classifier IPAS c411c7588fab283d",
    "HPCCG 6 classifier Baseline e3eb0ee21380910e",
    "HPCCG 6 eval unprotected ce32505818586c6d",
    "HPCCG 6 protect full fba5eb0dffd6e7a6",
    "HPCCG 6 eval full e05a8852a4f098ed",
    "HPCCG 6 protect IPAS#1 bec41eb73177cf5e",
    "HPCCG 6 eval IPAS#1 e9a7f1d8650ca6c2",
    "HPCCG 6 protect Baseline#1 b79cae938ec164c9",
    "HPCCG 6 eval Baseline#1 486352c2ccffa707",
    "FFT 16 program 641e10a2245e0238",
    "FFT 16 campaign 4e5e947cddfaae93",
    "FFT 16 training f61d149cb4ec1ff9",
    "FFT 16 classifier IPAS 3e8fcd001f3cdac6",
    "FFT 16 classifier Baseline dc1049a1ac5e7757",
    "FFT 16 eval unprotected e91356242bc0a6f3",
    "FFT 16 protect full 2dac8243e505db6a",
    "FFT 16 eval full d9a6595b1c7bbdbe",
    "FFT 16 protect IPAS#1 b6f3089d16fb1dd5",
    "FFT 16 eval IPAS#1 3f0e766f45ab7749",
    "FFT 16 protect Baseline#1 fc8a0649ca147192",
    "FFT 16 eval Baseline#1 eae94065397342f8",
    "IS 1024 program d0306d8b1ddca51b",
    "IS 1024 campaign 572a6713e22f3bd0",
    "IS 1024 training 69ce7d53bf4d14bd",
    "IS 1024 classifier IPAS 7a5f65a889307928",
    "IS 1024 classifier Baseline 4fb19953b0d374fa",
    "IS 1024 eval unprotected 2dccea6c840cd526",
    "IS 1024 protect full d06e30a19960e023",
    "IS 1024 eval full 17ccc71e53c5aa98",
    "IS 1024 protect IPAS#1 440ecf61a46d15cc",
    "IS 1024 eval IPAS#1 5691107dfbbc046c",
    "IS 1024 protect Baseline#1 d26632b1b836c103",
    "IS 1024 eval Baseline#1 86524018e019fc77",
    "IS 2048 program 1058dca943060549",
    "IS 2048 campaign dadf1623e0dd7dd3",
    "IS 2048 training 1ced709a13794290",
    "IS 2048 classifier IPAS 6e6f6e21b6958d58",
    "IS 2048 classifier Baseline f12a8b8dc7911aad",
    "IS 2048 eval unprotected cf6855a331896b4b",
    "IS 2048 protect full d06e30a19960e023",
    "IS 2048 eval full fabf294a4498b960",
    "IS 2048 protect IPAS#1 49571bd6a69d43b0",
    "IS 2048 eval IPAS#1 92c11b859d6c84a3",
    "IS 2048 protect Baseline#1 8eb70a1d79f47ef4",
    "IS 2048 eval Baseline#1 e4c493f2d85d72d3",
    "object campaign-summary 17ccc71e53c5aa98 1540fa3084cedf5a",
    "object campaign-summary 2dccea6c840cd526 018b7e298049c5b9",
    "object campaign-summary 3f0e766f45ab7749 e123e5008f1eab55",
    "object campaign-summary 486352c2ccffa707 ca4fb68ba342fb4d",
    "object campaign-summary 5691107dfbbc046c d04ad55c3cb94e63",
    "object campaign-summary 67312f7a90289120 1ad7f66a3f5f3c78",
    "object campaign-summary 6c4cda0eddffb08f 5e04bbe44138abb2",
    "object campaign-summary 86524018e019fc77 e493d7e449d854e8",
    "object campaign-summary 92c11b859d6c84a3 8deabe47b51f735c",
    "object campaign-summary a281ffb344812b21 61e84fe45cb98e93",
    "object campaign-summary ce32505818586c6d 977820129e6cc469",
    "object campaign-summary cf6855a331896b4b 6d9dfb3de5955de5",
    "object campaign-summary d9a6595b1c7bbdbe cbc3b1260c59e908",
    "object campaign-summary e05a8852a4f098ed b3f3148943cecba5",
    "object campaign-summary e4c493f2d85d72d3 77b8591753dfeb1e",
    "object campaign-summary e91356242bc0a6f3 11f6db83738db303",
    "object campaign-summary e9a7f1d8650ca6c2 e70dd0325356ab45",
    "object campaign-summary eae94065397342f8 b528bbae40266d1f",
    "object campaign-summary efb3238a8406d12c 95c30e0e6a7eb9ab",
    "object campaign-summary fabf294a4498b960 4063d5eabac7ebe6",
    "object protected-module 08712a72cc0fb516 2e518d848caaf85e",
    "object protected-module 2dac8243e505db6a b421c4bfe02a4c07",
    "object protected-module 440ecf61a46d15cc 2400f427198698c8",
    "object protected-module 49571bd6a69d43b0 2400f427198698c8",
    "object protected-module 6207b8d8b4a55737 b38caf719c0f13c2",
    "object protected-module 70cf6373822655d3 16a0545d23c08a76",
    "object protected-module 8eb70a1d79f47ef4 1b6aa47a2c05a5c3",
    "object protected-module b6f3089d16fb1dd5 e5fb76bcb58e077d",
    "object protected-module b79cae938ec164c9 8b980630c3a0b60a",
    "object protected-module bec41eb73177cf5e 8ce91250fbe5148a",
    "object protected-module d06e30a19960e023 17ffe88b7180e14b",
    "object protected-module d26632b1b836c103 12844eadc9ac9b13",
    "object protected-module fba5eb0dffd6e7a6 d7384e660e6bde6c",
    "object protected-module fc8a0649ca147192 9797600381839b56",
    "object trained-model 3e8fcd001f3cdac6 be95212e6d908cac",
    "object trained-model 41a56e01a3d6ee40 cfb986b5669c7560",
    "object trained-model 4fb19953b0d374fa eb9b8ee8a5d46acf",
    "object trained-model 6e6f6e21b6958d58 4b49157b21086cb1",
    "object trained-model 7a5f65a889307928 15181d1aba1d242e",
    "object trained-model 8ceffc7eef6eeeab c7b626d01b2a4b2c",
    "object trained-model c411c7588fab283d da11f76af126062b",
    "object trained-model dc1049a1ac5e7757 d4fc12d35ed320ba",
    "object trained-model e3eb0ee21380910e 5865f69675f7488e",
    "object trained-model f12a8b8dc7911aad 476cc37f1cd67289",
    "object training-set 1ced709a13794290 8890a029191183c0",
    "object training-set 5f68887508cce00b b9b89397a8e67664",
    "object training-set 69ce7d53bf4d14bd 366628cbd2fda026",
    "object training-set a065e53d7a34a2e9 6b1d06b639bcb10e",
    "object training-set f61d149cb4ec1ff9 7ea2939e9334139a",
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

/// Runs the protect request for `(kind, input)` at `seed` against
/// `store`, appending one line per stage key to `lines`.
fn protect(store: &Store, kind: Kind, input: i64, seed: u64, lines: &mut Vec<String>) {
    let grid = GridOptions {
        num_c: 2,
        num_gamma: 2,
        folds: 2,
        ..GridOptions::default()
    };
    let store = Some(store);
    let workload = kind.build(input).expect("workload builds");
    let tag = format!("{} {input}", kind.name());
    let training = CampaignConfig {
        runs: 200,
        seed,
        threads: 1,
        ..CampaignConfig::default()
    };
    let eval = CampaignConfig {
        runs: 16,
        seed: seed ^ 0x00C0_FFEE,
        ..training
    };

    let program = with_run_identity(&module_fingerprint(&workload.module), &workload);
    lines.push(format!("{tag} program {}", program.short()));
    let campaign = summary_key(&workload, &training);
    lines.push(format!("{tag} campaign {}", &campaign.as_str()[..16]));

    let (set, campaign_fp, _) =
        training_stage(store, &workload, &training, None).expect("training stage");
    lines.push(format!("{tag} training {}", campaign_fp.short()));

    let mut policies = vec![("full".to_string(), ProtectionPolicy::FullDuplication, None)];
    for (label, prefix) in [
        (LabelKind::SocGenerating, "IPAS"),
        (LabelKind::SymptomGenerating, "Baseline"),
    ] {
        let data = dataset_from_artifact(&set, label);
        let (mut models, fp, _) =
            classifier_stage(store, &data, &campaign_fp, label, &grid, 1).expect("classifier");
        lines.push(format!("{tag} classifier {prefix} {}", fp.short()));
        policies.push((
            format!("{prefix}#1"),
            ProtectionPolicy::trained(label, models.remove(0)),
            Some(Key::ranked(&fp, 0)),
        ));
    }

    let (_, fp, _) = evaluation_stage(
        store,
        &workload,
        &workload.module,
        "unprotected",
        &eval,
        None,
    )
    .expect("evaluation stage");
    lines.push(format!("{tag} eval unprotected {}", fp.short()));
    for (name, policy, model_key) in &policies {
        let fp = protect_fingerprint(
            &workload.module,
            policy.label(),
            model_key.as_ref(),
            &policy.pipeline_text(),
        );
        lines.push(format!("{tag} protect {name} {}", fp.short()));
        let (module, _, _) = memoized_protect(store, &workload.module, policy, model_key.as_ref())
            .expect("protect stage");
        let (_, fp, _) = evaluation_stage(store, &workload, &module, name, &eval, None)
            .expect("evaluation stage");
        lines.push(format!("{tag} eval {name} {}", fp.short()));
    }
}

fn actual() -> Vec<String> {
    let dir = std::env::temp_dir().join(format!("ipas-store-keys-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::open(&dir).expect("store opens");
    let mut lines = Vec::new();
    for (index, (kind, input)) in request_types().into_iter().enumerate() {
        protect(&store, kind, input, 2016 + index as u64, &mut lines);
    }
    // The warm replay must hit under the very same keys.
    let stored = store.list().expect("store lists").len();
    let mut warm = Vec::new();
    for (index, (kind, input)) in request_types().into_iter().enumerate() {
        protect(&store, kind, input, 2016 + index as u64, &mut warm);
    }
    assert_eq!(warm, lines, "warm replay derived other keys");
    assert_eq!(store.list().expect("store lists").len(), stored);
    for entry in store.list().expect("store lists") {
        let bytes = std::fs::read(store.object_path(entry.kind, &entry.key)).expect("object reads");
        lines.push(format!(
            "object {} {} {}",
            entry.kind.tag(),
            &entry.key.as_str()[..16],
            &hex(&sha256(&bytes))[..16]
        ));
    }
    let _ = std::fs::remove_dir_all(&dir);
    lines
}

#[test]
fn store_keys_and_artifacts_match_golden() {
    let actual = actual();
    let expected: Vec<String> = EXPECTED.iter().map(|s| s.to_string()).collect();
    assert_eq!(
        actual,
        expected,
        "store keys or artifacts drifted from the golden values; actual:\n{}",
        actual
            .iter()
            .map(|l| format!("    \"{l}\","))
            .collect::<Vec<_>>()
            .join("\n")
    );
}
