//! The benchmark's staged protect request is the §6 protocol: on IS at
//! `ExperimentOptions::quick()` it reproduces `run_experiment`'s
//! variants bit for bit, so the per-layer timings it records time the
//! real workflow. A second request against the same store is the warm
//! path: same results, no injections, no fits.

use ipas_bench_e2e::protocol::{protect, ProtectScale};
use ipas_bench_e2e::trace::Ctx;
use ipas_core::{run_experiment, ExperimentOptions};
use ipas_faultsim::Outcome;
use ipas_store::Store;
use ipas_workloads::Kind;

/// The store directory, removed even when an assertion fails.
struct StoreDir(std::path::PathBuf);

impl Drop for StoreDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn staged_request_matches_run_experiment() {
    let opts = ExperimentOptions {
        threads: 2,
        ..ExperimentOptions::quick()
    };
    let kind = Kind::Is;
    let workload = kind.build(kind.base_input()).expect("IS builds");
    let expected = run_experiment(&workload, &opts).expect("experiment succeeds");

    let dir = StoreDir(
        std::env::temp_dir().join(format!("ipas-bench-e2e-protocol-{}", std::process::id())),
    );
    let _ = std::fs::remove_dir_all(&dir.0);
    let store = Store::open(&dir.0).expect("store opens");
    let scale = ProtectScale {
        training_runs: opts.training_runs,
        eval_runs: opts.eval_runs,
        top_n: opts.top_n,
        grid: opts.grid,
        threads: opts.threads,
    };
    let cold = protect(
        &store,
        kind,
        kind.base_input(),
        opts.seed,
        &scale,
        Ctx::disabled(),
    )
    .expect("staged request succeeds");

    let reference: Vec<_> = [&expected.unprotected, &expected.full]
        .into_iter()
        .chain(&expected.ipas)
        .chain(&expected.baseline)
        .collect();
    assert_eq!(cold.variants.len(), reference.len());
    for (got, want) in cold.variants.iter().zip(&reference) {
        assert_eq!(got.name, want.name);
        assert_eq!(got.stats, want.stats, "{}", want.name);
        assert_eq!(
            got.summary.counts,
            Outcome::ALL.map(|o| want.campaign.count(o) as u64),
            "{}",
            want.name
        );
        assert_eq!(
            got.soc_pct.to_bits(),
            want.soc_pct.to_bits(),
            "{}",
            want.name
        );
        assert_eq!(
            got.soc_reduction_pct.to_bits(),
            want.soc_reduction_pct.to_bits(),
            "{}",
            want.name
        );
        assert_eq!(
            got.slowdown.to_bits(),
            want.slowdown.to_bits(),
            "{}",
            want.name
        );
    }
    assert_eq!(cold.best_ipas, expected.best_ipas());
    assert_eq!(cold.best_baseline, expected.best_baseline());
    assert!(cold.work.runs_executed > 0 && cold.work.fits > 0);

    let warm = protect(
        &store,
        kind,
        kind.base_input(),
        opts.seed,
        &scale,
        Ctx::disabled(),
    )
    .expect("warm request succeeds");
    assert_eq!(warm.variants, cold.variants);
    assert_eq!(warm.best_configs, cold.best_configs);
    assert_eq!(warm.work.runs_executed, 0);
    assert_eq!(warm.work.fits, 0);
    assert_eq!(warm.work.store_misses, 0);
}
