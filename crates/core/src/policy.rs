//! Protection policies: which instructions get duplicated.

use ipas_analysis::features::FeatureExtractor;
use ipas_ir::passmgr::PassManager;
use ipas_ir::Module;

use crate::classifier::TrainedClassifier;
use crate::duplication::{
    protect_module_placed, CheckPlacement, DuplicationPass, DuplicationStats,
};
use crate::training::LabelKind;

/// A rule mapping a module to its protected variant.
#[derive(Debug, Clone)]
pub enum ProtectionPolicy {
    /// No protection (the first bar of Figure 5).
    Unprotected,
    /// SWIFT-style full duplication of every duplicable instruction
    /// (the second bar of Figure 5).
    FullDuplication,
    /// IPAS: duplicate instructions the classifier predicts as
    /// SOC-generating (class 1).
    Ipas(TrainedClassifier),
    /// Shoestring-style baseline: the classifier is trained on
    /// symptom labels, and instructions predicted *non*-symptom-
    /// generating are duplicated (§5.3).
    Baseline(TrainedClassifier),
}

impl ProtectionPolicy {
    /// The classifier-driven policy for a model trained on `label`:
    /// [`ProtectionPolicy::Ipas`] for SOC labels,
    /// [`ProtectionPolicy::Baseline`] for symptom labels.
    pub fn trained(label: LabelKind, model: TrainedClassifier) -> Self {
        match label {
            LabelKind::SocGenerating => ProtectionPolicy::Ipas(model),
            LabelKind::SymptomGenerating => ProtectionPolicy::Baseline(model),
        }
    }

    /// Short label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            ProtectionPolicy::Unprotected => "unprotected",
            ProtectionPolicy::FullDuplication => "full",
            ProtectionPolicy::Ipas(_) => "IPAS",
            ProtectionPolicy::Baseline(_) => "baseline",
        }
    }

    /// Builds the protection pipeline for this policy: an empty
    /// function pipeline plus the [`DuplicationPass`] module pass. The
    /// manager's [`PassManager::describe`] text (`"+duplicate"`) is
    /// what [`ProtectionPolicy::pipeline_text`] feeds into store memo
    /// keys.
    pub fn manager(&self) -> PassManager {
        let mut pm = PassManager::empty();
        pm.add_module_pass(Box::new(DuplicationPass::new(self.clone())));
        pm
    }

    /// Canonical text of the protection pipeline this policy runs
    /// (`"+duplicate"`). Fingerprinted into memoized protected modules
    /// so a change to the pipeline shape invalidates stale artifacts.
    pub fn pipeline_text(&self) -> String {
        self.manager().describe()
    }

    /// Applies the policy to `module` through the pass manager,
    /// returning the protected module and the duplication statistics
    /// recovered from the manager's per-pass counters.
    pub fn apply(&self, module: &Module) -> (Module, DuplicationStats) {
        let mut pm = self.manager();
        let mut out = module.clone();
        pm.run_module(&mut out)
            .expect("protection pipeline without verify-each cannot fail");
        let stats = pm
            .stats()
            .pass("duplicate")
            .map(|s| DuplicationStats {
                considered: s.counter("considered") as usize,
                duplicated: s.counter("duplicated") as usize,
                checks: s.counter("checks") as usize,
            })
            .unwrap_or_default();
        (out, stats)
    }

    /// The policy's instruction selector applied through
    /// [`protect_module_placed`] — the raw transform behind
    /// [`DuplicationPass`] and [`ProtectionPolicy::apply`].
    pub(crate) fn select_and_protect(
        &self,
        module: &Module,
        placement: CheckPlacement,
    ) -> (Module, DuplicationStats) {
        match self {
            ProtectionPolicy::Unprotected => {
                // Identity transform; the pass still counts duplicable
                // instructions so reports stay consistent.
                protect_module_placed(module, &mut |_, _, _| false, placement)
            }
            ProtectionPolicy::FullDuplication => {
                protect_module_placed(module, &mut |_, _, _| true, placement)
            }
            ProtectionPolicy::Ipas(model) => {
                let extractor = FeatureExtractor::new(module);
                protect_module_placed(
                    module,
                    &mut |fid, iid, _| model.predict_features(&extractor.extract(fid, iid)),
                    placement,
                )
            }
            ProtectionPolicy::Baseline(model) => {
                let extractor = FeatureExtractor::new(module);
                protect_module_placed(
                    module,
                    &mut |fid, iid, _| {
                        // Protect what is NOT predicted symptom-generating.
                        !model.predict_features(&extractor.extract(fid, iid))
                    },
                    placement,
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unprotected_policy_is_identity_with_stats() {
        let module =
            ipas_lang::compile("fn main() -> int { let x: int = mpi_rank(); return x * 3 + 1; }")
                .unwrap();
        let (out, stats) = ProtectionPolicy::Unprotected.apply(&module);
        assert_eq!(out.num_static_insts(), module.num_static_insts());
        assert!(stats.considered > 0);
        assert_eq!(stats.duplicated, 0);
    }

    #[test]
    fn full_policy_duplicates_everything() {
        let module =
            ipas_lang::compile("fn main() -> int { let x: int = mpi_rank(); return x * 3 + 1; }")
                .unwrap();
        let (_, stats) = ProtectionPolicy::FullDuplication.apply(&module);
        assert_eq!(stats.duplicated, stats.considered);
    }

    #[test]
    fn labels() {
        assert_eq!(ProtectionPolicy::Unprotected.label(), "unprotected");
        assert_eq!(ProtectionPolicy::FullDuplication.label(), "full");
    }

    #[test]
    fn pipeline_text_names_the_module_pass() {
        assert_eq!(ProtectionPolicy::Unprotected.pipeline_text(), "+duplicate");
        assert_eq!(
            ProtectionPolicy::FullDuplication.pipeline_text(),
            "+duplicate"
        );
    }

    #[test]
    fn apply_never_returns_a_stale_text_memo() {
        let module = ipas_lang::compile(
            "fn main() -> int { let x: int = mpi_rank(); return (x + 1) * (x + 2); }",
        )
        .unwrap();
        // Print first, so the source's memo is filled before every apply.
        let source = module.text().to_string();
        for policy in [
            ProtectionPolicy::Unprotected,
            ProtectionPolicy::FullDuplication,
        ] {
            let (out, _) = policy.apply(&module);
            let fresh = ipas_ir::printer::print_module(&out);
            assert_eq!(out.text(), fresh, "{}", policy.label());
            assert_eq!(out.clone().text(), fresh, "{}", policy.label());
            assert_eq!(module.text(), source, "{}", policy.label());
        }
        let (full, _) = ProtectionPolicy::FullDuplication.apply(&module);
        assert_ne!(full.text(), source, "full duplication must change the text");
    }

    #[test]
    fn apply_matches_the_raw_transform() {
        let module = ipas_lang::compile(
            "fn main() -> int { let x: int = mpi_rank(); return (x + 1) * (x + 2); }",
        )
        .unwrap();
        for policy in [
            ProtectionPolicy::Unprotected,
            ProtectionPolicy::FullDuplication,
        ] {
            let (via_manager, stats) = policy.apply(&module);
            let (raw, raw_stats) = policy.select_and_protect(&module, CheckPlacement::default());
            assert_eq!(via_manager.to_text(), raw.to_text(), "{}", policy.label());
            assert_eq!(stats, raw_stats, "{}", policy.label());
        }
    }
}
