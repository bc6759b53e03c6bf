//! Round-granular campaign execution for adaptive (active-learning)
//! campaigns.
//!
//! An adaptive campaign does not pre-draw its whole plan list: it draws
//! one *round* at a time, because the distribution of round `k+1`
//! depends on the labels of rounds `0..=k` (the margin-weighted site
//! distribution of `ipas-core`'s adaptive driver). This module supplies
//! the draws that stay below the training loop:
//! [`draw_uniform_site_plans`] / [`draw_weighted_site_plans`] draw one
//! round's plans from an *externally owned* RNG, so every draw of the
//! campaign still flows from the single seeded plan RNG and the whole
//! campaign stays a pure function of `(workload, config, params)`. Each
//! round then runs on the [`crate::CampaignRuntime`], appended at the
//! next *global* plan indices, tagged with its round id, and committed
//! in one plan-ordered write at the round barrier.
//!
//! Determinism contract: the weighted draw rejects degenerate weights
//! *before* consuming any randomness ([`UniformFallback`]), so the
//! caller's uniform fallback draws from the identical RNG state — a
//! resumed campaign that recomputes the same weights takes the same
//! branch and draws the same plans.

use std::fmt;

use rand::Rng;

use crate::{FaultModel, Injection, SiteCount};

/// Why an adaptive round degraded to uniform site sampling instead of
/// the margin-weighted distribution. Falling back is not an error — a
/// uniform round is always sound — but the reason is surfaced so round
/// summaries can report it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UniformFallback {
    /// The labels collected so far are all one class, so no classifier
    /// can be trained (the all-benign early-round case).
    SingleClassLabels,
    /// The quick grid search produced no usable model.
    NoModel,
    /// The margin weights were degenerate: non-finite, negative, or
    /// summing to zero.
    DegenerateWeights,
}

impl UniformFallback {
    /// Short label for round summaries.
    pub fn label(self) -> &'static str {
        match self {
            UniformFallback::SingleClassLabels => "single-class labels",
            UniformFallback::NoModel => "no model",
            UniformFallback::DegenerateWeights => "degenerate weights",
        }
    }
}

impl fmt::Display for UniformFallback {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Draws one round of plans uniformly over the profiled static sites —
/// the same per-plan draw shape as [`crate::draw_plans`] under
/// [`crate::SamplingMode::StaticUniform`] (site, dynamic instance, bit),
/// but from a caller-owned RNG so rounds chain off one seeded stream.
pub fn draw_uniform_site_plans(
    profile: &[SiteCount],
    model: FaultModel,
    count: usize,
    rng: &mut impl Rng,
) -> Vec<Injection> {
    let domain = model.bit_domain();
    (0..count)
        .map(|_| {
            let (site, executions) = profile[rng.gen_range(0..profile.len())];
            Injection {
                target: rng.gen_range(0..executions),
                bit: rng.gen_range(0..domain),
                site: Some(site),
                model,
            }
        })
        .collect()
}

/// Draws one round of plans with per-site probability proportional to
/// `weights` (parallel to `profile`), then uniform over the chosen
/// site's dynamic instances and the model's bit domain.
///
/// # Errors
///
/// [`UniformFallback::DegenerateWeights`] when the weights cannot form
/// a distribution (wrong length, non-finite or negative entries, zero
/// sum). The check runs *before any RNG draw*, so on `Err` the RNG
/// state is untouched and the caller's uniform fallback is
/// deterministic.
pub fn draw_weighted_site_plans(
    profile: &[SiteCount],
    weights: &[f64],
    model: FaultModel,
    count: usize,
    rng: &mut impl Rng,
) -> Result<Vec<Injection>, UniformFallback> {
    if weights.len() != profile.len() || weights.is_empty() {
        return Err(UniformFallback::DegenerateWeights);
    }
    if weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
        return Err(UniformFallback::DegenerateWeights);
    }
    let total: f64 = weights.iter().sum();
    if !total.is_finite() || total <= 0.0 {
        return Err(UniformFallback::DegenerateWeights);
    }
    let domain = model.bit_domain();
    Ok((0..count)
        .map(|_| {
            // Inverse-CDF by cumulative scan: one f64 draw per plan,
            // deterministic for a given RNG state.
            let mut point = rng.gen_range(0.0..total);
            let mut chosen = profile.len() - 1;
            for (i, w) in weights.iter().enumerate() {
                if point < *w {
                    chosen = i;
                    break;
                }
                point -= *w;
            }
            let (site, executions) = profile[chosen];
            Injection {
                target: rng.gen_range(0..executions),
                bit: rng.gen_range(0..domain),
                site: Some(site),
                model,
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{profile_sites, GoldenToleranceVerifier, Workload};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const SRC: &str = "fn main() -> int {
        let s: int = 0;
        for (let i: int = 0; i < 24; i = i + 1) { s = s + i * i; }
        output_i(s);
        return 0;
    }";

    fn workload() -> Workload {
        let module = ipas_lang::compile(SRC).expect("compiles");
        Workload::serial("rounds", module, GoldenToleranceVerifier::EXACT).expect("prepares")
    }

    #[test]
    fn degenerate_weights_fail_before_consuming_randomness() {
        let w = workload();
        let profile = profile_sites(&w).expect("profile");
        let model = FaultModel::SingleBit;
        for bad in [
            vec![0.0; profile.len()],
            vec![f64::NAN; profile.len()],
            vec![-1.0; profile.len()],
            vec![],
        ] {
            let mut rng = StdRng::seed_from_u64(9);
            let err = draw_weighted_site_plans(&profile, &bad, model, 8, &mut rng)
                .expect_err("degenerate");
            assert_eq!(err, UniformFallback::DegenerateWeights);
            // The RNG was untouched: a uniform draw from it matches a
            // uniform draw from a fresh RNG with the same seed.
            let fallback = draw_uniform_site_plans(&profile, model, 8, &mut rng);
            let mut fresh = StdRng::seed_from_u64(9);
            let direct = draw_uniform_site_plans(&profile, model, 8, &mut fresh);
            assert_eq!(fallback, direct);
        }
    }

    #[test]
    fn weighted_draw_concentrates_on_heavy_sites() {
        let w = workload();
        let profile = profile_sites(&w).expect("profile");
        assert!(profile.len() >= 2, "need several sites");
        let mut weights = vec![0.0; profile.len()];
        weights[1] = 3.5;
        let mut rng = StdRng::seed_from_u64(3);
        let plans =
            draw_weighted_site_plans(&profile, &weights, FaultModel::SingleBit, 32, &mut rng)
                .expect("valid weights");
        assert_eq!(plans.len(), 32);
        for plan in &plans {
            assert_eq!(plan.site, Some(profile[1].0), "all mass on site 1");
            assert!(plan.target < profile[1].1);
        }
    }
}
