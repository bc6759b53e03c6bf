//! C-SVM with RBF kernel, trained by sequential minimal optimization.
//!
//! This is the reproduction's stand-in for LIBSVM's C-SVC (Chang & Lin,
//! cited by the paper): a soft-margin SVM solved by Platt's SMO with an
//! error cache, a second-choice heuristic, and per-class penalty weights
//! `C⁺ = w·C`, `C⁻ = C` so that the rare SOC class is not drowned out by
//! the majority class.
//!
//! # Duplicate-aware SMO
//!
//! An IPAS training row is the injected instruction's static features,
//! so rows repeat: a 200-run training set holds a few dozen distinct
//! rows. The solver exploits this without changing a single bit of the
//! trained model:
//!
//! * Rows are grouped bit for bit ([`f64::to_bits`]; `0.0` and `-0.0`
//!   stay apart) and groups are numbered by first occurrence. The kernel
//!   is evaluated once per group pair, `d × d` instead of `n × n`; IEEE
//!   subtraction is antisymmetric, so every entry equals the per-sample
//!   one.
//! * Samples with the same group and label always hold bit-identical
//!   errors. The error cache, its update (`e + ((d1·k1 + d2·k2) + db)`,
//!   today's evaluation order) and the second-choice scan run over these
//!   error classes, at most `2d` of them. The scan returns the first
//!   class, in first-sample order, with the largest gap, which is the
//!   first sample a per-sample scan would return.
//! * The alphas, the KKT sweep order, the fallback loop and the step
//!   budget `50·n` stay per sample, and the model keeps one support
//!   vector per sample, so the decision sum rounds as before.

use std::collections::HashMap;

use crate::dataset::Dataset;
use crate::Classifier;

/// Hyperparameters of the C-SVM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SvmParams {
    /// Soft-margin penalty `C` (paper range: 1 to 100,000).
    pub c: f64,
    /// RBF kernel coefficient `γ` (paper range: 0.00001 to 1).
    pub gamma: f64,
    /// Multiplier applied to `C` for positive samples (class-imbalance
    /// handling); 1.0 disables weighting.
    pub pos_weight: f64,
    /// KKT violation tolerance.
    pub tol: f64,
    /// Maximum sweeps over the data without progress before stopping.
    pub max_passes: usize,
}

impl SvmParams {
    /// Creates parameters with defaults (`pos_weight` 1, `tol` 1e-3).
    pub fn new(c: f64, gamma: f64) -> Self {
        SvmParams {
            c,
            gamma,
            pos_weight: 1.0,
            tol: 1e-3,
            max_passes: 8,
        }
    }

    /// Returns a copy with `pos_weight` set to the inverse class ratio of
    /// `data` (`n_neg / n_pos`), the standard balanced weighting.
    pub fn balanced_for(mut self, data: &Dataset) -> Self {
        let pos = data.num_positive().max(1) as f64;
        let neg = (data.len() - data.num_positive()).max(1) as f64;
        self.pos_weight = neg / pos;
        self
    }
}

/// A trained SVM model.
#[derive(Debug, Clone)]
pub struct Svm {
    support_x: Vec<Vec<f64>>,
    /// `alpha_i * y_i` per support vector.
    coef: Vec<f64>,
    bias: f64,
    gamma: f64,
}

/// Squared Euclidean distance, summed in feature order. The grid
/// search's precomputed distances call this too, so its kernels and test
/// predictions round exactly like [`Svm::decision_function`].
pub(crate) fn dist2(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// The RBF kernel value for a squared distance.
pub(crate) fn rbf_of(gamma: f64, d2: f64) -> f64 {
    (-gamma * d2).exp()
}

fn rbf(gamma: f64, a: &[f64], b: &[f64]) -> f64 {
    rbf_of(gamma, dist2(a, b))
}

/// The distinct feature rows of a dataset: samples whose rows are equal
/// bit for bit share a group, numbered by first occurrence.
///
/// Rows holding a non-finite value never merge: `x - x` is not zero for
/// them, so two copies would not have equal kernel rows.
#[derive(Debug)]
pub(crate) struct Groups {
    /// The group of each sample.
    of: Vec<usize>,
    /// The first sample of each group, which represents it.
    first: Vec<usize>,
}

impl Groups {
    pub(crate) fn new(rows: &[Vec<f64>]) -> Self {
        let mut index: HashMap<Vec<u64>, usize> = HashMap::new();
        let mut first = Vec::new();
        let of = rows
            .iter()
            .enumerate()
            .map(|(i, row)| {
                let mut fresh = || {
                    first.push(i);
                    first.len() - 1
                };
                if row.iter().all(|v| v.is_finite()) {
                    let key = row.iter().map(|v| v.to_bits()).collect();
                    *index.entry(key).or_insert_with(fresh)
                } else {
                    fresh()
                }
            })
            .collect();
        Groups { of, first }
    }

    /// Number of groups (distinct rows).
    pub(crate) fn len(&self) -> usize {
        self.first.len()
    }

    /// The group of sample `i`.
    pub(crate) fn of(&self, i: usize) -> usize {
        self.of[i]
    }

    /// The representative row of each group, in group order.
    pub(crate) fn rows<'a>(&'a self, rows: &'a [Vec<f64>]) -> impl Iterator<Item = &'a [f64]> + 'a {
        self.first.iter().map(move |&i| rows[i].as_slice())
    }

    /// The symmetric `len() × len()` matrix of `f(a, b)` over
    /// representative rows, evaluated once per pair with `a` before `b`
    /// (first-occurrence order, as a per-sample loop over `i < j` would),
    /// and `diag(a)` on the diagonal.
    pub(crate) fn pairwise(
        &self,
        rows: &[Vec<f64>],
        diag: impl Fn(&[f64]) -> f64,
        f: impl Fn(&[f64], &[f64]) -> f64,
    ) -> Vec<f64> {
        let d = self.len();
        let reps: Vec<&[f64]> = self.rows(rows).collect();
        let mut out = vec![0.0f64; d * d];
        for a in 0..d {
            out[a * d + a] = diag(reps[a]);
            for b in (a + 1)..d {
                let v = f(reps[a], reps[b]);
                out[a * d + b] = v;
                out[b * d + a] = v;
            }
        }
        out
    }
}

/// A solved SMO dual: the support samples (indices into the training
/// set, ascending), their coefficients `alpha_i * y_i`, and the bias.
#[derive(Debug)]
pub(crate) struct Dual {
    support: Vec<usize>,
    coef: Vec<f64>,
    bias: f64,
}

impl Dual {
    /// The trained model's [`Svm::decision_function`] at a point whose
    /// kernel value against each group's row is `k[group]`: the same
    /// terms, summed in the same (support sample) order.
    pub(crate) fn decision(&self, groups: &Groups, k: &[f64]) -> f64 {
        let mut sum = self.bias;
        for (&i, c) in self.support.iter().zip(&self.coef) {
            sum += c * k[groups.of(i)];
        }
        sum
    }
}

impl Svm {
    /// Trains on `data` with the given parameters.
    ///
    /// # Panics
    ///
    /// Panics if `data` contains only one class (the campaign driver
    /// guarantees both classes are present).
    pub fn train(data: &Dataset, params: &SvmParams) -> Self {
        let x = data.features();
        let groups = Groups::new(x);
        let kernel = groups.pairwise(
            x,
            |a| rbf(params.gamma, a, a),
            |a, b| rbf(params.gamma, a, b),
        );
        let dual = Self::train_prepared(data, params, &groups, &kernel);
        Svm {
            support_x: dual.support.iter().map(|&i| x[i].clone()).collect(),
            coef: dual.coef,
            bias: dual.bias,
            gamma: params.gamma,
        }
    }

    /// Solves the dual with a caller-provided kernel over the groups of
    /// `data` (row-major `groups.len()²`). The grid search shares one
    /// kernel across every `C` of a (γ, fold).
    ///
    /// SMO state stays per sample (alphas, the KKT sweep, the fallback
    /// loop and the step budget), but samples with the same group and
    /// label always hold bit-identical errors, so the error cache, its
    /// update and the second-choice scan run over these error classes.
    ///
    /// # Panics
    ///
    /// Panics if the matrix size does not match or the labels are
    /// single-class.
    pub(crate) fn train_prepared(
        data: &Dataset,
        params: &SvmParams,
        groups: &Groups,
        kernel: &[f64],
    ) -> Dual {
        let n = data.len();
        let d = groups.len();
        assert_eq!(kernel.len(), d * d, "kernel matrix size mismatch");
        let y: Vec<f64> = data
            .labels()
            .iter()
            .map(|&b| if b { 1.0 } else { -1.0 })
            .collect();
        assert!(
            data.num_positive() > 0 && data.num_positive() < n,
            "training data must contain both classes"
        );
        let c_of = |i: usize| {
            if y[i] > 0.0 {
                params.c * params.pos_weight
            } else {
                params.c
            }
        };

        // Error classes: (group, label) pairs, numbered by first sample.
        let mut class_id = vec![usize::MAX; 2 * d];
        let mut class_first = Vec::new();
        let class_of: Vec<usize> = (0..n)
            .map(|i| {
                let slot = &mut class_id[2 * groups.of(i) + usize::from(data.labels()[i])];
                if *slot == usize::MAX {
                    *slot = class_first.len();
                    class_first.push(i);
                }
                *slot
            })
            .collect();
        let m = class_first.len();
        // The kernel laid out by class: row `g` holds K(g, group of c).
        let mut kc = vec![0.0f64; d * m];
        for g in 0..d {
            for (c, &i) in class_first.iter().enumerate() {
                kc[g * m + c] = kernel[g * d + groups.of(i)];
            }
        }

        let mut alpha = vec![0.0f64; n];
        let mut b = 0.0f64;
        // Error cache: E = f(x) - y per class; with all alphas 0, f = b = 0.
        let mut err: Vec<f64> = class_first.iter().map(|&i| -y[i]).collect();

        let k = |i: usize, j: usize| kernel[groups.of(i) * d + groups.of(j)];
        let tol = params.tol;
        let eps = 1e-12;

        let take_step =
            |alpha: &mut Vec<f64>, err: &mut Vec<f64>, b: &mut f64, i1: usize, i2: usize| -> bool {
                if i1 == i2 {
                    return false;
                }
                let (a1, a2) = (alpha[i1], alpha[i2]);
                let (y1, y2) = (y[i1], y[i2]);
                let (e1, e2) = (err[class_of[i1]], err[class_of[i2]]);
                let s = y1 * y2;
                let (c1, c2) = (c_of(i1), c_of(i2));
                let (low, high) = if s < 0.0 {
                    ((a2 - a1).max(0.0), (c2.min(c1 + a2 - a1)))
                } else {
                    ((a1 + a2 - c1).max(0.0), c2.min(a1 + a2))
                };
                if high - low < eps {
                    return false;
                }
                let eta = k(i1, i1) + k(i2, i2) - 2.0 * k(i1, i2);
                let a2_new = if eta > eps {
                    (a2 + y2 * (e1 - e2) / eta).clamp(low, high)
                } else {
                    // Degenerate kernel direction: pick the better bound.
                    let lobj = y2 * (e1 - e2) * low;
                    let hobj = y2 * (e1 - e2) * high;
                    if lobj > hobj + eps {
                        low
                    } else if hobj > lobj + eps {
                        high
                    } else {
                        return false;
                    }
                };
                if (a2_new - a2).abs() < eps * (a2_new + a2 + eps) {
                    return false;
                }
                let a1_new = a1 + s * (a2 - a2_new);

                // Bias update (Platt's b1/b2 rule).
                let b1 = *b - e1 - y1 * (a1_new - a1) * k(i1, i1) - y2 * (a2_new - a2) * k(i1, i2);
                let b2 = *b - e2 - y1 * (a1_new - a1) * k(i1, i2) - y2 * (a2_new - a2) * k(i2, i2);
                let b_new = if a1_new > eps && a1_new < c1 - eps {
                    b1
                } else if a2_new > eps && a2_new < c2 - eps {
                    b2
                } else {
                    (b1 + b2) / 2.0
                };

                // Update the error cache for every class.
                let d1 = y1 * (a1_new - a1);
                let d2 = y2 * (a2_new - a2);
                let db = b_new - *b;
                let row1 = &kc[groups.of(i1) * m..][..m];
                let row2 = &kc[groups.of(i2) * m..][..m];
                for ((e, k1), k2) in err.iter_mut().zip(row1).zip(row2) {
                    *e += d1 * k1 + d2 * k2 + db;
                }
                alpha[i1] = a1_new;
                alpha[i2] = a2_new;
                *b = b_new;
                true
            };

        // Platt's outer loop: alternate full sweeps and non-bound sweeps.
        let mut examine_all = true;
        let mut stale_passes = 0usize;
        // Noisy labels (conflicting samples at identical feature vectors,
        // which real fault-injection data is full of) prevent exact KKT
        // convergence; cap the work at a budget that saturates accuracy
        // in practice while keeping the 2,500-training grid search fast.
        let max_steps = 50 * n;
        let mut steps = 0usize;
        while stale_passes < params.max_passes && steps < max_steps {
            let mut changed = 0usize;
            for i2 in 0..n {
                if !examine_all {
                    let a = alpha[i2];
                    if a <= eps || a >= c_of(i2) - eps {
                        continue;
                    }
                }
                let e2 = err[class_of[i2]];
                let r2 = e2 * y[i2];
                let a2 = alpha[i2];
                let kkt_violated = (r2 < -tol && a2 < c_of(i2) - eps) || (r2 > tol && a2 > eps);
                if !kkt_violated {
                    continue;
                }
                // Second-choice heuristic: maximize |E1 - E2|.
                let mut stepped = false;
                if let Some(c) = second_choice(&err, e2) {
                    stepped = take_step(&mut alpha, &mut err, &mut b, class_first[c], i2);
                }
                if !stepped {
                    // Deterministic fallback: scan all candidates.
                    for i1 in 0..n {
                        if take_step(&mut alpha, &mut err, &mut b, i1, i2) {
                            stepped = true;
                            break;
                        }
                    }
                }
                if stepped {
                    changed += 1;
                    steps += 1;
                    if steps >= max_steps {
                        break;
                    }
                }
            }
            if changed == 0 {
                if examine_all {
                    stale_passes += 1;
                }
                examine_all = true;
            } else {
                stale_passes = 0;
                examine_all = false;
            }
        }

        // Keep only support vectors.
        let support: Vec<usize> = (0..n).filter(|&i| alpha[i] > 1e-8).collect();
        let coef = support.iter().map(|&i| alpha[i] * y[i]).collect();
        Dual {
            support,
            coef,
            bias: b,
        }
    }

    /// The signed decision value for `x` (positive ⇒ class 1).
    pub fn decision_function(&self, x: &[f64]) -> f64 {
        let mut sum = self.bias;
        for (sv, c) in self.support_x.iter().zip(&self.coef) {
            sum += c * rbf(self.gamma, sv, x);
        }
        sum
    }

    /// Number of support vectors retained.
    pub fn num_support_vectors(&self) -> usize {
        self.support_x.len()
    }

    /// The support vectors (one feature row per retained sample).
    pub fn support_vectors(&self) -> &[Vec<f64>] {
        &self.support_x
    }

    /// The dual coefficients `alpha_i * y_i`, aligned with
    /// [`Svm::support_vectors`].
    pub fn coefficients(&self) -> &[f64] {
        &self.coef
    }

    /// The bias term `b` of the decision function.
    pub fn bias(&self) -> f64 {
        self.bias
    }

    /// The RBF kernel coefficient `γ` the model was trained with.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// Reconstructs a model from exported parts (the inverse of reading
    /// [`Svm::support_vectors`] / [`Svm::coefficients`] / [`Svm::bias`]
    /// / [`Svm::gamma`]). The reconstruction is exact: the decision
    /// function is a pure fold over these four values, so a model
    /// rebuilt from bit-identical parts produces bit-identical
    /// [`Svm::decision_function`] outputs.
    ///
    /// # Errors
    ///
    /// Rejects mismatched lengths, ragged support vectors, and
    /// non-finite `gamma`.
    pub fn from_parts(
        support_x: Vec<Vec<f64>>,
        coef: Vec<f64>,
        bias: f64,
        gamma: f64,
    ) -> Result<Self, String> {
        if support_x.len() != coef.len() {
            return Err(format!(
                "support vector / coefficient count mismatch: {} vs {}",
                support_x.len(),
                coef.len()
            ));
        }
        if let Some(first) = support_x.first() {
            let d = first.len();
            if support_x.iter().any(|sv| sv.len() != d) {
                return Err("ragged support vectors".to_string());
            }
        }
        if !gamma.is_finite() {
            return Err(format!("non-finite gamma {gamma}"));
        }
        Ok(Svm {
            support_x,
            coef,
            bias,
            gamma,
        })
    }
}

/// The error class with the largest `|E - e2|` above zero, the first on
/// ties. Classes are numbered by their first sample, so that sample is
/// the one a per-sample scan with the same strict `>` would pick.
///
/// Four interleaved lanes each keep their first maximum; the merge takes
/// the largest gap and, among equal gaps, the smallest class, which is
/// the first maximum of the whole scan.
fn second_choice(err: &[f64], e2: f64) -> Option<usize> {
    const LANES: usize = 4;
    let mut gap = [0.0f64; LANES];
    let mut at = [usize::MAX; LANES];
    let chunks = err.chunks_exact(LANES);
    let tail = chunks.remainder();
    for (j, chunk) in chunks.enumerate() {
        for l in 0..LANES {
            let g = (chunk[l] - e2).abs();
            if g > gap[l] {
                gap[l] = g;
                at[l] = j * LANES + l;
            }
        }
    }
    let base = err.len() - tail.len();
    for (l, e1) in tail.iter().enumerate() {
        let g = (e1 - e2).abs();
        if g > gap[l] {
            gap[l] = g;
            at[l] = base + l;
        }
    }
    let mut best: Option<(f64, usize)> = None;
    for (&g, &c) in gap.iter().zip(&at) {
        let wins = match best {
            _ if c == usize::MAX => false,
            None => true,
            Some((bg, bc)) => g > bg || (g == bg && c < bc),
        };
        if wins {
            best = Some((g, c));
        }
    }
    best.map(|(_, c)| c)
}

impl Classifier for Svm {
    fn predict(&self, x: &[f64]) -> bool {
        self.decision_function(x) > 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linearly_separable(n: usize) -> Dataset {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let t = i as f64 / n as f64;
            x.push(vec![t, 1.0 + t]);
            y.push(true);
            x.push(vec![t, -1.0 - t]);
            y.push(false);
        }
        Dataset::new(x, y).unwrap()
    }

    #[test]
    fn separates_linear_data() {
        let data = linearly_separable(20);
        let svm = Svm::train(&data, &SvmParams::new(10.0, 0.5));
        for (row, &label) in data.features().iter().zip(data.labels()) {
            assert_eq!(svm.predict(row), label, "misclassified {row:?}");
        }
    }

    #[test]
    fn solves_xor_with_rbf() {
        let x = vec![
            vec![0.0, 0.0],
            vec![1.0, 1.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
        ];
        let y = vec![false, false, true, true];
        let data = Dataset::new(x, y).unwrap();
        let svm = Svm::train(&data, &SvmParams::new(100.0, 2.0));
        assert!(!svm.predict(&[0.1, 0.1]));
        assert!(!svm.predict(&[0.9, 0.9]));
        assert!(svm.predict(&[0.1, 0.9]));
        assert!(svm.predict(&[0.9, 0.1]));
    }

    #[test]
    fn class_weighting_recovers_minority_class() {
        // 4 positives among 100 negatives, positives in a tight cluster.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..100 {
            x.push(vec![(i % 10) as f64, (i / 10) as f64]);
            y.push(false);
        }
        for i in 0..4 {
            x.push(vec![
                20.0 + (i % 2) as f64 * 0.1,
                20.0 + (i / 2) as f64 * 0.1,
            ]);
            y.push(true);
        }
        let data = Dataset::new(x, y).unwrap();
        let params = SvmParams::new(1.0, 0.05).balanced_for(&data);
        assert!(params.pos_weight > 10.0);
        let svm = Svm::train(&data, &params);
        assert!(
            svm.predict(&[20.05, 20.05]),
            "minority cluster must be recovered"
        );
        assert!(!svm.predict(&[5.0, 5.0]));
    }

    #[test]
    fn decision_function_sign_matches_predict() {
        let data = linearly_separable(10);
        let svm = Svm::train(&data, &SvmParams::new(5.0, 0.5));
        let x = vec![0.5, 1.4];
        assert_eq!(svm.decision_function(&x) > 0.0, svm.predict(&x));
    }

    #[test]
    fn training_is_deterministic() {
        let data = linearly_separable(15);
        let a = Svm::train(&data, &SvmParams::new(10.0, 0.3));
        let b = Svm::train(&data, &SvmParams::new(10.0, 0.3));
        assert_eq!(a.num_support_vectors(), b.num_support_vectors());
        assert_eq!(
            a.decision_function(&[0.2, 0.8]),
            b.decision_function(&[0.2, 0.8])
        );
    }

    #[test]
    #[should_panic(expected = "both classes")]
    fn single_class_data_panics() {
        let data = Dataset::new(vec![vec![0.0], vec![1.0]], vec![true, true]).unwrap();
        Svm::train(&data, &SvmParams::new(1.0, 1.0));
    }

    #[test]
    fn groups_are_bitwise_and_keep_non_finite_rows_apart() {
        let rows = vec![
            vec![0.0, 1.0],
            vec![-0.0, 1.0],
            vec![0.0, 1.0],
            vec![f64::NAN, 1.0],
            vec![f64::NAN, 1.0],
            vec![-0.0, 1.0],
        ];
        let groups = Groups::new(&rows);
        let of: Vec<usize> = (0..rows.len()).map(|i| groups.of(i)).collect();
        assert_eq!(of, [0, 1, 0, 2, 3, 1]);
        assert_eq!(groups.len(), 4);
    }

    #[test]
    fn few_support_vectors_on_easy_data() {
        let data = linearly_separable(50);
        let svm = Svm::train(&data, &SvmParams::new(10.0, 0.5));
        // Easy margins: far fewer SVs than samples.
        assert!(svm.num_support_vectors() < data.len() / 2);
    }
}
