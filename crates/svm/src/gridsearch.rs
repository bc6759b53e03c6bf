//! (C, γ) grid search with stratified cross validation (§4.3.2).
//!
//! The paper varies `C` between 1 and 100,000 and `γ` between 0.00001
//! and 1, evaluating 500 configurations by cross validation and ranking
//! them by the Eq. 1 F-score; the top-N configurations (N = 5 in the
//! evaluation) are then carried into the protection experiments.
//!
//! Each fold is standardized once, its training split grouped into
//! distinct rows, and two distance tables computed once: `d × d` between
//! the distinct training rows and `n_test × d` from every test row to
//! them. Per γ, each table becomes a kernel shared by every `C`; SMO runs
//! over the `d × d` one (see the duplicate-aware SMO in `svm.rs`), and a
//! test prediction is a lookup-and-sum over the other that rounds exactly
//! like [`Svm::decision_function`].

use std::sync::Mutex;

use crate::dataset::{Dataset, Scaler};
use crate::metrics::{f_score, per_class_accuracy, ClassAccuracy};
use crate::svm::{dist2, rbf_of, Groups, Svm, SvmParams};

/// Options for [`grid_search`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridOptions {
    /// Number of `C` values on the log grid (default 25).
    pub num_c: usize,
    /// Number of `γ` values on the log grid (default 20; 25×20 = the
    /// paper's 500 configurations).
    pub num_gamma: usize,
    /// `C` range, inclusive (default `[1, 1e5]`).
    pub c_range: (f64, f64),
    /// `γ` range, inclusive (default `[1e-5, 1]`).
    pub gamma_range: (f64, f64),
    /// Number of stratified folds (default 5).
    pub folds: usize,
    /// Fold-assignment seed.
    pub seed: u64,
    /// Balance class weights by inverse frequency (default true; the
    /// paper selects SVMs precisely for imbalance handling).
    pub balanced: bool,
}

impl Default for GridOptions {
    fn default() -> Self {
        GridOptions {
            num_c: 25,
            num_gamma: 20,
            c_range: (1.0, 1e5),
            gamma_range: (1e-5, 1.0),
            folds: 5,
            seed: 0x1BA5_5EED,
            balanced: true,
        }
    }
}

impl GridOptions {
    /// A reduced grid for unit tests and quick campaigns.
    pub fn quick() -> Self {
        GridOptions {
            num_c: 5,
            num_gamma: 4,
            folds: 3,
            ..GridOptions::default()
        }
    }

    /// The log-spaced `C` values of the grid.
    pub fn c_values(&self) -> Vec<f64> {
        log_space(self.c_range.0, self.c_range.1, self.num_c)
    }

    /// The log-spaced `γ` values of the grid.
    pub fn gamma_values(&self) -> Vec<f64> {
        log_space(self.gamma_range.0, self.gamma_range.1, self.num_gamma)
    }
}

fn log_space(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    assert!(n >= 1 && lo > 0.0 && hi > lo);
    if n == 1 {
        return vec![lo];
    }
    let (llo, lhi) = (lo.ln(), hi.ln());
    (0..n)
        .map(|i| (llo + (lhi - llo) * i as f64 / (n - 1) as f64).exp())
        .collect()
}

/// The cross-validated score of one (C, γ) configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfigScore {
    /// The evaluated parameters (including the class weight used).
    pub params: SvmParams,
    /// Pooled per-class accuracies across all folds.
    pub accuracy: ClassAccuracy,
    /// Eq. 1 F-score of the pooled accuracies.
    pub f_score: f64,
}

/// Runs the cross-validated grid search, returning every configuration
/// sorted by F-score (descending; ties broken toward smaller `C`, which
/// the paper's overfitting discussion favors).
///
/// Work is parallelized across γ values with scoped threads: each γ
/// shares one training and one test kernel per fold across all `C`
/// values. Scores are bit-identical to training [`Svm::train`] on every
/// fold and predicting with [`Svm::decision_function`].
pub fn grid_search(data: &Dataset, opts: &GridOptions) -> Vec<ConfigScore> {
    let folds = data.stratified_kfold(opts.folds, opts.seed);

    // Pre-standardize per fold, group the training split's distinct rows,
    // and precompute the squared distances among them and from every test
    // row to them, shared by every configuration.
    struct FoldData {
        train: Dataset,
        groups: Groups,
        test_truth: Vec<bool>,
        /// `d × d` squared distances between the distinct training rows.
        train_dist2: Vec<f64>,
        /// `n_test × d` squared distances from each test row to each
        /// distinct training row, summed as the decision function sums
        /// them.
        test_dist2: Vec<f64>,
    }
    // A fold whose training split lost one class entirely (possible when
    // the minority class has fewer samples than folds) cannot train an
    // SVM; skip it rather than abort the whole search. Its test samples
    // simply don't contribute to the cross-validated score.
    let fold_data: Vec<FoldData> = folds
        .iter()
        .filter(|(tr, _)| {
            let positives = tr.iter().filter(|&&i| data.labels()[i]).count();
            positives > 0 && positives < tr.len()
        })
        .map(|(tr, te)| {
            let train_raw = data.subset(tr);
            let test_raw = data.subset(te);
            let scaler = Scaler::fit(&train_raw);
            let train = scaler.transform(&train_raw);
            let test = scaler.transform(&test_raw);
            let x = train.features();
            let groups = Groups::new(x);
            let train_dist2 = groups.pairwise(x, |_| 0.0, dist2);
            let test_dist2 = test
                .features()
                .iter()
                .flat_map(|t| groups.rows(x).map(move |r| dist2(r, t)))
                .collect();
            let test_truth = test.labels().to_vec();
            FoldData {
                train,
                groups,
                test_truth,
                train_dist2,
                test_dist2,
            }
        })
        .collect();

    let c_values = opts.c_values();
    let gamma_values = opts.gamma_values();
    let results: Mutex<Vec<ConfigScore>> = Mutex::new(Vec::new());

    let num_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(gamma_values.len());
    let gamma_chunks: Vec<Vec<f64>> = chunk(&gamma_values, num_threads);

    std::thread::scope(|scope| {
        for chunk in &gamma_chunks {
            let fold_data = &fold_data;
            let c_values = &c_values;
            let results = &results;
            scope.spawn(move || {
                for &gamma in chunk {
                    // One training and one test kernel per (γ, fold),
                    // shared across C values.
                    let kernels: Vec<(Vec<f64>, Vec<f64>)> = fold_data
                        .iter()
                        .map(|fd| {
                            let exp =
                                |d2: &Vec<f64>| d2.iter().map(|&d| rbf_of(gamma, d)).collect();
                            (exp(&fd.train_dist2), exp(&fd.test_dist2))
                        })
                        .collect();
                    for &c in c_values {
                        let mut predicted = Vec::new();
                        let mut truth = Vec::new();
                        let mut params = SvmParams::new(c, gamma);
                        for (fd, (kernel, test_kernel)) in fold_data.iter().zip(&kernels) {
                            let mut p = params;
                            if opts.balanced {
                                p = p.balanced_for(&fd.train);
                            }
                            params = p;
                            let dual = Svm::train_prepared(&fd.train, &p, &fd.groups, kernel);
                            predicted.extend(
                                test_kernel
                                    .chunks_exact(fd.groups.len())
                                    .map(|k| dual.decision(&fd.groups, k) > 0.0),
                            );
                            truth.extend_from_slice(&fd.test_truth);
                        }
                        let accuracy = per_class_accuracy(&predicted, &truth);
                        let score = ConfigScore {
                            params,
                            accuracy,
                            f_score: f_score(accuracy),
                        };
                        results.lock().expect("no panics hold the lock").push(score);
                    }
                }
            });
        }
    });

    let mut out = results.into_inner().expect("scope joined all threads");
    out.sort_by(|a, b| {
        b.f_score
            .partial_cmp(&a.f_score)
            .expect("f-scores are finite")
            .then(
                a.params
                    .c
                    .partial_cmp(&b.params.c)
                    .expect("C values are finite"),
            )
            .then(
                a.params
                    .gamma
                    .partial_cmp(&b.params.gamma)
                    .expect("gamma values are finite"),
            )
    });
    out
}

fn chunk(values: &[f64], n: usize) -> Vec<Vec<f64>> {
    let mut chunks: Vec<Vec<f64>> = vec![Vec::new(); n.max(1)];
    for (i, &v) in values.iter().enumerate() {
        chunks[i % n.max(1)].push(v);
    }
    chunks.retain(|c| !c.is_empty());
    chunks
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_dataset() -> Dataset {
        // Positives on a ring of radius 2, negatives near the origin —
        // needs a mid-size gamma, so the grid has something to find.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..60 {
            let a = i as f64 * 0.5;
            x.push(vec![0.3 * a.cos(), 0.3 * a.sin()]);
            y.push(false);
        }
        for i in 0..12 {
            let a = i as f64 * 0.7;
            x.push(vec![2.0 * a.cos(), 2.0 * a.sin()]);
            y.push(true);
        }
        Dataset::new(x, y).unwrap()
    }

    #[test]
    fn tolerates_fewer_minority_samples_than_folds() {
        // One positive among 30 negatives with 3 folds: one fold's
        // training split has no positive and must be skipped, not
        // panic the search.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..30 {
            x.push(vec![i as f64 * 0.1, -(i as f64) * 0.05]);
            y.push(false);
        }
        x.push(vec![5.0, 5.0]);
        y.push(true);
        let data = Dataset::new(x, y).unwrap();
        let opts = GridOptions::quick();
        let scores = grid_search(&data, &opts);
        assert_eq!(scores.len(), opts.num_c * opts.num_gamma);
        assert!(scores.iter().all(|s| s.f_score.is_finite()));
    }

    #[test]
    fn grid_has_expected_size_and_order() {
        let data = ring_dataset();
        let opts = GridOptions::quick();
        let scores = grid_search(&data, &opts);
        assert_eq!(scores.len(), opts.num_c * opts.num_gamma);
        for w in scores.windows(2) {
            assert!(w[0].f_score >= w[1].f_score, "must be sorted descending");
        }
    }

    #[test]
    fn finds_a_good_configuration_on_separable_data() {
        let data = ring_dataset();
        let scores = grid_search(&data, &GridOptions::quick());
        assert!(
            scores[0].f_score > 0.9,
            "best config should separate the ring: {:?}",
            scores[0]
        );
    }

    #[test]
    fn default_grid_is_500_configs() {
        let opts = GridOptions::default();
        assert_eq!(opts.num_c * opts.num_gamma, 500);
        assert_eq!(opts.c_values().len(), 25);
        assert_eq!(opts.gamma_values().len(), 20);
        let cs = opts.c_values();
        assert!((cs[0] - 1.0).abs() < 1e-9);
        assert!((cs[24] - 1e5).abs() < 1.0);
    }

    #[test]
    fn log_space_endpoints() {
        let v = log_space(1e-5, 1.0, 20);
        assert!((v[0] - 1e-5).abs() < 1e-12);
        assert!((v[19] - 1.0).abs() < 1e-9);
        assert!(v.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn search_is_deterministic() {
        let data = ring_dataset();
        let a = grid_search(&data, &GridOptions::quick());
        let b = grid_search(&data, &GridOptions::quick());
        let fa: Vec<f64> = a.iter().map(|s| s.f_score).collect();
        let fb: Vec<f64> = b.iter().map(|s| s.f_score).collect();
        assert_eq!(fa, fb);
    }
}
