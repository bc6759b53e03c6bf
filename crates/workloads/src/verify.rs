//! Verification routines (Table 2 of the paper).

use ipas_faultsim::OutputVerifier;
use ipas_interp::{OutputStream, RunOutput};

/// CoMD-style verification: every per-step total energy of the faulty
/// run must fall within three standard deviations of the golden run's
/// energy distribution (and the step count must match).
#[derive(Debug, Clone)]
pub struct EnergyVerifier {
    expected_len: usize,
    mean: f64,
    band: f64,
}

impl EnergyVerifier {
    /// Builds the verifier from the golden run's per-step energies.
    pub fn from_golden(golden: &OutputStream) -> Self {
        let energies = golden.as_floats();
        let n = energies.len().max(1) as f64;
        let mean = energies.iter().sum::<f64>() / n;
        let var = energies
            .iter()
            .map(|e| (e - mean) * (e - mean))
            .sum::<f64>()
            / n;
        let sigma = var.sqrt();
        // Guard against a perfectly flat golden series: allow at least a
        // tiny relative band so FP noise from masked faults passes.
        let band = (3.0 * sigma).max(1e-10 * mean.abs().max(1.0));
        EnergyVerifier {
            expected_len: energies.len(),
            mean,
            band,
        }
    }

    /// The acceptance band half-width (3σ with a floor).
    pub fn band(&self) -> f64 {
        self.band
    }
}

impl OutputVerifier for EnergyVerifier {
    fn verify(&self, run: &RunOutput) -> bool {
        let energies = run.outputs.as_floats();
        energies.len() == self.expected_len
            && energies
                .iter()
                .all(|e| e.is_finite() && (e - self.mean).abs() <= self.band)
    }

    fn describe(&self) -> String {
        format!(
            "total energy within ±{:e} of {:e} for {} steps",
            self.band, self.mean, self.expected_len
        )
    }
}

/// HPCCG/AMG-style verification: the emitted error/residual must be
/// finite and below tolerance, and the emitted iteration count must not
/// exceed the limit. This does *not* compare against golden outputs —
/// like the paper's routines, a faulty run that still converges is
/// masked.
#[derive(Debug, Clone, Copy)]
pub struct ConvergenceVerifier {
    tol: f64,
    max_iters: i64,
}

impl ConvergenceVerifier {
    /// Accepts runs whose first float output is `< tol` and whose first
    /// integer output is `<= max_iters`.
    pub fn new(tol: f64, max_iters: i64) -> Self {
        ConvergenceVerifier { tol, max_iters }
    }
}

impl OutputVerifier for ConvergenceVerifier {
    fn verify(&self, run: &RunOutput) -> bool {
        let floats = run.outputs.as_floats();
        let ints = run.outputs.as_ints();
        let (Some(&err), Some(&iters)) = (floats.first(), ints.first()) else {
            return false;
        };
        floats.len() == 1
            && ints.len() == 1
            && err.is_finite()
            && err < self.tol
            && iters <= self.max_iters
    }

    fn describe(&self) -> String {
        format!(
            "converged below {:e} within {} iterations",
            self.tol, self.max_iters
        )
    }
}

/// FFT-style verification: the L2 norm of the difference between the
/// faulty and golden float outputs must be below tolerance.
#[derive(Debug, Clone)]
pub struct L2Verifier {
    golden: Vec<f64>,
    tol: f64,
}

impl L2Verifier {
    /// Builds the verifier from the golden float outputs.
    pub fn new(golden: Vec<f64>, tol: f64) -> Self {
        L2Verifier { golden, tol }
    }
}

impl OutputVerifier for L2Verifier {
    fn verify(&self, run: &RunOutput) -> bool {
        let out = run.outputs.as_floats();
        if out.len() != self.golden.len() {
            return false;
        }
        let mut sum = 0.0;
        for (a, g) in out.iter().zip(&self.golden) {
            if !a.is_finite() {
                return false;
            }
            sum += (a - g) * (a - g);
        }
        sum.sqrt() <= self.tol
    }

    fn describe(&self) -> String {
        format!("L2 distance to golden output <= {:e}", self.tol)
    }
}

/// IS-style verification (the NPB benchmark's own check): the emitted
/// keys must be sorted ascending and the count must match.
#[derive(Debug, Clone, Copy)]
pub struct SortedVerifier {
    expected_len: usize,
}

impl SortedVerifier {
    /// Accepts runs emitting exactly `expected_len` ascending keys.
    pub fn new(expected_len: usize) -> Self {
        SortedVerifier { expected_len }
    }
}

impl OutputVerifier for SortedVerifier {
    fn verify(&self, run: &RunOutput) -> bool {
        let keys = run.outputs.as_ints();
        keys.len() == self.expected_len && keys.windows(2).all(|p| p[0] <= p[1])
    }

    fn describe(&self) -> String {
        format!("{} keys in ascending order", self.expected_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipas_interp::{Machine, RunConfig};

    /// Runs a tiny SciL program and returns its RunOutput.
    fn run(src: &str) -> RunOutput {
        let m = ipas_lang::compile(src).unwrap();
        Machine::new(&m).run(&RunConfig::default()).unwrap()
    }

    fn emit_floats(vals: &[f64]) -> RunOutput {
        let body: String = vals.iter().map(|v| format!("output_f({v:?});")).collect();
        run(&format!("fn main() -> int {{ {body} return 0; }}"))
    }

    fn emit_ints(vals: &[i64]) -> RunOutput {
        let body: String = vals.iter().map(|v| format!("output_i({v});")).collect();
        run(&format!("fn main() -> int {{ {body} return 0; }}"))
    }

    #[test]
    fn energy_band_accepts_small_jitter() {
        let golden = emit_floats(&[10.0, 10.1, 9.9, 10.05]);
        let v = EnergyVerifier::from_golden(&golden.outputs);
        assert!(v.verify(&emit_floats(&[10.0, 10.05, 9.95, 10.0])));
        // Way outside 3σ of the golden spread: rejected.
        assert!(!v.verify(&emit_floats(&[10.0, 10.1, 9.9, 12.0])));
        // Wrong step count: rejected.
        assert!(!v.verify(&emit_floats(&[10.0, 10.1, 9.9])));
    }

    #[test]
    fn energy_band_has_floor_for_flat_series() {
        let golden = emit_floats(&[5.0, 5.0, 5.0]);
        let v = EnergyVerifier::from_golden(&golden.outputs);
        assert!(v.band() > 0.0);
        assert!(v.verify(&emit_floats(&[5.0, 5.0, 5.0])));
        assert!(!v.verify(&emit_floats(&[5.0, 5.0, 5.1])));
    }

    #[test]
    fn convergence_accepts_only_converged_runs() {
        let v = ConvergenceVerifier::new(1e-6, 100);
        let good = run("fn main() -> int { output_f(0.0000001); output_i(42); return 0; }");
        assert!(v.verify(&good));
        let slow = run("fn main() -> int { output_f(0.0000001); output_i(101); return 0; }");
        assert!(!v.verify(&slow));
        let diverged = run("fn main() -> int { output_f(0.5); output_i(42); return 0; }");
        assert!(!v.verify(&diverged));
        let missing = run("fn main() -> int { output_i(42); return 0; }");
        assert!(!v.verify(&missing));
        let nan =
            run("fn main() -> int { let z: float = 0.0; output_f(z/z); output_i(1); return 0; }");
        assert!(!v.verify(&nan));
    }

    #[test]
    fn l2_norm_accumulates_across_elements() {
        let v = L2Verifier::new(vec![1.0, 2.0, 3.0], 0.1);
        assert!(v.verify(&emit_floats(&[1.0, 2.0, 3.0])));
        assert!(v.verify(&emit_floats(&[1.05, 2.0, 3.05])));
        // Each element off by 0.08: L2 = 0.138 > 0.1.
        assert!(!v.verify(&emit_floats(&[1.08, 2.08, 3.08])));
        assert!(!v.verify(&emit_floats(&[1.0, 2.0])));
    }

    #[test]
    fn sorted_verifier_checks_order_and_length() {
        let v = SortedVerifier::new(4);
        assert!(v.verify(&emit_ints(&[1, 2, 2, 9])));
        assert!(!v.verify(&emit_ints(&[1, 3, 2, 9])));
        assert!(!v.verify(&emit_ints(&[1, 2, 3])));
    }

    #[test]
    fn sorted_verifier_accepts_wrong_but_sorted_values() {
        // Faithful to the paper: IS's check only tests sortedness, so a
        // corrupted-but-sorted output is (correctly) masked.
        let v = SortedVerifier::new(3);
        assert!(v.verify(&emit_ints(&[5, 6, 7])));
    }
}
