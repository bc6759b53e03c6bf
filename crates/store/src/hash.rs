//! SHA-256 and the fingerprinting layer built on it.
//!
//! Store keys are derived by hashing the *canonical inputs* of a
//! pipeline stage — the printed IR module, the campaign configuration,
//! the SVM grid, the feature-schema version — into a stable hex key.
//! [`FingerprintBuilder`] frames every field with its length and label
//! so that adjacent fields can never alias (`("ab", "c")` hashes
//! differently from `("a", "bc")`), and seeds the digest with a domain
//! tag so fingerprints of different stages never collide by
//! construction.
//!
//! The hash itself is the workspace's one SHA-256, [`ipas_ir::sha256`],
//! re-exported here unchanged.

use std::fmt;

pub use ipas_ir::sha256::{hex, sha256, Sha256};

/// A 256-bit fingerprint of a stage's canonical inputs.
#[derive(Copy, Clone, PartialEq, Eq, Hash)]
pub struct Fingerprint([u8; 32]);

impl Fingerprint {
    /// The full 64-character hex key.
    pub fn hex(&self) -> String {
        hex(&self.0)
    }

    /// A 16-character abbreviation for log lines.
    pub fn short(&self) -> String {
        hex(&self.0[..8])
    }

    /// The raw digest bytes.
    pub fn bytes(&self) -> &[u8; 32] {
        &self.0
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.hex())
    }
}

impl fmt::Debug for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fingerprint({})", self.short())
    }
}

/// Builds a [`Fingerprint`] from labeled fields.
///
/// Every field is framed as `len(label) ‖ label ‖ len(value) ‖ value`
/// (lengths as little-endian u64), so field boundaries are unambiguous
/// and reordering or renaming a field always changes the key.
#[must_use]
pub struct FingerprintBuilder {
    hasher: Sha256,
}

impl FingerprintBuilder {
    /// Starts a fingerprint in the given stage domain (e.g.
    /// `"training-campaign"`). Different domains never collide.
    pub fn new(domain: &str) -> Self {
        let mut hasher = Sha256::new();
        hasher.update(b"ipas-fingerprint-v1");
        let mut b = FingerprintBuilder { hasher };
        b.push("domain", domain.as_bytes());
        b
    }

    fn push(&mut self, label: &str, value: &[u8]) {
        self.hasher.update(&(label.len() as u64).to_le_bytes());
        self.hasher.update(label.as_bytes());
        self.hasher.update(&(value.len() as u64).to_le_bytes());
        self.hasher.update(value);
    }

    /// Adds a text field (e.g. a printed IR module).
    pub fn text(mut self, label: &str, value: &str) -> Self {
        self.push(label, value.as_bytes());
        self
    }

    /// Adds an unsigned integer field.
    pub fn u64(mut self, label: &str, value: u64) -> Self {
        self.push(label, &value.to_le_bytes());
        self
    }

    /// Adds a float field by IEEE-754 bit pattern (so `-0.0` and `0.0`
    /// fingerprint differently, and NaNs are stable).
    pub fn f64(mut self, label: &str, value: f64) -> Self {
        self.push(label, &value.to_bits().to_le_bytes());
        self
    }

    /// Adds a boolean field.
    pub fn bool(mut self, label: &str, value: bool) -> Self {
        self.push(label, &[u8::from(value)]);
        self
    }

    /// Nests another fingerprint (e.g. an upstream stage's key).
    pub fn fingerprint(mut self, label: &str, fp: &Fingerprint) -> Self {
        self.push(label, fp.bytes());
        self
    }

    /// Finalizes the key.
    pub fn finish(self) -> Fingerprint {
        Fingerprint(self.hasher.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sha256_known_vectors() {
        // FIPS 180-4 test vectors.
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn sha256_incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let oneshot = sha256(&data);
        for split in [0, 1, 63, 64, 65, 500, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finish(), oneshot, "split at {split}");
        }
    }

    #[test]
    fn fingerprint_fields_are_framed() {
        let a = FingerprintBuilder::new("d").text("ab", "c").finish();
        let b = FingerprintBuilder::new("d").text("a", "bc").finish();
        assert_ne!(a, b, "label/value boundary must be unambiguous");
    }

    #[test]
    fn fingerprint_domain_separates() {
        let a = FingerprintBuilder::new("x").u64("n", 1).finish();
        let b = FingerprintBuilder::new("y").u64("n", 1).finish();
        assert_ne!(a, b);
    }

    #[test]
    fn fingerprint_is_stable() {
        let a = FingerprintBuilder::new("stage")
            .text("module", "fn @f() {\nbb0:\n  ret\n}\n")
            .u64("runs", 600)
            .f64("tol", 1e-9)
            .bool("balanced", true)
            .finish();
        let b = FingerprintBuilder::new("stage")
            .text("module", "fn @f() {\nbb0:\n  ret\n}\n")
            .u64("runs", 600)
            .f64("tol", 1e-9)
            .bool("balanced", true)
            .finish();
        assert_eq!(a.hex(), b.hex());
        assert_eq!(a.hex().len(), 64);
        assert_eq!(a.short().len(), 16);
    }

    #[test]
    fn fingerprint_distinguishes_float_bits() {
        let a = FingerprintBuilder::new("d").f64("v", 0.0).finish();
        let b = FingerprintBuilder::new("d").f64("v", -0.0).finish();
        assert_ne!(a, b);
    }
}
