//! `ipas-store`: content-addressed artifact store and model registry.
//!
//! The IPAS pipeline is a chain of expensive stages — fault-injection
//! campaign, feature extraction, C-SVM grid search, duplication,
//! evaluation. This crate gives each stage a memo table on disk so the
//! pipeline becomes incremental: every stage derives a
//! [`Fingerprint`] of its canonical *inputs* (printed IR module,
//! campaign config, SVM grid, feature-schema version), and the stage's
//! output is stored under that key. Re-running with identical inputs
//! resolves the stage from the store; changing any input changes the
//! key and forces a recompute.
//!
//! Three layers:
//!
//! - [`hash`]: the workspace's SHA-256 (from [`ipas_ir::sha256`]) plus
//!   [`FingerprintBuilder`], which frames labeled fields unambiguously
//!   so distinct inputs can never alias to one key.
//! - [`artifact`]: the typed artifact kinds ([`TrainingSet`],
//!   [`TrainedModel`], [`CampaignSummary`], [`ProtectedModule`]) and
//!   their hand-rolled text envelope — schema-version header, checksum
//!   trailer — so corruption and version skew surface as typed
//!   [`StoreError`]s instead of silently misread data. Floats are
//!   encoded as hex bit patterns and round-trip bit-exactly.
//! - [`store`]: the on-disk [`Store`] (`put`/`get`/`list`/`verify`/
//!   `gc`, atomic tmp-file+rename writes, [`Store::memoize`]) and the
//!   [`Registry`] mapping human names to keys; registered names are
//!   the gc roots.
//!
//! The store root comes from the `IPAS_STORE_DIR` environment variable
//! (see [`STORE_DIR_ENV`]), mirroring `IPAS_JOURNAL_DIR`.

pub mod artifact;
pub mod flight;
pub mod hash;
pub mod registry;
pub mod store;

pub use artifact::{
    ArtifactKind, CampaignSummary, FuzzRepro, ProtectedModule, SectionFailureRow, SectionIndex,
    SectionIndexEntry, SectionProfile, SectionRecordRow, StoreError, TrainedModel, TrainingRow,
    TrainingSet,
};
pub use flight::{FlightEntry, SingleFlight};
pub use hash::{Fingerprint, FingerprintBuilder};
pub use ipas_ir::json::{self, Fields, LineBuilder};
pub use registry::{Registry, RegistryEntry};
pub use store::{
    CacheOutcome, Entry, GcReport, Key, MemoError, PinGuard, Store, VerifyReport, STORE_DIR_ENV,
};
