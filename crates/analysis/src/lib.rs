//! Static analyses over `ipas-ir` used by the IPAS pipeline.
//!
//! The paper characterizes every injected instruction with 31 static
//! features (Table 1) spanning four categories: the instruction itself,
//! its basic block, its function, and its forward program slice. This
//! crate provides those analyses:
//!
//! * [`defuse`] — def-use chains (also used by the duplication pass to
//!   build duplication paths);
//! * [`loops`] — natural-loop membership from back edges;
//! * [`slice`](mod@slice) — forward program slicing in the spirit of Weiser's
//!   algorithm, restricted to intra-procedural SSA data flow;
//! * [`features`] — the 31-entry [`features::FeatureVector`] extractor.
//!
//! # Example
//!
//! ```
//! use ipas_ir::parser::parse_module;
//! use ipas_analysis::features::FeatureExtractor;
//! use ipas_ir::InstId;
//!
//! let module = parse_module(r#"
//! fn @main() -> i64 {
//! bb0:
//!   %v0 = add i64 1, 2
//!   ret %v0
//! }
//! "#).unwrap();
//! let extractor = FeatureExtractor::new(&module);
//! let (fid, _) = module.functions().next().unwrap();
//! let fv = extractor.extract(fid, InstId::new(0));
//! assert_eq!(fv.get(ipas_analysis::features::Feature::IsBinaryOp), 1.0);
//! ```

#![warn(missing_docs)]

pub mod defuse;
pub mod features;
pub mod loops;
pub mod slice;

pub use defuse::DefUse;
pub use features::{
    Feature, FeatureExtractor, FeatureVector, FEATURE_SCHEMA_VERSION, NUM_FEATURES,
};
pub use loops::LoopInfo;
pub use slice::forward_slice;
