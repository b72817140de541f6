//! # CSSPGO — context-sensitive sampling-based PGO with pseudo-instrumentation
//!
//! A from-scratch reproduction of the CGO 2024 paper *"Revamping
//! Sampling-Based PGO with Context-Sensitivity and Pseudo-Instrumentation"*
//! (He, Yu, Wang, Oh — Meta).
//!
//! This umbrella crate re-exports the whole stack:
//!
//! * [`lang`] — the MiniLang frontend (lexer → parser → IR lowering),
//! * [`ir`] — the compiler IR with pseudo-probe intrinsics,
//! * [`opt`] — the profile-guided optimizer pipeline,
//! * [`codegen`] — machine-code generation and binary sections,
//! * [`sim`] — the simulated CPU with an LBR/stack-sampling PMU,
//! * [`core`] — the paper's contribution: probe correlation, context
//!   reconstruction (Algorithm 1), the missing-frame inferrer, profile
//!   inference, the pre-inliner (Algorithms 2–3), and end-to-end pipelines,
//! * [`workloads`] — synthetic server/client workloads mirroring the paper's
//!   evaluation set,
//! * [`analysis`] — probe-invariant and profile-integrity lints (the
//!   `csspgo_lint` tool).
//! * [`cli`] — flag parsing shared by the command-line binaries.
//!
//! ## Quickstart
//!
//! ```
//! use csspgo::core::pipeline::{run_pgo_cycle, PgoVariant, PipelineConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let workload = csspgo::workloads::ad_finder().scaled(0.05);
//! let cfg = PipelineConfig::default();
//! let outcome = run_pgo_cycle(&workload, PgoVariant::CsspgoFull, &cfg)?;
//! println!("cycles: {}", outcome.eval.cycles);
//! # Ok(())
//! # }
//! ```

pub mod cli;

pub use csspgo_analysis as analysis;
pub use csspgo_codegen as codegen;
pub use csspgo_core as core;
pub use csspgo_ir as ir;
pub use csspgo_lang as lang;
pub use csspgo_opt as opt;
pub use csspgo_sim as sim;
pub use csspgo_workloads as workloads;
