//! # asv-store
//!
//! An empty package: nothing in the workspace keeps verification outcomes
//! on disk, and the verification service's in-memory memo is its only
//! verdict tier. The package and its manifest edges (its own dependencies
//! and `asv-serve`'s dependency on it) stay only because the benchmark's
//! lockfile, `e2ebench/Cargo.lock`, records them; the change that
//! rewrites that lockfile deletes the package.
