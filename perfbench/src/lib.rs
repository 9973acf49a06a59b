//! # katara-perfbench — one benchmark for KATARA-rs
//!
//! Three workloads run the configuration users run: default-config batch
//! cleaning with enrichment on against the Yago-scale KB loaded from
//! N-Triples, and a durable daemon under mixed `/clean` and `/delta`
//! traffic. An untraced run prints the end-to-end metrics; a traced run
//! prints per-layer metrics measured from outside the program. See
//! `README.md` in this directory.

pub mod batch;
pub mod inputs;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod serve;
