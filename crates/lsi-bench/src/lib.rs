#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Experiment suite reproducing every table and quantitative claim in the
//! paper's evaluation, plus ablations of this reproduction's own design
//! choices. See `DESIGN.md` §3 for the experiment index and
//! `EXPERIMENTS.md` for paper-vs-measured results.
//!
//! Each module `eN_*` implements one experiment with a `run*` entry point
//! returning a typed result that renders via `.table()`. The `reproduce`
//! binary drives them all.

pub mod common;
pub mod e10_ablations;
pub mod e11_sampling;
pub mod e12_mixtures;
pub mod e13_polysemy;
pub mod e14_clustering;
pub mod e15_styles;
pub mod e1_angles;
pub mod e2_skew;
pub mod e3_asymptotics;
pub mod e4_jl;
pub mod e5_twostep;
pub mod e6_runtime;
pub mod e7_synonymy;
pub mod e8_graph;
pub mod e9_eckart_young;
