//! # phox-nn
//!
//! The neural-network model zoo for the `phox` accelerator simulators:
//!
//! * [`transformer`] — the Transformer configurations the paper evaluates
//!   TRON on (BERT-base/large, GPT-2, ViT-B/16) with an executable
//!   stack whose one layer walk runs on any
//!   [`transformer::TransformerDatapath`];
//! * [`gnn`] — CSR graphs plus GCN / GraphSAGE / GIN / GAT models, the
//!   families the GHOST evaluation covers, walked once over any
//!   [`gnn::GnnDatapath`];
//! * [`datasets`] — deterministic synthetic workloads with the published
//!   shapes of Cora / Citeseer / Pubmed / Reddit, an R-MAT generator for
//!   realistic degree skew, SBM community graphs and separable sequence
//!   tasks for accuracy experiments;
//! * [`census`] — the static operation inventory ([`census::OpCensus`])
//!   both the photonic simulators and the electronic baselines consume;
//! * [`decode`] — KV-cached autoregressive decode, in f64 and on
//!   resident int8 weights;
//! * [`int8`] — the digital datapath ([`int8::Precision`]: f64, fake
//!   quantization at any width, or true int8; the photonic simulators
//!   supply the analog one), and the int8 linear layer
//!   ([`int8::QuantLinear`]) behind its int8 arm and the int8 decoder;
//! * [`quant_eval`] — the "8-bit ≈ fp32" analysis of §VI;
//! * [`tasks`] — the other graph tasks §III motivates (link prediction,
//!   graph classification).
//!
//! # Example
//!
//! ```
//! use phox_nn::transformer::TransformerConfig;
//!
//! let bert = TransformerConfig::bert_base(128);
//! let census = bert.census();
//!
//! ```

// Index-based loops are the clearest idiom for the dense-matrix and
// per-ring arithmetic throughout this crate.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]

pub mod census;
pub mod datasets;
pub mod decode;
pub mod gnn;
pub mod int8;
pub mod quant_eval;
pub mod tasks;
pub mod transformer;

pub use census::OpCensus;
