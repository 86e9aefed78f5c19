//! Graph neural network reference models (§III of the paper).
//!
//! GNN inference follows the three stages of Fig. 2: **aggregate**
//! (reduce each vertex's neighbourhood to one feature vector with
//! sum/mean/max), **combine** (linear transform with learned weights) and
//! **update** (non-linear activation). The model families the paper's
//! GHOST evaluation covers are GCN, GraphSAGE, GIN and GAT.

use std::borrow::Cow;

use phox_tensor::sparse::{self, CsrView, SparseReduce};
use phox_tensor::sparse_i8::{self, CsrI8View};
use phox_tensor::{ops, Matrix, Prng, Quantizer, TensorError};

use crate::census::OpCensus;
use crate::int8::{Precision, Weight};
use crate::transformer::TransformerDatapath;

/// A directed graph in compressed sparse row form (in-neighbour lists).
///
/// # Example
///
/// ```
/// use phox_nn::gnn::CsrGraph;
///
/// # fn main() -> Result<(), phox_tensor::TensorError> {
/// // 0 -> 1, 0 -> 2, 1 -> 2
/// let g = CsrGraph::from_edges(3, &[(0, 1), (0, 2), (1, 2)])?;
/// assert_eq!(g.neighbors(2), &[0, 1]);
/// assert_eq!(g.num_edges(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    offsets: Vec<usize>,
    neighbors: Vec<u32>,
}

impl CsrGraph {
    /// Builds a CSR graph from `(src, dst)` edge pairs; each edge makes
    /// `src` an in-neighbour of `dst`. Parallel (duplicate) edges are
    /// merged into one — repeated edges used to silently double-count in
    /// mean/sum aggregation. Self-loops are kept. Vertex ids must be
    /// `< num_nodes`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidDimension`] for zero nodes or an
    /// out-of-range vertex id.
    pub fn from_edges(num_nodes: usize, edges: &[(u32, u32)]) -> Result<Self, TensorError> {
        if num_nodes == 0 {
            return Err(TensorError::InvalidDimension {
                what: "graph requires at least one node",
            });
        }
        let mut degree = vec![0usize; num_nodes];
        for &(s, d) in edges {
            if s as usize >= num_nodes || d as usize >= num_nodes {
                return Err(TensorError::InvalidDimension {
                    what: "edge endpoint out of range",
                });
            }
            degree[d as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(num_nodes + 1);
        offsets.push(0);
        for n in 0..num_nodes {
            offsets.push(offsets[n] + degree[n]);
        }
        let mut cursor = offsets.clone();
        let mut neighbors = vec![0u32; edges.len()];
        for &(s, d) in edges {
            neighbors[cursor[d as usize]] = s;
            cursor[d as usize] += 1;
        }
        // Sort each adjacency list for determinism, then drop duplicate
        // edges in place and re-pack the offsets.
        let mut write = 0usize;
        let mut packed = Vec::with_capacity(num_nodes + 1);
        packed.push(0);
        for n in 0..num_nodes {
            let (start, end) = (offsets[n], offsets[n + 1]);
            neighbors[start..end].sort_unstable();
            let mut prev: Option<u32> = None;
            for i in start..end {
                let v = neighbors[i];
                if prev != Some(v) {
                    neighbors[write] = v;
                    write += 1;
                    prev = Some(v);
                }
            }
            packed.push(write);
        }
        neighbors.truncate(write);
        Ok(CsrGraph {
            offsets: packed,
            neighbors,
        })
    }

    /// Number of vertices.
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of distinct (directed) edges.
    pub fn num_edges(&self) -> usize {
        self.neighbors.len()
    }

    /// The CSR row-offset array (`num_nodes + 1` entries).
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The flat in-neighbour array, row-concatenated in offset order.
    pub fn neighbor_ids(&self) -> &[u32] {
        &self.neighbors
    }

    /// A sparse-kernel view of the adjacency pattern (unweighted, square).
    pub fn csr_view(&self) -> CsrView<'_> {
        let n = self.num_nodes();
        CsrView::new(n, n, &self.offsets, &self.neighbors, None)
            .unwrap_or_else(|_| unreachable!("from_edges establishes the CSR invariants"))
    }

    /// The int8-kernel view of the adjacency pattern (unweighted, square),
    /// for [`phox_tensor::sparse_i8`] SpMM/aggregation.
    pub fn csr_i8_view(&self) -> CsrI8View<'_> {
        let n = self.num_nodes();
        CsrI8View::new(n, n, &self.offsets, &self.neighbors, None)
            .unwrap_or_else(|_| unreachable!("from_edges establishes the CSR invariants"))
    }

    /// In-neighbours of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.neighbors[self.offsets[v]..self.offsets[v + 1]]
    }

    /// In-degree of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn degree(&self, v: usize) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Average in-degree.
    pub fn avg_degree(&self) -> f64 {
        self.num_edges() as f64 / self.num_nodes() as f64
    }

    /// Maximum in-degree.
    pub fn max_degree(&self) -> usize {
        (0..self.num_nodes())
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }
}

/// Neighbourhood reduction function (Fig. 2 stage 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Aggregation {
    /// Element-wise sum.
    Sum,
    /// Element-wise mean.
    Mean,
    /// Element-wise maximum.
    Max,
}

impl std::fmt::Display for Aggregation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Aggregation::Sum => write!(f, "sum"),
            Aggregation::Mean => write!(f, "mean"),
            Aggregation::Max => write!(f, "max"),
        }
    }
}

/// The GNN model families of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GnnKind {
    /// Graph convolutional network (mean aggregation with self-loop).
    Gcn,
    /// GraphSAGE (self features concatenated with the mean of
    /// neighbours).
    GraphSage,
    /// Graph isomorphism network (`(1+ε)·h_v + Σ neighbours`, then MLP).
    Gin,
    /// Graph attention network (attention-weighted neighbour sum).
    Gat,
}

impl std::fmt::Display for GnnKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // `pad` honours width/alignment flags in format strings.
        f.pad(match self {
            GnnKind::Gcn => "GCN",
            GnnKind::GraphSage => "GraphSAGE",
            GnnKind::Gin => "GIN",
            GnnKind::Gat => "GAT",
        })
    }
}

/// Hyper-parameters of a GNN stack.
#[derive(Debug, Clone, PartialEq)]
pub struct GnnConfig {
    /// Model family.
    pub kind: GnnKind,
    /// Feature width per layer boundary: `dims[0]` is the input feature
    /// size, `dims.last()` the output (class logits) size.
    pub dims: Vec<usize>,
    /// Default aggregation for kinds that allow a choice (GraphSAGE).
    pub aggregation: Aggregation,
}

impl GnnConfig {
    /// A two-layer model `input -> hidden -> classes`, the configuration
    /// used for citation-network benchmarks.
    pub fn two_layer(kind: GnnKind, input: usize, hidden: usize, classes: usize) -> Self {
        GnnConfig {
            kind,
            dims: vec![input, hidden, classes],
            aggregation: match kind {
                GnnKind::Gcn => Aggregation::Mean,
                GnnKind::GraphSage => Aggregation::Mean,
                GnnKind::Gin => Aggregation::Sum,
                GnnKind::Gat => Aggregation::Sum,
            },
        }
    }

    /// Validates the layer dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidDimension`] when fewer than two dims
    /// or a zero dim is given.
    pub fn validated(self) -> Result<Self, TensorError> {
        if self.dims.len() < 2 {
            return Err(TensorError::InvalidDimension {
                what: "GNN needs at least input and output dims",
            });
        }
        if self.dims.contains(&0) {
            return Err(TensorError::InvalidDimension {
                what: "GNN dims must be non-zero",
            });
        }
        Ok(self)
    }

    /// Number of layers.
    pub fn layers(&self) -> usize {
        self.dims.len() - 1
    }

    /// Parameter count (combine matrices; GraphSAGE doubles the input of
    /// each layer; GAT adds per-layer attention vectors).
    pub fn parameter_count(&self) -> u64 {
        let mut p = 0u64;
        for l in 0..self.layers() {
            let fin = self.dims[l] as u64;
            let fout = self.dims[l + 1] as u64;
            p += match self.kind {
                GnnKind::GraphSage => 2 * fin * fout,
                _ => fin * fout,
            };
            if self.kind == GnnKind::Gat {
                p += 2 * fout; // attention vector a = [a_src || a_dst]
            }
        }
        p
    }

    /// Static operation census of one full-graph inference.
    pub fn census(&self, nodes: u64, edges: u64) -> OpCensus {
        let mut total = OpCensus::default();
        for l in 0..self.layers() {
            let fin = self.dims[l] as u64;
            let fout = self.dims[l + 1] as u64;
            // Aggregation: one add per edge per input feature.
            let adds = edges * fin;
            // Combine: nodes × fin × fout MACs (2× for SAGE's concat).
            let combine_in = match self.kind {
                GnnKind::GraphSage => 2 * fin,
                _ => fin,
            };
            let macs = nodes * combine_in * fout;
            // GAT: per-edge attention scores (2·fout MACs each) and a
            // per-node softmax over the neighbour scores.
            let (gat_macs, softmax) = if self.kind == GnnKind::Gat {
                (edges * 2 * fout, edges)
            } else {
                (0, 0)
            };
            let layer = OpCensus {
                macs: macs + gat_macs,
                adds,
                softmax_elements: softmax,
                layernorm_elements: 0,
                activation_elements: nodes * fout,
                weight_bytes: match self.kind {
                    GnnKind::GraphSage => 2 * fin * fout,
                    _ => fin * fout,
                },
                activation_bytes: nodes * fin.max(fout),
                // Feature matrix + weights stream from off-chip; edges as
                // 4-byte indices.
                offchip_bytes: nodes * fin + fin * fout + 4 * edges,
            };
            total = total.combine(&layer);
        }
        total
    }
}

/// Weights of one GNN layer.
#[derive(Debug, Clone, PartialEq)]
pub struct GnnLayerWeights {
    /// Combine matrix (`fin x fout`, or `2fin x fout` for GraphSAGE).
    pub w: Weight,
    /// GAT attention vector for the source part, length `fout`.
    pub a_src: Vec<f64>,
    /// GAT attention vector for the destination part, length `fout`.
    pub a_dst: Vec<f64>,
}

/// An executable GNN with materialized weights.
#[derive(Debug, Clone, PartialEq)]
pub struct GnnModel {
    config: GnnConfig,
    layers: Vec<GnnLayerWeights>,
    /// GIN's epsilon.
    epsilon: f64,
}

impl GnnModel {
    /// Materializes a model with Xavier-initialised random weights.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation errors.
    pub fn random(config: GnnConfig, seed: u64) -> Result<Self, TensorError> {
        let config = config.validated()?;
        let mut rng = Prng::new(seed);
        let mut layers = Vec::with_capacity(config.layers());
        for l in 0..config.layers() {
            let fin = config.dims[l];
            let fout = config.dims[l + 1];
            let rows = if config.kind == GnnKind::GraphSage {
                2 * fin
            } else {
                fin
            };
            let a_src = (0..fout).map(|_| rng.uniform(-0.5, 0.5)).collect();
            let a_dst = (0..fout).map(|_| rng.uniform(-0.5, 0.5)).collect();
            layers.push(GnnLayerWeights {
                w: Weight::xavier(&mut rng, rows, fout),
                a_src,
                a_dst,
            });
        }
        Ok(GnnModel {
            config,
            layers,
            epsilon: 0.1,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &GnnConfig {
        &self.config
    }

    /// The layer weights.
    pub fn layers(&self) -> &[GnnLayerWeights] {
        &self.layers
    }

    /// GIN's epsilon mixing coefficient.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Full-precision reference inference: `features` is
    /// `num_nodes x dims[0]`; returns `num_nodes x dims.last()`.
    ///
    /// # Errors
    ///
    /// Returns a shape error when `features` does not match the graph and
    /// configuration.
    pub fn forward(&self, graph: &CsrGraph, features: &Matrix) -> Result<Matrix, TensorError> {
        self.forward_with(graph, features, Precision::F64)
    }

    /// Inference on the true int8 datapath
    /// ([`GnnModel::forward_with`] at [`Precision::Int8`]): combine
    /// matmuls run on the `i8 x i8 -> i32` GEMM kernel and aggregation on
    /// the int8 sparse kernel ([`GnnModel::aggregate_int8`]); GAT
    /// attention coefficients stay in f64 (the digital/LUT periphery).
    ///
    /// # Errors
    ///
    /// Returns a shape error when `features` does not match.
    pub fn forward_int8(&self, graph: &CsrGraph, features: &Matrix) -> Result<Matrix, TensorError> {
        self.forward_with(graph, features, Precision::Int8)
    }

    /// Inference on datapath `dp`: a [`Precision`] for the digital
    /// reference (every combine product at that precision; aggregation
    /// on the int8 sparse kernel at [`Precision::Int8`] and in f64
    /// otherwise), or GHOST's analog datapath.
    ///
    /// # Errors
    ///
    /// Returns a shape error when `features` does not match the graph and
    /// configuration, and any error of the datapath's ops
    /// ([`TensorError::InvalidDimension`] for a [`Precision::FakeQuant`]
    /// width outside `2..=16`).
    pub fn forward_with<D: GnnDatapath>(
        &self,
        graph: &CsrGraph,
        features: &Matrix,
        mut dp: D,
    ) -> Result<Matrix, D::Error> {
        if features.rows() != graph.num_nodes() || features.cols() != self.config.dims[0] {
            return Err(TensorError::ShapeMismatch {
                lhs: features.shape(),
                rhs: (graph.num_nodes(), self.config.dims[0]),
            }
            .into());
        }
        // The first layer reads `features` in place; each layer's output
        // is the next one's input.
        let mut h = Cow::Borrowed(features);
        let last = self.layers.len() - 1;
        for (l, lw) in self.layers.iter().enumerate() {
            let next = self.layer(&mut dp, graph, &h, lw)?;
            // Hidden layers update through ReLU; the output layer stays
            // linear (logits).
            h = Cow::Owned(if l != last { dp.relu(next) } else { next });
        }
        Ok(h.into_owned())
    }

    /// One layer's aggregate and combine (GAT: transform, then attention).
    fn layer<D: GnnDatapath>(
        &self,
        dp: &mut D,
        graph: &CsrGraph,
        h: &Matrix,
        lw: &GnnLayerWeights,
    ) -> Result<Matrix, D::Error> {
        match self.config.kind {
            GnnKind::Gcn => {
                let agg = dp.aggregate(graph, h, Aggregation::Mean, true)?;
                dp.mm(&agg, &lw.w)
            }
            GnnKind::GraphSage => {
                let agg = dp.aggregate(graph, h, self.config.aggregation, false)?;
                dp.mm(&h.hconcat(&agg)?, &lw.w)
            }
            GnnKind::Gin => {
                let agg = dp.aggregate(graph, h, Aggregation::Sum, false)?;
                dp.mm(&h.scale(1.0 + self.epsilon).add(&agg)?, &lw.w)
            }
            GnnKind::Gat => {
                let z = dp.mm(h, &lw.w)?;
                // Per-node source/destination attention logits.
                let logits = |a: &[f64]| -> Vec<f64> {
                    let dot = |v: usize| z.row(v).iter().zip(a).fold(0.0, |s, (&x, &w)| s + x * w);
                    (0..z.rows()).map(dot).collect()
                };
                dp.attend(graph, &z, &logits(&lw.a_src), &logits(&lw.a_dst))
            }
        }
    }

    /// Aggregates neighbour features (plus optionally the vertex itself)
    /// with the given reduction — the reference semantics of GHOST's
    /// reduce units (exposed for validation against the optical
    /// implementation).
    ///
    /// Runs on the CSR sparse kernel ([`phox_tensor::sparse`]): rows are
    /// processed in parallel tiles, each row block accumulated in
    /// registers over its members in CSR order, and the result is
    /// bit-identical for any thread count.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `h` does not have one
    /// row per graph vertex.
    pub fn aggregate(
        &self,
        graph: &CsrGraph,
        h: &Matrix,
        agg: Aggregation,
        include_self: bool,
    ) -> Result<Matrix, TensorError> {
        Precision::F64.aggregate(graph, h, agg, include_self)
    }

    /// The pre-sparse dense-stack aggregation: per vertex, neighbour rows
    /// are copied into a freshly allocated stack matrix and reduced
    /// column-major — one allocation and a stride-`f` walk per vertex.
    ///
    /// Retained as the equivalence-test oracle for the sparse kernels:
    /// sums fold from `+0.0` in member order, as the kernel does.
    /// Production paths use [`GnnModel::aggregate`].
    ///
    /// # Panics
    ///
    /// Panics if `h` does not have one row per graph vertex.
    pub fn aggregate_dense_stack(
        &self,
        graph: &CsrGraph,
        h: &Matrix,
        agg: Aggregation,
        include_self: bool,
    ) -> Matrix {
        let f = h.cols();
        let mut out = Matrix::zeros(h.rows(), f);
        for v in 0..graph.num_nodes() {
            let neigh = graph.neighbors(v);
            let mut members: Vec<usize> = Vec::new();
            if include_self {
                members.push(v);
            }
            members.extend(neigh.iter().map(|&u| u as usize));
            if members.is_empty() {
                continue;
            }
            let mut stack = Matrix::zeros(members.len(), f);
            for (r, &u) in members.iter().enumerate() {
                for c in 0..f {
                    stack.set(r, c, h.get(u, c));
                }
            }
            match agg {
                Aggregation::Sum | Aggregation::Mean => {
                    let denom = if agg == Aggregation::Mean {
                        members.len() as f64
                    } else {
                        1.0
                    };
                    for c in 0..f {
                        // From +0.0, as the kernel folds: `Iterator::sum`
                        // starts from -0.0, so a column of -0.0 members
                        // would keep its sign here and lose it there.
                        let s = (0..stack.rows()).fold(0.0, |s, r| s + stack.get(r, c));
                        out.set(v, c, s / denom);
                    }
                }
                Aggregation::Max => {
                    for c in 0..f {
                        let m = (0..stack.rows())
                            .map(|r| stack.get(r, c))
                            .fold(f64::NEG_INFINITY, f64::max);
                        out.set(v, c, if m.is_finite() { m } else { 0.0 });
                    }
                }
            }
        }
        out
    }

    /// [`GnnModel::aggregate`] on the int8 sparse kernel
    /// ([`phox_tensor::sparse_i8::aggregate_dequant_into`]): `h` is
    /// quantized once per call, sums (the kernel's structural sum) and
    /// maxima reduce exactly in `i32` on the degree-bucketed schedule,
    /// and each row is dequantized into the output as soon as it is
    /// final, the mean dividing the exact integer sums in f64.
    /// Bit-identical for any thread count.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `h` does not have one
    /// row per graph vertex.
    pub fn aggregate_int8(
        &self,
        graph: &CsrGraph,
        h: &Matrix,
        agg: Aggregation,
        include_self: bool,
    ) -> Result<Matrix, TensorError> {
        Precision::Int8.aggregate(graph, h, agg, include_self)
    }
}

/// The ops of the GNN layer walk ([`GnnModel::forward_with`]) that
/// differ between datapaths. Two implement it: [`Precision`], the
/// digital reference, and the GHOST functional simulator's analog
/// datapath. Each layer aggregates before it combines, GAT runs its
/// transform before its attention, and a hidden layer's update comes
/// last. An analog datapath keys its noise streams on that order.
pub trait GnnDatapath {
    /// The ops' error; tensor errors convert into it.
    type Error: From<TensorError>;
    /// The combine (or GAT transform) product `h · W`.
    fn mm(&mut self, h: &Matrix, w: &Weight) -> Result<Matrix, Self::Error>;
    /// Reduces each vertex's in-neighbours, plus the vertex itself when
    /// `include_self`, with `agg`; an isolated vertex aggregates to zero.
    fn aggregate(
        &mut self,
        graph: &CsrGraph,
        h: &Matrix,
        agg: Aggregation,
        include_self: bool,
    ) -> Result<Matrix, Self::Error>;
    /// GAT's attention-weighted neighbour sum of the transformed features
    /// `z`: vertex `v` weighs in-neighbour `u` by the softmax, over `v`'s
    /// in-neighbours, of `LeakyReLU(src[u] + dst[v])` (slope 0.2). An
    /// isolated vertex keeps its own row of `z`.
    ///
    /// # Panics
    ///
    /// May panic if `src`, `dst` or `z` has fewer entries or rows than
    /// `graph` has vertices; the walk passes one per vertex.
    fn attend(
        &mut self,
        graph: &CsrGraph,
        z: &Matrix,
        src: &[f64],
        dst: &[f64],
    ) -> Result<Matrix, Self::Error>;
    /// The hidden-layer update: ReLU.
    fn relu(&mut self, h: Matrix) -> Matrix;
}

/// The digital reference: combine products at the precision,
/// aggregation on the int8 sparse kernel at [`Precision::Int8`] and on
/// the f64 one otherwise, GAT attention in f64, ReLU in place.
impl GnnDatapath for Precision {
    type Error = TensorError;

    fn mm(&mut self, h: &Matrix, w: &Weight) -> Result<Matrix, TensorError> {
        TransformerDatapath::mm(self, h, w)
    }

    fn aggregate(
        &mut self,
        graph: &CsrGraph,
        h: &Matrix,
        agg: Aggregation,
        include_self: bool,
    ) -> Result<Matrix, TensorError> {
        let n = graph.num_nodes();
        let mut out = Matrix::zeros(n, h.cols());
        let reduce = match agg {
            Aggregation::Sum => SparseReduce::Sum,
            Aggregation::Mean => SparseReduce::Mean,
            Aggregation::Max => SparseReduce::Max,
        };
        if *self != Precision::Int8 {
            sparse::aggregate_into(&graph.csr_view(), h, reduce, include_self, &mut out)?;
            return Ok(out);
        }
        if h.rows() != n {
            // The f64 kernel's error, before any quantization work.
            return Err(TensorError::ShapeMismatch {
                lhs: (n, n),
                rhs: h.shape(),
            });
        }
        let (view, q) = (graph.csr_i8_view(), Quantizer::calibrate(h).quantize(h));
        sparse_i8::aggregate_dequant_into(&view, &q, reduce, include_self, &mut out)?;
        Ok(out)
    }

    fn attend(
        &mut self,
        graph: &CsrGraph,
        z: &Matrix,
        src: &[f64],
        dst: &[f64],
    ) -> Result<Matrix, TensorError> {
        // Per-edge attention weights, laid out CSR-aligned so the
        // accumulation is one weighted SpMM through the sparse kernel.
        let n = graph.num_nodes();
        let mut alphas = vec![0.0; graph.num_edges()];
        let offsets = graph.offsets();
        for v in 0..n {
            let neigh = graph.neighbors(v);
            if neigh.is_empty() {
                continue;
            }
            let slot = &mut alphas[offsets[v]..offsets[v + 1]];
            for (a, &u) in slot.iter_mut().zip(neigh) {
                *a = ops::leaky_relu_scalar(src[u as usize] + dst[v], 0.2);
            }
            let m = slot.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let mut sum = 0.0;
            for l in slot.iter_mut() {
                *l = (*l - m).exp();
                sum += *l;
            }
            for l in slot.iter_mut() {
                *l /= sum;
            }
        }
        let attention = CsrView::new(n, n, offsets, graph.neighbor_ids(), Some(&alphas))?;
        let mut out = sparse::spmm(&attention, z)?;
        // Self-attention fallback: an isolated node keeps its own
        // transform.
        for v in 0..n {
            if graph.degree(v) == 0 {
                out.row_mut(v).copy_from_slice(z.row(v));
            }
        }
        Ok(out)
    }

    fn relu(&mut self, mut h: Matrix) -> Matrix {
        h.map_inplace(|v| v.max(0.0));
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phox_tensor::stats;

    fn triangle() -> CsrGraph {
        // Bidirectional triangle.
        CsrGraph::from_edges(3, &[(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)]).unwrap()
    }

    #[test]
    fn csr_construction_and_sorting() {
        let g = CsrGraph::from_edges(4, &[(2, 0), (1, 0), (3, 0)]).unwrap();
        assert_eq!(g.neighbors(0), &[1, 2, 3]);
        assert_eq!(g.degree(0), 3);
        assert_eq!(g.degree(1), 0);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.max_degree(), 3);
    }

    #[test]
    fn duplicate_and_self_loop_edges_are_merged_once() {
        // (0, 2) appears three times, (2, 2) is a self-loop.
        let g = CsrGraph::from_edges(3, &[(0, 2), (0, 2), (1, 2), (2, 2), (0, 2)]).unwrap();
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.neighbors(2), &[0, 1, 2]);
        assert_eq!(g.degree(2), 3);
        let mut x = Matrix::zeros(3, 1);
        x.set(0, 0, 6.0);
        x.set(1, 0, 3.0);
        x.set(2, 0, 9.0);
        let m = GnnModel::random(GnnConfig::two_layer(GnnKind::Gcn, 1, 2, 2), 9).unwrap();
        // The duplicated edge counts once: mean over {6, 3, 9}, not a
        // double-weighted 6.
        let mean = m.aggregate(&g, &x, Aggregation::Mean, false).unwrap();
        assert_eq!(mean.get(2, 0), 6.0);
        let sum = m.aggregate(&g, &x, Aggregation::Sum, false).unwrap();
        assert_eq!(sum.get(2, 0), 18.0);
    }

    #[test]
    fn aggregate_matches_dense_stack_reference() {
        let g = triangle();
        let x = Prng::new(21).fill_normal(3, 6, 0.0, 1.0);
        let m = GnnModel::random(GnnConfig::two_layer(GnnKind::Gcn, 6, 4, 2), 22).unwrap();
        for agg in [Aggregation::Sum, Aggregation::Mean, Aggregation::Max] {
            for include_self in [false, true] {
                let sparse = m.aggregate(&g, &x, agg, include_self).unwrap();
                let dense = m.aggregate_dense_stack(&g, &x, agg, include_self);
                assert_eq!(sparse, dense, "{agg} include_self={include_self}");
            }
        }
    }

    #[test]
    fn aggregates_reject_a_feature_matrix_of_the_wrong_height() {
        // Three vertices, two feature rows: a typed error from both
        // kernels, never a panic.
        let g = triangle();
        let x = Matrix::zeros(2, 4);
        let m = GnnModel::random(GnnConfig::two_layer(GnnKind::Gcn, 4, 4, 2), 23).unwrap();
        for agg in [Aggregation::Sum, Aggregation::Mean, Aggregation::Max] {
            for include_self in [false, true] {
                for result in [
                    m.aggregate(&g, &x, agg, include_self),
                    m.aggregate_int8(&g, &x, agg, include_self),
                ] {
                    assert!(
                        matches!(
                            result,
                            Err(TensorError::ShapeMismatch {
                                lhs: (3, 3),
                                rhs: (2, 4)
                            })
                        ),
                        "{agg} include_self={include_self}: {result:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn csr_rejects_bad_edges() {
        assert!(CsrGraph::from_edges(0, &[]).is_err());
        assert!(CsrGraph::from_edges(2, &[(0, 5)]).is_err());
    }

    #[test]
    fn all_kinds_produce_logits() {
        let g = triangle();
        let x = Prng::new(1).fill_normal(3, 8, 0.0, 1.0);
        for kind in [GnnKind::Gcn, GnnKind::GraphSage, GnnKind::Gin, GnnKind::Gat] {
            let m = GnnModel::random(GnnConfig::two_layer(kind, 8, 16, 4), 42).unwrap();
            let y = m.forward(&g, &x).unwrap();
            assert_eq!(y.shape(), (3, 4), "{kind}");
            assert!(y.as_slice().iter().all(|v| v.is_finite()), "{kind}");
        }
    }

    #[test]
    fn forward_shape_validation() {
        let g = triangle();
        let m = GnnModel::random(GnnConfig::two_layer(GnnKind::Gcn, 8, 16, 4), 1).unwrap();
        assert!(m.forward(&g, &Matrix::zeros(3, 7)).is_err());
        assert!(m.forward(&g, &Matrix::zeros(2, 8)).is_err());
    }

    #[test]
    fn gcn_on_uniform_features_is_uniform() {
        // Mean aggregation of identical features leaves them identical,
        // so all vertices get the same logits.
        let g = triangle();
        let x = Matrix::filled(3, 8, 0.5);
        let m = GnnModel::random(GnnConfig::two_layer(GnnKind::Gcn, 8, 16, 4), 2).unwrap();
        let y = m.forward(&g, &x).unwrap();
        for c in 0..4 {
            assert!((y.get(0, c) - y.get(1, c)).abs() < 1e-9);
            assert!((y.get(1, c) - y.get(2, c)).abs() < 1e-9);
        }
    }

    #[test]
    fn isolated_node_survives_all_kinds() {
        let g = CsrGraph::from_edges(3, &[(0, 1)]).unwrap(); // node 2 isolated
        let x = Prng::new(3).fill_normal(3, 4, 0.0, 1.0);
        for kind in [GnnKind::Gcn, GnnKind::GraphSage, GnnKind::Gin, GnnKind::Gat] {
            let m = GnnModel::random(GnnConfig::two_layer(kind, 4, 8, 2), 4).unwrap();
            let y = m.forward(&g, &x).unwrap();
            assert!(y.as_slice().iter().all(|v| v.is_finite()), "{kind}");
        }
    }

    #[test]
    fn gat_attention_weights_sum_to_one() {
        // Indirect check: with identical transforms, GAT output equals
        // the common value regardless of attention distribution.
        let g = triangle();
        let x = Matrix::filled(3, 4, 1.0);
        let m = GnnModel::random(GnnConfig::two_layer(GnnKind::Gat, 4, 4, 2), 5).unwrap();
        let y = m.forward(&g, &x).unwrap();
        for c in 0..2 {
            assert!((y.get(0, c) - y.get(1, c)).abs() < 1e-9);
        }
    }

    #[test]
    fn quantized_forward_tracks_full_precision() {
        let g = triangle();
        let x = Prng::new(6).fill_normal(3, 8, 0.0, 1.0);
        let m = GnnModel::random(GnnConfig::two_layer(GnnKind::Gcn, 8, 16, 4), 7).unwrap();
        let y = m.forward(&g, &x).unwrap();
        let yq = m
            .forward_with(&g, &x, Precision::FakeQuant { bits: 8 })
            .unwrap();
        assert!(stats::relative_error(&y, &yq) < 0.1);
    }

    #[test]
    fn census_counts_scale_with_edges() {
        let cfg = GnnConfig::two_layer(GnnKind::Gcn, 128, 64, 8);
        let sparse = cfg.census(1000, 5_000);
        let dense = cfg.census(1000, 50_000);
        assert!(dense.adds > sparse.adds * 9);
        assert_eq!(dense.macs, sparse.macs); // combine is edge-independent
    }

    #[test]
    fn sage_census_doubles_combine() {
        let gcn = GnnConfig::two_layer(GnnKind::Gcn, 128, 64, 8).census(1000, 5000);
        let sage = GnnConfig::two_layer(GnnKind::GraphSage, 128, 64, 8).census(1000, 5000);
        assert_eq!(sage.macs, gcn.macs * 2);
    }

    #[test]
    fn gat_census_adds_attention_work() {
        let gcn = GnnConfig::two_layer(GnnKind::Gcn, 128, 64, 8).census(1000, 5000);
        let gat = GnnConfig::two_layer(GnnKind::Gat, 128, 64, 8).census(1000, 5000);
        assert!(gat.macs > gcn.macs);
        assert!(gat.softmax_elements > 0);
        assert_eq!(gcn.softmax_elements, 0);
    }

    #[test]
    fn parameter_counts() {
        let gcn = GnnConfig::two_layer(GnnKind::Gcn, 100, 50, 10);
        assert_eq!(gcn.parameter_count(), 100 * 50 + 50 * 10);
        let sage = GnnConfig::two_layer(GnnKind::GraphSage, 100, 50, 10);
        assert_eq!(sage.parameter_count(), 2 * (100 * 50 + 50 * 10));
        let gat = GnnConfig::two_layer(GnnKind::Gat, 100, 50, 10);
        assert_eq!(gat.parameter_count(), 100 * 50 + 50 * 10 + 2 * 50 + 2 * 10);
    }

    #[test]
    fn config_validation() {
        assert!(GnnConfig {
            kind: GnnKind::Gcn,
            dims: vec![8],
            aggregation: Aggregation::Sum,
        }
        .validated()
        .is_err());
        assert!(GnnConfig {
            kind: GnnKind::Gcn,
            dims: vec![8, 0, 4],
            aggregation: Aggregation::Sum,
        }
        .validated()
        .is_err());
    }

    #[test]
    fn aggregate_reductions_match_reference() {
        let g = CsrGraph::from_edges(3, &[(0, 2), (1, 2)]).unwrap();
        let mut x = Matrix::zeros(3, 2);
        x.set(0, 0, 5.0);
        x.set(1, 0, 3.0);
        x.set(2, 1, 7.0);
        let m = GnnModel::random(GnnConfig::two_layer(GnnKind::Gcn, 2, 4, 2), 8).unwrap();

        let sum = m.aggregate(&g, &x, Aggregation::Sum, false).unwrap();
        assert_eq!(sum.get(2, 0), 8.0);
        assert_eq!(sum.get(2, 1), 0.0);

        let mean = m.aggregate(&g, &x, Aggregation::Mean, false).unwrap();
        assert_eq!(mean.get(2, 0), 4.0);

        let max = m.aggregate(&g, &x, Aggregation::Max, false).unwrap();
        assert_eq!(max.get(2, 0), 5.0);

        // include_self folds the vertex's own features in.
        let sum_self = m.aggregate(&g, &x, Aggregation::Sum, true).unwrap();
        assert_eq!(sum_self.get(2, 1), 7.0);

        // Isolated vertices aggregate to zero without self.
        assert_eq!(sum.get(0, 0), 0.0);
        assert_eq!(max.get(0, 0), 0.0);
    }
}
