//! Synthetic workload generators with published dataset shapes.
//!
//! The paper evaluates GHOST on standard graph benchmarks and TRON on
//! standard NLP/vision models. Real datasets are not available offline, so
//! we generate deterministic synthetic graphs whose *shape statistics*
//! (vertex count, edge count, feature width, class count, degree skew)
//! match the published benchmarks — EPB/GOPS depend only on those shapes
//! (see the substitution table in DESIGN.md).
//!
//! Two generators are provided:
//!
//! * [`GraphShape::instantiate`] uses an R-MAT-style recursive generator,
//!   matching the heavy-tailed degree distributions of real-world graphs
//!   (the irregularity that makes GNN acceleration hard, §III);
//! * [`sbm`] builds stochastic-block-model graphs with planted community
//!   structure, used by the accuracy experiments so that classification is
//!   learnable-by-construction.

use phox_tensor::{gemm_i8, Matrix, Prng, TensorError};

use crate::gnn::CsrGraph;

/// Shape statistics of a graph benchmark.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphShape {
    /// Benchmark name.
    pub name: String,
    /// Vertex count.
    pub nodes: usize,
    /// Directed edge count.
    pub edges: usize,
    /// Input feature width.
    pub features: usize,
    /// Number of classes.
    pub classes: usize,
}

impl GraphShape {
    /// Cora citation network: 2 708 vertices, 10 556 edges, 1 433
    /// features, 7 classes.
    pub fn cora() -> Self {
        GraphShape {
            name: "Cora".into(),
            nodes: 2_708,
            edges: 10_556,
            features: 1_433,
            classes: 7,
        }
    }

    /// Citeseer citation network: 3 327 / 9 104 / 3 703 / 6.
    pub fn citeseer() -> Self {
        GraphShape {
            name: "Citeseer".into(),
            nodes: 3_327,
            edges: 9_104,
            features: 3_703,
            classes: 6,
        }
    }

    /// Pubmed citation network: 19 717 / 88 648 / 500 / 3.
    pub fn pubmed() -> Self {
        GraphShape {
            name: "Pubmed".into(),
            nodes: 19_717,
            edges: 88_648,
            features: 500,
            classes: 3,
        }
    }

    /// Reddit post graph: 232 965 / 114 615 892 / 602 / 41. Only used for
    /// shape-level performance modelling (never instantiated in tests).
    pub fn reddit() -> Self {
        GraphShape {
            name: "Reddit".into(),
            nodes: 232_965,
            edges: 114_615_892,
            features: 602,
            classes: 41,
        }
    }

    /// All four benchmark shapes in the paper's GHOST evaluation order.
    pub fn paper_benchmarks() -> Vec<GraphShape> {
        vec![
            GraphShape::cora(),
            GraphShape::citeseer(),
            GraphShape::pubmed(),
            GraphShape::reddit(),
        ]
    }

    /// Average degree.
    pub fn avg_degree(&self) -> f64 {
        self.edges as f64 / self.nodes as f64
    }

    /// Instantiates an R-MAT-style graph with this shape (deterministic in
    /// `seed`). Vertex ids are scrambled so the power-law hubs are not
    /// clustered at low indices. Exactly `self.edges` *distinct*
    /// non-self-loop edges are produced: [`CsrGraph::from_edges`] merges
    /// duplicates, so the generator rejects repeated pairs up front (with
    /// a uniform-random fill pass for the unlikely case the skewed sampler
    /// stalls on a dense request). [`GraphShape::in_degrees`] counts this
    /// graph's degrees from the same sample without building it.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidDimension`] for degenerate shapes or
    /// when more edges are requested than distinct vertex pairs exist.
    pub fn instantiate(&self, seed: u64) -> Result<CsrGraph, TensorError> {
        self.rmat_edges(seed)?.into_graph(self.nodes)
    }

    /// The in-degree of every vertex of [`GraphShape::instantiate`]`(seed)`,
    /// indexed by vertex id: the same sample, counted straight from its
    /// kept pairs, with no CSR build and no per-row sort. GHOST's
    /// lane-balance estimate reads nothing else of the graph.
    ///
    /// # Errors
    ///
    /// The same as [`GraphShape::instantiate`].
    pub fn in_degrees(&self, seed: u64) -> Result<Vec<usize>, TensorError> {
        Ok(self.rmat_edges(seed)?.in_degrees(self.nodes))
    }

    /// The R-MAT sample behind [`GraphShape::instantiate`] and
    /// [`GraphShape::in_degrees`]: the kept pairs, in the order drawn.
    ///
    /// Each attempt descends `levels` quadrant levels on one draw each.
    /// Draws come from [`Prng::fill_u64`] in batches of up to
    /// [`RMAT_BATCH`] attempts, and a batch never runs past
    /// `max_attempts`, so a request that stalls there hands the uniform
    /// fill the generator state after exactly `max_attempts` attempts.
    /// A batch that fills the target leaves its later draws unused; the
    /// generator is not read again.
    fn rmat_edges(&self, seed: u64) -> Result<DistinctEdges, TensorError> {
        if self.nodes == 0 {
            return Err(TensorError::InvalidDimension {
                what: "graph shape has zero nodes",
            });
        }
        let max_pairs = self.nodes.saturating_mul(self.nodes.saturating_sub(1));
        if self.edges > max_pairs {
            return Err(TensorError::InvalidDimension {
                what: "graph shape requests more edges than distinct vertex pairs",
            });
        }
        let nodes = self.nodes;
        let mut rng = Prng::new(seed);
        let quadrants = RmatThresholds::graph500();
        let levels = (nodes as f64).log2().ceil() as usize;
        // Simple id scramble (multiply by an odd constant, reduce mod
        // nodes), tabulated once so the sampling loop does no division.
        // Cells at or past `nodes` are rejected before the lookup.
        let scramble: Vec<u32> = (0..nodes)
            .map(|v| ((v.wrapping_mul(0x9E37_79B1) >> 7) % nodes) as u32)
            .collect();
        let mut edges = DistinctEdges::new(self.edges, nodes);
        let mut attempts = 0usize;
        let max_attempts = self.edges.saturating_mul(50).max(10_000);
        // A one-node shape has no levels, but also no edge to draw.
        let mut draws = vec![0u64; levels * RMAT_BATCH];
        let mut cells = [(0usize, 0usize); RMAT_BATCH];
        while !edges.is_full() && attempts < max_attempts {
            let batch = (max_attempts - attempts).min(RMAT_BATCH);
            attempts += batch;
            let draws = &mut draws[..batch * levels];
            rng.fill_u64(draws);
            let cells = &mut cells[..batch];
            quadrants.cells(draws, levels, cells);
            for &(row, col) in cells.iter() {
                if edges.is_full() {
                    break;
                }
                if row < nodes && col < nodes {
                    // The scramble is not injective, so distinct cells
                    // can collide on a vertex: `offer` rejects the
                    // self-loop.
                    edges.offer(scramble[row], scramble[col]);
                }
            }
        }
        // Fallback for the case the skewed sampler keeps re-hitting its
        // hot cells.
        edges.fill_uniform(&mut rng, nodes);
        Ok(edges)
    }

    /// Random node features for this shape (deterministic in `seed`).
    pub fn random_features(&self, seed: u64) -> Matrix {
        Prng::new(seed).fill_uniform(self.nodes, self.features, 0.0, 1.0)
    }
}

/// Attempts per [`Prng::fill_u64`] batch of the R-MAT sampler.
const RMAT_BATCH: usize = 16;

/// R-MAT partition probabilities (a, b, c) of the top-left, top-right and
/// bottom-left quadrants, d = 0.05 the rest: the standard Graph500 skew.
const GRAPH500: (f64, f64, f64) = (0.57, 0.19, 0.19);

/// R-MAT's quadrant thresholds `a`, `a + b` and `a + b + c` as integers
/// on the 53-bit grid of [`Prng::next_f64`].
///
/// `next_f64` is `(u >> 11)·2⁻⁵³`: an integer `k < 2⁵³` scaled by a power
/// of two, so exact. For a threshold `t` in `[0, 1]`, `t·2⁵³` is exact
/// too, and `k·2⁻⁵³ >= t` holds exactly when `k >= ceil(t·2⁵³)`. Each
/// comparison on `u >> 11` is therefore the `f64` comparison it
/// replaces.
struct RmatThresholds {
    a: u64,
    ab: u64,
    abc: u64,
}

impl RmatThresholds {
    fn graph500() -> Self {
        let (a, b, c) = GRAPH500;
        // The least 53-bit `k` with `k·2⁻⁵³ >= t`.
        let grid = |t: f64| (t * (1u64 << 53) as f64).ceil() as u64;
        RmatThresholds {
            a: grid(a),
            ab: grid(a + b),
            abc: grid(a + b + c),
        }
    }

    /// The cell one attempt lands on. Each level halves the row and the
    /// column range: a draw past `a + b` takes the bottom half of the
    /// rows, one in `[a, a + b)` or past `a + b + c` the right half of
    /// the columns. The thresholds are ordered, so a draw passes none,
    /// the first, the first two or all three of them, and the column bit
    /// is the parity of that count: `c1 ^ c2 ^ c3`. The two bits shift in
    /// most significant first, so no branch depends on the draw.
    #[inline]
    fn cell(&self, draws: &[u64]) -> (usize, usize) {
        let (mut row, mut col) = (0usize, 0usize);
        for &u in draws {
            let k = u >> 11;
            let (c1, c2, c3) = (k >= self.a, k >= self.ab, k >= self.abc);
            row = (row << 1) | usize::from(c2);
            col = (col << 1) | usize::from(c1 ^ c2 ^ c3);
        }
        (row, col)
    }

    /// The cell of each attempt of `draws` (`levels` draws apiece) into
    /// `cells`. Where the int8 kernels are dispatched
    /// ([`gemm_i8::simd_active`]: AVX2 present and `PHOX_FORCE_SCALAR`
    /// not set), each group of four attempts descends in one AVX2
    /// register, one lane per attempt; [`RmatThresholds::cell`] takes the
    /// rest, and the whole batch elsewhere. Both give the same cells.
    fn cells(&self, draws: &[u64], levels: usize, cells: &mut [(usize, usize)]) {
        #[cfg(target_arch = "x86_64")]
        let done = if gemm_i8::simd_active() {
            let done = cells.len() / 4 * 4;
            // SAFETY: `simd_active` is true only where AVX2 is available.
            unsafe { x86::cells_avx2(self, &draws[..done * levels], levels, &mut cells[..done]) };
            done
        } else {
            0
        };
        #[cfg(not(target_arch = "x86_64"))]
        let done = 0;
        let rest = draws[done * levels..].chunks_exact(levels);
        for (cell, attempt) in cells[done..].iter_mut().zip(rest) {
            *cell = self.cell(attempt);
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::{
        __m256i, _mm256_cmpgt_epi64, _mm256_set1_epi64x, _mm256_setr_epi64x, _mm256_setzero_si256,
        _mm256_slli_epi64, _mm256_srli_epi64, _mm256_storeu_si256, _mm256_sub_epi64,
        _mm256_xor_si256,
    };

    use super::RmatThresholds;

    /// `k >= t` in each lane as `k > t − 1`, all ones where it holds. A
    /// signed compare is exact here: `k < 2⁵³` and `t ≤ 2⁵³` are
    /// non-negative as `i64`, and `t = 0` gives `−1`, below every `k`.
    #[inline(always)]
    unsafe fn at_least(k: __m256i, t: u64) -> __m256i {
        _mm256_cmpgt_epi64(k, _mm256_set1_epi64x(t as i64 - 1))
    }

    /// AVX2 [`RmatThresholds::cells`] for whole groups of four attempts:
    /// lane `j` reads attempt `j`'s draws in order and makes
    /// [`RmatThresholds::cell`]'s comparisons and shifts. A passed
    /// comparison is all ones (`−1`), so subtracting it shifts in a 1.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available.
    #[target_feature(enable = "avx2")]
    pub unsafe fn cells_avx2(
        t: &RmatThresholds,
        draws: &[u64],
        levels: usize,
        cells: &mut [(usize, usize)],
    ) {
        for (group, out) in draws
            .chunks_exact(4 * levels)
            .zip(cells.chunks_exact_mut(4))
        {
            let (d0, rest) = group.split_at(levels);
            let (d1, rest) = rest.split_at(levels);
            let (d2, d3) = rest.split_at(levels);
            let (mut row, mut col) = (_mm256_setzero_si256(), _mm256_setzero_si256());
            for (((&u0, &u1), &u2), &u3) in d0.iter().zip(d1).zip(d2).zip(d3) {
                let u = _mm256_setr_epi64x(u0 as i64, u1 as i64, u2 as i64, u3 as i64);
                let k = _mm256_srli_epi64::<11>(u);
                let (c1, c2, c3) = (at_least(k, t.a), at_least(k, t.ab), at_least(k, t.abc));
                row = _mm256_sub_epi64(_mm256_slli_epi64::<1>(row), c2);
                let right = _mm256_xor_si256(_mm256_xor_si256(c1, c2), c3);
                col = _mm256_sub_epi64(_mm256_slli_epi64::<1>(col), right);
            }
            let (mut rows, mut cols) = ([0u64; 4], [0u64; 4]);
            // SAFETY: each array holds four `u64`s, one unaligned 32-byte
            // store apiece.
            _mm256_storeu_si256(rows.as_mut_ptr().cast(), row);
            _mm256_storeu_si256(cols.as_mut_ptr().cast(), col);
            for (cell, (&r, &c)) in out.iter_mut().zip(rows.iter().zip(&cols)) {
                *cell = (r as usize, c as usize);
            }
        }
    }
}

/// Generates a directed Chung–Lu power-law graph: exactly `edges`
/// distinct non-self-loop edges over `nodes` vertices, with both
/// endpoints drawn proportionally to the weight `(i + 1)^(-1/(gamma - 1))`
/// so that expected degrees follow a power law with exponent `gamma`.
///
/// This is the large-graph workload generator behind the GHOST scaling
/// harness: it reaches 100k-node / 1M-edge shapes in well under a second,
/// and the resulting hub-dominated degree distribution is exactly the
/// irregularity the degree-bucketed sparse schedule exists for. The
/// output is deterministic in `seed` (the dedup set is membership-only,
/// never iterated).
///
/// Each attempt draws its source, then its destination, from
/// [`Prng::fill_u64`] batches of up to [`PICK_BATCH`] attempts. A batch
/// never runs past `max_attempts`, so a request that stalls there hands
/// the uniform fill the generator state after exactly `max_attempts`
/// attempts; a batch that fills the target leaves its later draws
/// unused, and the generator is not read again. Each pair's slot in the
/// dedup set is prefetched as it is drawn, and the batch is offered in
/// draw order afterwards.
///
/// # Errors
///
/// Returns [`TensorError::InvalidDimension`] for fewer than two nodes,
/// `gamma <= 1`, or more edges than distinct vertex pairs.
pub fn power_law(
    nodes: usize,
    edges: usize,
    gamma: f64,
    seed: u64,
) -> Result<CsrGraph, TensorError> {
    if nodes < 2 {
        return Err(TensorError::InvalidDimension {
            what: "power-law graph needs at least two nodes",
        });
    }
    if gamma <= 1.0 || !gamma.is_finite() {
        return Err(TensorError::InvalidDimension {
            what: "power-law exponent must be finite and > 1",
        });
    }
    if edges > nodes.saturating_mul(nodes - 1) {
        return Err(TensorError::InvalidDimension {
            what: "power-law graph requests more edges than distinct vertex pairs",
        });
    }
    let mut rng = Prng::new(seed);
    let endpoints = ChungLu::new(nodes, gamma);
    let mut list = DistinctEdges::new(edges, nodes);
    let mut attempts = 0usize;
    let max_attempts = edges.saturating_mul(50).max(10_000);
    let mut draws = [0u64; 2 * PICK_BATCH];
    let mut pairs = [(0u32, 0u32); PICK_BATCH];
    while !list.is_full() && attempts < max_attempts {
        let batch = (max_attempts - attempts).min(PICK_BATCH);
        attempts += batch;
        let draws = &mut draws[..2 * batch];
        rng.fill_u64(draws);
        let pairs = &mut pairs[..batch];
        for (pair, attempt) in pairs.iter_mut().zip(draws.chunks_exact(2)) {
            *pair = (endpoints.pick(attempt[0]), endpoints.pick(attempt[1]));
            list.prefetch(pair.0, pair.1);
        }
        for &(src, dst) in pairs.iter() {
            if list.is_full() {
                break;
            }
            list.offer(src, dst);
        }
    }
    // Dense requests: hub-to-hub pairs saturate long before the edge
    // budget does.
    list.fill_uniform(&mut rng, nodes);
    list.into_graph(nodes)
}

/// Attempts per [`Prng::fill_u64`] batch of [`power_law`]'s sampler.
const PICK_BATCH: usize = 32;

/// Chung–Lu endpoint sampling by inverse transform: vertex `i` has weight
/// `w_i = (i + 1)^(-1/(gamma - 1))`, and a draw `x` uniform in
/// `[0, total)` picks the first vertex whose cumulative weight exceeds
/// `x`, `cumulative.partition_point(|&c| c <= x)`, or the last vertex if
/// none does.
///
/// A binary search over all of a 100k-node table is a chain of ~17
/// dependent loads, most of them cache misses. A guide table cuts it to
/// a few neighbouring entries: the range `[0, total)` splits into `B =
/// nodes.next_power_of_two()` equal buckets, and `guide[b]` counts the
/// cumulative weights at or below bucket `b`'s lower edge `b·(total/B)`.
/// A draw in bucket `b = ⌊x·(B/total)⌋` is searched for only within
/// `cumulative[guide[b − 1]..guide[b + 2]]` (from 0 at `b = 0`, to the
/// end when `b + 2 ≥ B`). `B` is a power of two, so `total/B` is exact;
/// the rounding of `x·(B/total)` and of each edge is a few units in the
/// last place of `x`, far less than the bucket of margin on either side,
/// so the lower edge lies at or below `x` and the upper one above it.
/// The search is monotone in its threshold, so it returns the full
/// search's vertex for every draw.
struct ChungLu {
    cumulative: Vec<f64>,
    total: f64,
    guide: Vec<usize>,
    /// `B / total`: a draw's bucket is `⌊x · buckets_per_weight⌋`.
    buckets_per_weight: f64,
}

impl ChungLu {
    /// The sampler over `nodes ≥ 1` vertices with exponent `gamma > 1`.
    fn new(nodes: usize, gamma: f64) -> Self {
        let alpha = -1.0 / (gamma - 1.0);
        let mut cumulative = Vec::with_capacity(nodes);
        let mut total = 0.0;
        for i in 0..nodes {
            total += ((i + 1) as f64).powf(alpha);
            cumulative.push(total);
        }
        Self::over(cumulative)
    }

    /// The sampler over a non-empty, non-decreasing table of positive
    /// cumulative weights.
    fn over(cumulative: Vec<f64>) -> Self {
        let (nodes, total) = (cumulative.len(), cumulative[cumulative.len() - 1]);
        let buckets = nodes.next_power_of_two();
        let width = total / buckets as f64;
        // `cumulative.partition_point(|&c| c <= edge)` for each ascending
        // edge, as one merge walk.
        let mut below = 0;
        let guide = (0..buckets)
            .map(|b| {
                let edge = b as f64 * width;
                while below < nodes && cumulative[below] <= edge {
                    below += 1;
                }
                below
            })
            .collect();
        ChungLu {
            cumulative,
            total,
            guide,
            buckets_per_weight: buckets as f64 / total,
        }
    }

    /// The vertex the raw draw `raw` picks: [`ChungLu::vertex`] of
    /// `Prng::unit_f64(raw) · total`, as a [`Prng::next_f64`] draw times
    /// `total`.
    #[inline]
    fn pick(&self, raw: u64) -> u32 {
        self.vertex(Prng::unit_f64(raw) * self.total)
    }

    /// `cumulative.partition_point(|&c| c <= x).min(nodes − 1)`, for any
    /// `x ≥ 0`, searched within `x`'s bucket and one on either side.
    #[inline]
    fn vertex(&self, x: f64) -> u32 {
        let (guide, nodes) = (&self.guide, self.cumulative.len());
        let b = ((x * self.buckets_per_weight) as usize).min(guide.len() - 1);
        let lo = if b == 0 { 0 } else { guide[b - 1] };
        let hi = guide.get(b + 2).copied().unwrap_or(nodes);
        let found = lo + self.cumulative[lo..hi].partition_point(|&c| c <= x);
        found.min(nodes - 1) as u32
    }
}

/// The distinct directed non-self-loop edges a generator has kept, in
/// the order it drew them, up to a fixed target count.
///
/// [`CsrGraph::from_edges`] merges duplicates, so both generators reject
/// repeated pairs up front to hit their edge count exactly. The dedup
/// set only answers whether a pair was kept: it is never iterated, so
/// neither its representation nor its hasher can reach the output, and
/// determinism holds.
struct DistinctEdges {
    list: Vec<(u32, u32)>,
    seen: PairSet,
    target: usize,
}

impl DistinctEdges {
    fn new(target: usize, nodes: usize) -> Self {
        DistinctEdges {
            list: Vec::with_capacity(target),
            seen: PairSet::new(nodes, target),
            target,
        }
    }

    fn is_full(&self) -> bool {
        self.list.len() >= self.target
    }

    /// Keeps `src -> dst` unless it is a self-loop or already kept.
    /// Callers offer only while the list is short of its target, so the
    /// push never reallocates.
    #[inline]
    fn offer(&mut self, src: u32, dst: u32) {
        let new = src != dst && self.seen.insert(src, dst);
        // Push, then drop the pair again unless it is new: no branch
        // waits on the set's answer, which a skewed sampler cannot
        // predict.
        let kept = self.list.len();
        self.list.push((src, dst));
        self.list.truncate(kept + usize::from(new));
    }

    /// Starts loading what an offer of `src -> dst` reads first.
    #[inline]
    fn prefetch(&self, src: u32, dst: u32) {
        self.seen.prefetch(src, dst);
    }

    /// Uniform rejection sampling over `nodes` vertices until the target
    /// is reached: completes requests too dense for a skewed sampler.
    fn fill_uniform(&mut self, rng: &mut Prng, nodes: usize) {
        while !self.is_full() {
            let src = (rng.next_u64() % nodes as u64) as u32;
            let dst = (rng.next_u64() % nodes as u64) as u32;
            self.offer(src, dst);
        }
    }

    /// Each vertex's count of kept edges into it: its in-degree in
    /// [`DistinctEdges::into_graph`], whose pairs are already distinct.
    fn in_degrees(&self, nodes: usize) -> Vec<usize> {
        let mut degrees = vec![0; nodes];
        for &(_, dst) in &self.list {
            degrees[dst as usize] += 1;
        }
        degrees
    }

    fn into_graph(self, nodes: usize) -> Result<CsrGraph, TensorError> {
        CsrGraph::from_edges(nodes, &self.list)
    }
}

/// Most ordered vertex pairs tracked as one bit each: 2²² bits (512
/// KiB), a 2048-node graph such as GHOST's lane-balance sample.
const DENSE_PAIR_BITS: usize = 1 << 22;

/// The pairs a [`DistinctEdges`] has kept, sized by the vertex count: a
/// bitset over all `nodes²` ordered pairs while it fits in
/// [`DENSE_PAIR_BITS`], otherwise a [`PairTable`] (large graphs such as
/// a 100k-node `power_law`, whose bitset would be over a gigabyte).
enum PairSet {
    Dense { bits: Vec<u64>, nodes: usize },
    Table(PairTable),
}

impl PairSet {
    fn new(nodes: usize, target: usize) -> Self {
        match nodes.checked_mul(nodes) {
            Some(pairs) if pairs <= DENSE_PAIR_BITS => PairSet::Dense {
                bits: vec![0; pairs.div_ceil(64)],
                nodes,
            },
            _ => PairSet::Table(PairTable::new(target)),
        }
    }

    /// Adds `src -> dst` (both below `nodes`, `src != dst`), returning
    /// whether it was new.
    #[inline]
    fn insert(&mut self, src: u32, dst: u32) -> bool {
        match self {
            PairSet::Dense { bits, nodes } => {
                let pair = src as usize * *nodes + dst as usize;
                let (word, bit) = (&mut bits[pair / 64], 1u64 << (pair % 64));
                let new = *word & bit == 0;
                *word |= bit;
                new
            }
            PairSet::Table(table) => table.insert(pair_key(src, dst)),
        }
    }

    /// Starts loading the memory an insert of `src -> dst` reads first.
    /// The bitset fits in L2 and is left alone.
    #[inline]
    fn prefetch(&self, src: u32, dst: u32) {
        if let PairSet::Table(table) = self {
            table.prefetch(pair_key(src, dst));
        }
    }
}

/// `src -> dst` packed as `src << 32 | dst`: zero only for the self-loop
/// `0 -> 0`.
#[inline]
fn pair_key(src: u32, dst: u32) -> u64 {
    (u64::from(src) << 32) | u64::from(dst)
}

/// A membership-only set of non-zero `u64` keys by open addressing: a
/// power-of-two slot array at least twice as long as the most keys it
/// will hold, `0` marking an empty slot, and linear probing from each
/// key's home slot. [`DistinctEdges`] inserts only packed non-self-loop
/// pairs ([`pair_key`]), never zero, and at most its target count, so
/// the table is at most half full and a probe always ends.
///
/// A key's first probe reads one slot of a table far larger than the
/// caches, so [`PairTable::prefetch`] can start that load while the
/// sampler draws the next pairs.
struct PairTable {
    slots: Vec<u64>,
    mask: usize,
}

impl PairTable {
    /// A table for up to `keys` keys.
    fn new(keys: usize) -> Self {
        let len = keys.saturating_mul(2).next_power_of_two();
        PairTable {
            slots: vec![0; len],
            mask: len - 1,
        }
    }

    /// Where a probe for `key` starts: one folded 128-bit multiply,
    /// which spreads both endpoints of a packed pair into the low bits
    /// that pick the slot. The keys are generator output, not
    /// adversarial input, so this needs no collision resistance.
    #[inline]
    fn home(&self, key: u64) -> usize {
        let product = u128::from(key) * 0x9E37_79B9_7F4A_7C15;
        ((product >> 64) as u64 ^ product as u64) as usize & self.mask
    }

    /// Adds the non-zero `key`, returning whether it was new.
    #[inline]
    fn insert(&mut self, key: u64) -> bool {
        let mut slot = self.home(key);
        loop {
            match self.slots[slot] {
                0 => {
                    self.slots[slot] = key;
                    return true;
                }
                held if held == key => return false,
                _ => slot = (slot + 1) & self.mask,
            }
        }
    }

    /// Starts loading the cache line of `key`'s home slot. A hint only:
    /// no value changes.
    #[inline]
    fn prefetch(&self, key: u64) {
        #[cfg(target_arch = "x86_64")]
        {
            use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            let slot: *const u64 = &self.slots[self.home(key)];
            // SAFETY: SSE is part of the x86_64 baseline, and a prefetch
            // reads nothing architecturally and cannot fault; `slot`
            // points into the table anyway.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(slot.cast()) };
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = key;
    }
}

/// A small labelled graph classification task (graph + features +
/// ground-truth labels), produced by [`sbm`].
#[derive(Debug, Clone, PartialEq)]
pub struct LabelledGraph {
    /// The graph.
    pub graph: CsrGraph,
    /// Node features, `nodes x features`.
    pub features: Matrix,
    /// Ground-truth community label per node.
    pub labels: Vec<usize>,
}

/// Generates a stochastic-block-model graph: `communities` equally-sized
/// groups of `per_community` vertices, intra-community edge probability
/// `p_in`, inter-community `p_out`, with class-correlated features
/// (community mean + noise).
///
/// # Errors
///
/// Returns [`TensorError::InvalidDimension`] for zero sizes or
/// probabilities outside `[0, 1]`.
pub fn sbm(
    communities: usize,
    per_community: usize,
    features: usize,
    p_in: f64,
    p_out: f64,
    seed: u64,
) -> Result<LabelledGraph, TensorError> {
    if communities == 0 || per_community == 0 || features == 0 {
        return Err(TensorError::InvalidDimension {
            what: "sbm sizes must be non-zero",
        });
    }
    if !(0.0..=1.0).contains(&p_in) || !(0.0..=1.0).contains(&p_out) {
        return Err(TensorError::InvalidDimension {
            what: "sbm probabilities must be in [0, 1]",
        });
    }
    let n = communities * per_community;
    let mut rng = Prng::new(seed);
    let labels: Vec<usize> = (0..n).map(|v| v / per_community).collect();

    let mut edges = Vec::new();
    for u in 0..n {
        for v in 0..n {
            if u == v {
                continue;
            }
            let p = if labels[u] == labels[v] { p_in } else { p_out };
            if rng.bernoulli(p) {
                edges.push((u as u32, v as u32));
            }
        }
    }
    let graph = CsrGraph::from_edges(n, &edges)?;

    // Community-mean features: mean vector per class, unit-ish noise.
    let mut means = Vec::with_capacity(communities);
    for _ in 0..communities {
        let m: Vec<f64> = (0..features).map(|_| rng.uniform(-1.0, 1.0)).collect();
        means.push(m);
    }
    let mut feats = Matrix::zeros(n, features);
    for v in 0..n {
        for c in 0..features {
            feats.set(v, c, means[labels[v]][c] + rng.normal(0.0, 0.3));
        }
    }
    Ok(LabelledGraph {
        graph,
        features: feats,
        labels,
    })
}

/// A token-sequence workload for transformer accuracy experiments:
/// sequences whose mean embedding determines the class.
#[derive(Debug, Clone, PartialEq)]
pub struct LabelledSequences {
    /// One matrix (`seq_len x d_model`) per example.
    pub inputs: Vec<Matrix>,
    /// Class label per example.
    pub labels: Vec<usize>,
    /// Class mean embeddings (`classes x d_model`), usable as a fixed
    /// readout.
    pub class_means: Matrix,
}

/// Generates `examples` sequences of shape `seq_len x d_model` in
/// `classes` classes; each sequence is its class-mean embedding plus
/// per-token noise.
///
/// # Errors
///
/// Returns [`TensorError::InvalidDimension`] for zero sizes.
pub fn labelled_sequences(
    examples: usize,
    classes: usize,
    seq_len: usize,
    d_model: usize,
    seed: u64,
) -> Result<LabelledSequences, TensorError> {
    if examples == 0 || classes == 0 || seq_len == 0 || d_model == 0 {
        return Err(TensorError::InvalidDimension {
            what: "sequence task sizes must be non-zero",
        });
    }
    let mut rng = Prng::new(seed);
    let class_means = rng.fill_uniform(classes, d_model, -1.0, 1.0);
    let mut inputs = Vec::with_capacity(examples);
    let mut labels = Vec::with_capacity(examples);
    for e in 0..examples {
        let label = e % classes;
        let mut x = Matrix::zeros(seq_len, d_model);
        for t in 0..seq_len {
            for c in 0..d_model {
                x.set(t, c, class_means.get(label, c) + rng.normal(0.0, 0.5));
            }
        }
        inputs.push(x);
        labels.push(label);
    }
    Ok(LabelledSequences {
        inputs,
        labels,
        class_means,
    })
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;

    #[test]
    fn published_shapes() {
        let cora = GraphShape::cora();
        assert_eq!(
            (cora.nodes, cora.edges, cora.features, cora.classes),
            (2708, 10556, 1433, 7)
        );
        assert_eq!(GraphShape::paper_benchmarks().len(), 4);
        assert!(GraphShape::reddit().avg_degree() > 400.0);
    }

    #[test]
    fn rmat_instantiation_matches_shape() {
        let shape = GraphShape {
            name: "test".into(),
            nodes: 500,
            edges: 2_000,
            features: 16,
            classes: 4,
        };
        let g = shape.instantiate(1).unwrap();
        assert_eq!(g.num_nodes(), 500);
        assert_eq!(g.num_edges(), 2_000);
    }

    #[test]
    fn rmat_is_deterministic() {
        let shape = GraphShape {
            name: "t".into(),
            nodes: 200,
            edges: 800,
            features: 8,
            classes: 2,
        };
        assert_eq!(shape.instantiate(7).unwrap(), shape.instantiate(7).unwrap());
    }

    #[test]
    fn rmat_degree_distribution_is_skewed() {
        let shape = GraphShape {
            name: "t".into(),
            nodes: 1_000,
            edges: 8_000,
            features: 8,
            classes: 2,
        };
        let g = shape.instantiate(3).unwrap();
        // Hubs: the max degree should far exceed the average (power law).
        assert!(
            g.max_degree() as f64 > 4.0 * g.avg_degree(),
            "max {} avg {}",
            g.max_degree(),
            g.avg_degree()
        );
    }

    #[test]
    fn power_law_matches_requested_shape() {
        let g = power_law(2_000, 16_000, 2.2, 5).unwrap();
        assert_eq!(g.num_nodes(), 2_000);
        assert_eq!(g.num_edges(), 16_000);
        // No self-loops survive generation.
        for v in 0..g.num_nodes() {
            assert!(!g.neighbors(v).contains(&(v as u32)));
        }
    }

    #[test]
    fn power_law_is_deterministic_and_skewed() {
        let a = power_law(3_000, 24_000, 2.2, 9).unwrap();
        let b = power_law(3_000, 24_000, 2.2, 9).unwrap();
        assert_eq!(a, b);
        assert!(
            a.max_degree() as f64 > 8.0 * a.avg_degree(),
            "max {} avg {}",
            a.max_degree(),
            a.avg_degree()
        );
    }

    #[test]
    fn power_law_validation() {
        assert!(power_law(1, 0, 2.2, 1).is_err());
        assert!(power_law(10, 8, 1.0, 1).is_err());
        assert!(power_law(10, 8, f64::NAN, 1).is_err());
        assert!(power_law(3, 7, 2.2, 1).is_err());
        // A complete directed graph is exactly reachable.
        let g = power_law(4, 12, 2.5, 1).unwrap();
        assert_eq!(g.num_edges(), 12);
    }

    /// The seed whose generator's first `next_u64` is `u`: SplitMix64's
    /// output mix run backwards, less one state increment.
    fn seed_drawing(u: u64) -> u64 {
        // `x ^ (x >> s)` fixes `s` more top bits of `x` per round.
        let unshift = |y: u64, s: u32| (0..64).fold(y, |x, _| y ^ (x >> s));
        // An odd multiplier's inverse mod 2⁶⁴ by Newton's iteration: `m`
        // is its own inverse mod 8, and each round doubles the bits.
        let inverse = |m: u64| {
            (0..5).fold(m, |i, _| {
                i.wrapping_mul(2u64.wrapping_sub(m.wrapping_mul(i)))
            })
        };
        let z = unshift(u, 31).wrapping_mul(inverse(0x94D0_49BB_1331_11EB));
        let z = unshift(z, 27).wrapping_mul(inverse(0xBF58_476D_1CE4_E5B9));
        unshift(z, 30).wrapping_sub(0x9E37_79B9_7F4A_7C15)
    }

    #[test]
    fn integer_thresholds_match_next_f64_comparisons() {
        let quadrants = RmatThresholds::graph500();
        let (a, b, c) = GRAPH500;
        for (t, grid) in [
            (a, quadrants.a),
            (a + b, quadrants.ab),
            (a + b + c, quadrants.abc),
        ] {
            for k in (grid - 2..=grid + 2).chain([0, (1 << 53) - 1]) {
                // `next_f64` drops the low 11 bits, whatever they hold.
                let u = (k << 11) | 0x5A5;
                let rng = Prng::new(seed_drawing(u));
                assert_eq!(rng.clone().next_u64(), u);
                assert_eq!(
                    k >= grid,
                    rng.clone().next_f64() >= t,
                    "t = {t}, k = {k}, threshold {grid}"
                );
            }
        }
    }

    #[test]
    fn batched_cells_match_the_scalar_descent() {
        let quadrants = RmatThresholds::graph500();
        // Draws on either side of each threshold, and at the ends.
        let edges: Vec<u64> = [quadrants.a, quadrants.ab, quadrants.abc]
            .iter()
            .flat_map(|&t| [t << 11, (t << 11) - 1])
            .chain([0, u64::MAX])
            .collect();
        let mut rng = Prng::new(17);
        for levels in 1..=33 {
            for batch in 1..=RMAT_BATCH {
                let mut draws = vec![0; levels * batch];
                rng.fill_u64(&mut draws);
                for (i, draw) in draws.iter_mut().enumerate().step_by(3) {
                    *draw = edges[i % edges.len()];
                }
                let mut cells = [(0, 0); RMAT_BATCH];
                quadrants.cells(&draws, levels, &mut cells[..batch]);
                for (cell, attempt) in cells[..batch].iter().zip(draws.chunks_exact(levels)) {
                    assert_eq!(
                        *cell,
                        quadrants.cell(attempt),
                        "levels {levels}, batch {batch}"
                    );
                }
            }
        }
    }

    #[test]
    fn guided_picks_equal_the_full_search() {
        let mut tables: Vec<(String, ChungLu)> = Vec::new();
        for nodes in [2, 3, 1_000, 1_024, 1_025] {
            // 1.05 flattens the cumulative sum into long runs of ties.
            for gamma in [1.05, 1.5, 2.2, 3.5] {
                let label = format!("{nodes} nodes, gamma {gamma}");
                tables.push((label, ChungLu::new(nodes, gamma)));
            }
        }
        // Weights summing to values on the edges of `buckets` buckets of
        // a random total and one float either side: a table of about
        // `3·buckets` entries splits into `4·buckets` buckets, whose
        // every fourth edge is one of these. A draw near such an edge is
        // where the rounding of its bucket decides.
        let mut rng = Prng::new(29);
        for buckets in [2usize, 4, 512, 1_024] {
            for _ in 0..8 {
                let total = rng.uniform(1.0, 64.0);
                let width = total / buckets as f64;
                let mut cumulative: Vec<f64> = (1..buckets)
                    .map(|b| b as f64 * width)
                    .flat_map(|edge| [edge.next_down(), edge, edge.next_up()])
                    .collect();
                cumulative.push(total);
                let label = format!("edges of {buckets} buckets of {total}");
                tables.push((label, ChungLu::over(cumulative)));
            }
        }
        for (label, endpoints) in &tables {
            let (cumulative, total) = (&endpoints.cumulative, endpoints.total);
            let nodes = cumulative.len();
            let full = |x: f64| cumulative.partition_point(|&c| c <= x).min(nodes - 1) as u32;
            let width = total / endpoints.guide.len() as f64;
            let edges = (0..=endpoints.guide.len()).map(|b| b as f64 * width);
            let adversarial = edges
                .chain(cumulative.iter().copied())
                .chain([0.0, total])
                .flat_map(|x| [x.next_down(), x, x.next_up()])
                .filter(|&x| x >= 0.0);
            for x in adversarial {
                assert_eq!(endpoints.vertex(x), full(x), "{label}, x {x:e}");
            }
            let mut rng = Prng::new(nodes as u64);
            for _ in 0..20_000 {
                let raw = rng.next_u64();
                let x = Prng::unit_f64(raw) * total;
                assert_eq!(endpoints.pick(raw), full(x), "{label}, x {x:e}");
            }
        }
    }

    #[test]
    fn pair_table_matches_a_hash_set() {
        let mut rng = Prng::new(23);
        for keys in [1, 2, 5, 64, 1_000] {
            let probe = PairTable::new(keys);
            assert!(probe.slots.len() >= 2 * keys && probe.slots.len().is_power_of_two());
            // Keys homed at the last slot chain around the end, and keys
            // sharing any slot collide.
            let last: Vec<u64> = (1..)
                .filter(|&k| probe.home(k) == probe.mask)
                .take(keys.min(4))
                .collect();
            let shared: Vec<u64> = (1..)
                .filter(|&k| probe.home(k) == probe.mask / 2)
                .take(keys.min(4))
                .collect();
            for universe in [keys as u64, 4 * keys as u64, u64::MAX] {
                let mut table = PairTable::new(keys);
                let mut oracle = HashSet::new();
                let forced = last.iter().chain(&shared).copied();
                let random =
                    std::iter::repeat_with(|| rng.next_u64() % universe + 1).take(6 * keys);
                for key in forced.chain(random) {
                    if oracle.len() == keys && !oracle.contains(&key) {
                        continue;
                    }
                    assert_eq!(
                        table.insert(key),
                        oracle.insert(key),
                        "{keys} keys, key {key}"
                    );
                }
                for &key in &oracle {
                    assert!(!table.insert(key), "{keys} keys, key {key} lost");
                }
                let held: HashSet<u64> = table.slots.iter().copied().filter(|&k| k != 0).collect();
                assert_eq!(held, oracle);
            }
            // Wrapped: the last slot's chain continues at slot 0.
            let mut table = PairTable::new(keys);
            for &key in &last {
                assert!(table.insert(key));
            }
            if last.len() > 1 {
                assert_eq!(table.slots[0], last[1]);
            }
        }
    }

    #[test]
    fn rmat_rejects_impossible_edge_counts() {
        let shape = GraphShape {
            name: "t".into(),
            nodes: 3,
            edges: 7,
            features: 4,
            classes: 2,
        };
        assert!(shape.instantiate(1).is_err());
    }

    #[test]
    fn sbm_labels_and_sizes() {
        let t = sbm(3, 10, 8, 0.5, 0.05, 11).unwrap();
        assert_eq!(t.graph.num_nodes(), 30);
        assert_eq!(t.labels.len(), 30);
        assert_eq!(t.features.shape(), (30, 8));
        assert_eq!(t.labels[0], 0);
        assert_eq!(t.labels[29], 2);
    }

    #[test]
    fn sbm_has_community_structure() {
        let t = sbm(2, 20, 4, 0.6, 0.05, 13).unwrap();
        // Count intra vs inter community edges.
        let mut intra = 0;
        let mut inter = 0;
        for v in 0..t.graph.num_nodes() {
            for &u in t.graph.neighbors(v) {
                if t.labels[u as usize] == t.labels[v] {
                    intra += 1;
                } else {
                    inter += 1;
                }
            }
        }
        assert!(intra > inter * 3, "intra {intra} inter {inter}");
    }

    #[test]
    fn sbm_validation() {
        assert!(sbm(0, 10, 8, 0.5, 0.1, 1).is_err());
        assert!(sbm(2, 10, 8, 1.5, 0.1, 1).is_err());
    }

    #[test]
    fn sequences_are_class_separable() {
        let t = labelled_sequences(20, 4, 8, 16, 17).unwrap();
        assert_eq!(t.inputs.len(), 20);
        // Nearest-class-mean on the mean embedding should mostly match.
        let mut hits = 0;
        for (x, &label) in t.inputs.iter().zip(&t.labels) {
            let mut mean = [0.0f64; 16];
            for r in 0..x.rows() {
                for (c, m) in mean.iter_mut().enumerate() {
                    *m += x.get(r, c) / x.rows() as f64;
                }
            }
            let mut best = (f64::INFINITY, 0);
            for k in 0..4 {
                let d: f64 = (0..16)
                    .map(|c| (mean[c] - t.class_means.get(k, c)).powi(2))
                    .sum();
                if d < best.0 {
                    best = (d, k);
                }
            }
            if best.1 == label {
                hits += 1;
            }
        }
        assert!(hits >= 18, "only {hits}/20 separable");
    }

    #[test]
    fn sequences_validation() {
        assert!(labelled_sequences(0, 2, 8, 8, 1).is_err());
        assert!(labelled_sequences(4, 2, 0, 8, 1).is_err());
    }
}
