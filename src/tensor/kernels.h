#ifndef LASAGNE_TENSOR_KERNELS_H_
#define LASAGNE_TENSOR_KERNELS_H_

#include <cstddef>
#include <cstdint>

// Blocked, explicitly vectorized compute kernels behind Tensor,
// CsrMatrix, the fused autograd ops, the execution-plan fusion pass
// and the Adam optimizer.
//
// Every kernel here is SERIAL over the range it is given — callers own
// partitioning (ParallelFor over disjoint output rows/columns) exactly
// as before. The kernels change the *schedule* (register tiles, packed
// panels, SIMD lanes across output columns), never the *arithmetic*:
// each output element accumulates its products in the original
// ascending reduction order with separate rounded mul and add, so
// results are bitwise-identical to the naive loops at every thread
// count. See docs/KERNELS.md for the tiling scheme and the
// ordered-accumulation determinism rule.
//
// This translation unit is the only one built with the optional SIMD
// target flags (LASAGNE_SIMD); the headers expose plain pointers so
// the rest of the library stays at the baseline ISA.

namespace lasagne::kernels {

// -- Dense GEMM family -------------------------------------------------------

/// Floats required for the packed-B panel of a (k x n) B matrix
/// (full kColTile-wide tiles only; tail columns read B directly).
size_t PackedBSize(size_t k_dim, size_t n_dim);

/// Packs B (k x n, row-major) into tile-major panels: for each tile t
/// of kColTile output columns, the k rows of that column strip are laid
/// out contiguously. One pack per GEMM call, shared read-only by every
/// row chunk.
void PackB(const float* b, size_t k_dim, size_t n_dim, float* packed);

/// Packs B^T panels for MatMulTransposed: B is (n x k) row-major and
/// tile t holds columns t*kColTile.. of the *output* (rows of B),
/// k-major so the kernel streams it contiguously.
void PackBTransposed(const float* b, size_t n_dim, size_t k_dim,
                     float* packed);

/// out[i] = A[i] * B for rows i in [row_begin, row_end).
/// A is (m x k), B is (k x n) with its packed panels, out is (m x n)
/// and may be uninitialized (every element of the row range is
/// written). Keeps the naive kernel's skip of zero A entries.
void GemmRowsNN(const float* a, size_t k_dim, size_t n_dim, const float* b,
                const float* b_packed, float* out, size_t row_begin,
                size_t row_end);

/// out[i] = A[i] * B^T for rows i in [row_begin, row_end).
/// A is (m x k), B is (n x k), b_packed from PackBTransposed, out
/// (m x n) may be uninitialized.
void GemmRowsNT(const float* a, size_t k_dim, size_t n_dim, const float* b,
                const float* b_packed, float* out, size_t row_begin,
                size_t row_end);

/// out[i][j] += sum_r A[r][i] * B[r][j] for output rows i in
/// [col_begin, col_end) (columns of A). A is (m x a_cols), B is
/// (m x n), out (a_cols x n) must be zero-initialized (memory
/// accumulation in ascending r order).
void GemmColsTN(const float* a, size_t a_cols, const float* b, size_t n_dim,
                size_t m_rows, float* out, size_t col_begin, size_t col_end);

// -- CSR sparse-dense products ----------------------------------------------

/// out[r] = sum_k values[k] * dense[col_idx[k]] over row r's entries,
/// for r in [row_begin, row_end). dense is (x x d); out (rows x d) may
/// be uninitialized over the row range. Register-blocked: kColTile
/// output columns per pass, ascending-k accumulation per element.
void SpmmRows(const size_t* row_ptr, const uint32_t* col_idx,
              const float* values, const float* dense, size_t d, float* out,
              size_t row_begin, size_t row_end);

/// out[col_idx[k]][j] += values[k] * dense[r][j] for j in
/// [col_begin, col_end), all rows r ascending. out must be
/// zero-initialized; writes touch only the column strip, so disjoint
/// strips parallelize without races.
void SpmmTransposedCols(const size_t* row_ptr, const uint32_t* col_idx,
                        const float* values, size_t rows, const float* dense,
                        size_t d, float* out, size_t col_begin,
                        size_t col_end);

// -- Single-pass fused edge attention ----------------------------------------
// The whole GAT per-edge chain — score gather → optional additive bias
// → LeakyReLU → numerically-stable masked softmax → weighted feature
// aggregation — in one CSR sweep per destination row. Replaces four
// (five with bias) materialized (E x 1) tensor ops with one kernel.
// Each stage reproduces the eager op's float sequence exactly (same
// std::max chain, float exp, double total in ascending k, one rounded
// multiply by 1/total, ascending-k feature accumulation), and the
// aggregation is register-blocked like SpmmRows, so the fused result
// is bitwise-identical to the unfused chain at any thread count.

/// Forward over destination rows [row_begin, row_end). `dst_scores` /
/// `src_scores` are (N x 1), `features` is (N x d), `edge_bias` is an
/// optional E-length per-edge additive prior (nullptr to skip). Writes
/// the normalized attention weights into `probs[k]` for every edge k
/// of the row range (bitwise the eager EdgeSoftmax output) and the
/// aggregated rows into `out`, which may
/// be uninitialized (empty rows are zero-filled, matching the eager
/// zero-init + accumulate). Serial; row ranges touch disjoint `probs`
/// and `out` regions, so callers partition rows via ParallelFor.
void EdgeAttentionForward(const size_t* row_ptr, const uint32_t* src,
                          const float* dst_scores, const float* src_scores,
                          const float* edge_bias, float slope,
                          const float* features, size_t d, float* probs,
                          float* out, size_t row_begin, size_t row_end);

// -- Blocked SpGEMM row merge ------------------------------------------------

/// Column-block width of the SpGemmRowBlocked merge. 2048 floats of
/// accumulator plus flags stay L1-resident while a row's partial sums
/// build up, instead of striding the full B-width accumulator per
/// A-entry as the unblocked merge did.
inline constexpr size_t kSpGemmColBlock = 2048;

/// One row of C = A·B with Gustavson's dense-accumulator merge,
/// processed in kSpGemmColBlock-wide column blocks. The caller passes
/// the A-row's entries (`a_cols`/`a_vals`, `a_len` of them), B's CSR
/// arrays, a zero `accumulator` / `is_touched` pair of width `b_cols`,
/// a `touched` array with room for `b_cols` columns, and an `a_len`
/// cursor scratch. Appends each touched column once and returns the
/// count; the caller owns cap/prune/emission and resets the arrays.
/// B's column indices are sorted within each row (FromTriplets
/// guarantees it), so per output element the products still accumulate
/// in ascending-A-entry order — bitwise-identical to the unblocked
/// merge. Serial.
size_t SpGemmRowBlocked(const uint32_t* a_cols, const float* a_vals,
                        size_t a_len, const size_t* b_row_ptr,
                        const uint32_t* b_col_idx, const float* b_vals,
                        size_t b_cols, float* accumulator, uint8_t* is_touched,
                        uint32_t* touched, size_t* cursors);

// -- Fused elementwise kernels ----------------------------------------------
// All serial over [0, n); callers chunk via ParallelFor.

void EwAdd(const float* a, const float* b, float* out, size_t n);
void EwSub(const float* a, const float* b, float* out, size_t n);
void EwMul(const float* a, const float* b, float* out, size_t n);
void EwScale(const float* a, float s, float* out, size_t n);
void EwAddInPlace(float* a, const float* b, size_t n);
void EwSubInPlace(float* a, const float* b, size_t n);
void EwScaleInPlace(float* a, float s, size_t n);
/// y += alpha * x.
void EwAxpy(float* y, float alpha, const float* x, size_t n);

/// y = max(x, 0), matching `v > 0 ? v : 0` lane-exactly (NaN -> 0).
void ReluForward(const float* x, float* y, size_t n);
/// dx = (x > 0) ? g : 0 — bitwise the mask the naive backward applied
/// (`if (x <= 0) dx = 0` with NaN x keeping g).
void ReluBackward(const float* g, const float* x, float* dx, size_t n);
/// y = x >= 0 ? x : alpha * x.
void LeakyReluForward(const float* x, float alpha, float* y, size_t n);
/// dx = x < 0 ? alpha * g : g.
void LeakyReluBackward(const float* g, const float* x, float alpha,
                       float* dx, size_t n);

/// y[r][j] = x[r][j] + bias[j] for rows [row_begin, row_end).
void AddRowVector(const float* x, const float* bias, float* y, size_t cols,
                  size_t row_begin, size_t row_end);
/// out[j] += sum_r g[r][j], float accumulation in ascending r order
/// (the bias-gradient column sum; bitwise the ones^T @ g chain).
void ColSumAccumulate(const float* g, size_t rows, size_t cols, float* out);

/// One fused Adam step over [0, n): replicates the scalar update
///   g = grad + wd * value
///   m = beta1 * m + (1 - beta1) * g
///   v = beta2 * v + ((1 - beta2) * g) * g
///   value -= (lr * (m / bias1)) / (sqrt(v / bias2) + eps)
/// operation-for-operation (div and sqrt are correctly rounded, so the
/// vector path is bitwise the scalar path).
void AdamUpdate(float* value, const float* grad, float* m, float* v, size_t n,
                float lr, float weight_decay, float beta1, float beta2,
                float bias1, float bias2, float eps);

}  // namespace lasagne::kernels

#endif  // LASAGNE_TENSOR_KERNELS_H_
