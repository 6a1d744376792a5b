#ifndef LASAGNE_AUTOGRAD_OPS_H_
#define LASAGNE_AUTOGRAD_OPS_H_

#include <memory>
#include <vector>

#include "autograd/forward_trace.h"
#include "autograd/inference.h"
#include "autograd/variable.h"
#include "sparse/csr_matrix.h"
#include "tensor/rng.h"

namespace lasagne::ag {

// ---------------------------------------------------------------------------
// Elementwise and arithmetic ops
// ---------------------------------------------------------------------------

/// Elementwise a + b (same shape).
Variable Add(const Variable& a, const Variable& b);
/// Sum of k same-shaped variables.
Variable AddMany(const std::vector<Variable>& inputs);
/// Elementwise a - b.
Variable Sub(const Variable& a, const Variable& b);
/// Hadamard product.
Variable Mul(const Variable& a, const Variable& b);
/// x * scalar.
Variable ScalarMul(const Variable& x, float scalar);
/// max(x, 0).
Variable Relu(const Variable& x);
/// x >= 0 ? x : alpha * x.
Variable LeakyRelu(const Variable& x, float alpha = 0.2f);
/// 1 / (1 + exp(-x)).
Variable Sigmoid(const Variable& x);
/// tanh(x).
Variable Tanh(const Variable& x);
/// exp(x).
Variable Exp(const Variable& x);
/// log(max(x, eps)).
Variable Log(const Variable& x, float eps = 1e-12f);

// ---------------------------------------------------------------------------
// Linear algebra
// ---------------------------------------------------------------------------

/// Dense matrix product a @ b.
Variable MatMul(const Variable& a, const Variable& b);
/// Materialized transpose.
Variable Transpose(const Variable& x);
/// Sparse @ dense: `matrix` is a constant operator (no gradient to it).
/// The matrix is captured by shared_ptr and must stay unchanged until
/// backward has run.
Variable SpMM(std::shared_ptr<const CsrMatrix> matrix, const Variable& x);

// ---------------------------------------------------------------------------
// Broadcasting / shaping
// ---------------------------------------------------------------------------

/// Adds the (1 x D) row vector `bias` to every row of x (N x D): the
/// fused bias-broadcast behind Linear. Backward routes g to x verbatim
/// and the per-column sum of g to bias (bitwise the ones^T @ g chain
/// the unfused formulation produced).
Variable AddRowVector(const Variable& x, const Variable& bias);
/// Scales row i of x (N x D) by c(i, 0); c is (N x 1) and trainable.
Variable RowScale(const Variable& x, const Variable& c);
/// Divides row i of x by d(i, 0) (no gradient safety below eps).
Variable RowDivide(const Variable& x, const Variable& d, float eps = 1e-12f);
/// Per-row maximum (N x D) -> (N x 1); gradient routes to the argmax.
Variable RowMax(const Variable& x);
/// Column concatenation [a | b | ...].
Variable ConcatCols(const std::vector<Variable>& inputs);
/// Columns [start, start+len) of x.
Variable SliceCols(const Variable& x, size_t start, size_t len);
/// Gathers rows by index; backward scatter-adds.
Variable GatherRows(const Variable& x, std::vector<size_t> indices);
/// Elementwise maximum over k same-shaped inputs; gradient goes to the
/// (first) argmax input per coordinate. This is the Max-Pooling layer
/// aggregator primitive.
Variable MaxOverSet(const std::vector<Variable>& inputs);
/// Mean over all rows: (N x D) -> (1 x D).
Variable MeanRows(const Variable& x);

// ---------------------------------------------------------------------------
// Reductions
// ---------------------------------------------------------------------------

/// Sum of all entries -> (1 x 1).
Variable Sum(const Variable& x);
/// Mean of all entries -> (1 x 1).
Variable Mean(const Variable& x);
/// Sum of squared entries -> (1 x 1) (L2 penalty building block).
Variable SquaredSum(const Variable& x);

// ---------------------------------------------------------------------------
// Regularization / stochastic ops
// ---------------------------------------------------------------------------

/// Inverted dropout. Identity when `training` is false or rate == 0.
Variable Dropout(const Variable& x, float rate, Rng& rng, bool training);

/// Straight-through Bernoulli: forward samples 0/1 masks with the given
/// probabilities (training) or passes the probabilities through (eval);
/// backward treats the op as identity, so gradients reach the
/// probability parameters (stochastic aggregator, Eq. 6).
Variable BernoulliStraightThrough(const Variable& probs, Rng& rng,
                                  bool training);

/// PairNorm (Zhao & Akoglu, ICLR'20): centers each column across nodes,
/// then rescales every row to norm `scale` (the PN-SI variant).
Variable PairNorm(const Variable& x, float scale = 1.0f,
                  float eps = 1e-6f);

/// Column standardization across rows (batch-norm without affine
/// parameters or running statistics): each column gets zero mean and
/// unit variance over the node dimension. Stabilizes sum-aggregation
/// models (GIN) whose activations otherwise grow with node degree.
Variable BatchNormColumns(const Variable& x, float eps = 1e-5f);

// ---------------------------------------------------------------------------
// Losses
// ---------------------------------------------------------------------------

/// Masked softmax cross-entropy. `labels[i]` in [0, C) or ignored when
/// `mask[i]` == 0. Returns mean loss over masked rows as (1 x 1).
Variable SoftmaxCrossEntropy(const Variable& logits,
                             const std::vector<int32_t>& labels,
                             const std::vector<float>& mask);

/// As above with per-row weights (GraphSAINT loss normalization).
Variable WeightedSoftmaxCrossEntropy(const Variable& logits,
                                     const std::vector<int32_t>& labels,
                                     const std::vector<float>& weights);

/// Mean binary cross-entropy with logits; `targets` is same-shape 0/1.
Variable BinaryCrossEntropyWithLogits(const Variable& logits,
                                      const Tensor& targets);

/// Row-wise softmax probabilities (forward-only helper, no graph).
Tensor SoftmaxRows(const Tensor& logits);

/// Mean cosine distance (1 - cos) over the given node pairs of x's rows;
/// differentiable. Used by the MADReg baseline's MADGap regularizer.
Variable MeanCosineDistance(const Variable& x,
                            std::vector<std::pair<uint32_t, uint32_t>> pairs,
                            float eps = 1e-8f);

// ---------------------------------------------------------------------------
// Internal helpers shared by op implementations
// ---------------------------------------------------------------------------

/// Builds an interior node whose `requires_grad` is the OR of parents'.
/// For ops with no plan replay (training-mode Dropout, the losses): under
/// an installed ForwardTrace the node is counted as untraced.
Variable MakeOpNode(Tensor value, std::vector<Variable> parents,
                    const char* op_name);

/// Builds the node of a traced op from `forward`, the op's one forward
/// function: runs it on the inputs' values, builds the node and, while a
/// ForwardTrace is installed, records `forward` itself as the op's
/// replay, with `meta` for the plan's fusion pass.
Variable MakeTracedOp(TraceFn forward, std::vector<Variable> inputs,
                      const char* op_name, TraceOpMeta meta = TraceOpMeta());

namespace internal {
/// The inputs' values, in order: what a forward runs on.
TraceInputs InputValues(const std::vector<Variable>& inputs);
/// The second half of MakeTracedOp: builds the node holding the eager
/// `value` and records `replay` with the installed ForwardTrace.
Variable MakeTracedNode(Tensor value, std::vector<Variable> inputs,
                        TraceFn replay, const char* op_name,
                        TraceOpMeta meta);
}  // namespace internal

/// As above for an op whose backward reads a by-product of its forward
/// (RowMax's argmax, PairNorm's centred rows, ...):
/// `forward(in, by_product)` fills `*by_product` on a tape-building
/// call. An evaluation-mode node keeps no backward, so that call and the
/// recorded replay pass null: a plan never computes or keeps it.
template <typename ByProduct, typename Forward>
Variable MakeTracedOp(Forward forward, ByProduct* by_product,
                      std::vector<Variable> inputs, const char* op_name,
                      TraceOpMeta meta = TraceOpMeta()) {
  Tensor value = forward(internal::InputValues(inputs),
                         InferenceModeEnabled() ? nullptr : by_product);
  return internal::MakeTracedNode(
      std::move(value), std::move(inputs),
      [forward](const TraceInputs& in) {
        return forward(in, static_cast<ByProduct*>(nullptr));
      },
      op_name, std::move(meta));
}

}  // namespace lasagne::ag

#endif  // LASAGNE_AUTOGRAD_OPS_H_
