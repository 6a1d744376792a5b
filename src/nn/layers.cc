#include "nn/layers.h"

#include "common/check.h"
#include "obs/trace.h"

namespace lasagne::nn {

Linear::Linear(size_t in_dim, size_t out_dim, Rng& rng, bool bias)
    : in_dim_(in_dim), out_dim_(out_dim) {
  weight_ = ag::MakeParameter(Tensor::GlorotUniform(in_dim, out_dim, rng));
  if (bias) bias_ = ag::MakeParameter(Tensor::Zeros(1, out_dim));
}

ag::Variable Linear::Forward(const ag::Variable& x) const {
  ag::Variable out = ag::MatMul(x, weight_);
  if (bias_ != nullptr) {
    // Fused row broadcast; bitwise the old ones(N,1) @ bias(1,D) + Add
    // formulation in both directions (docs/KERNELS.md) without the
    // N x D temporary or the rank-1 GEMM.
    out = ag::AddRowVector(out, bias_);
  }
  return out;
}

std::vector<ag::Variable> Linear::Parameters() const {
  std::vector<ag::Variable> params = {weight_};
  if (bias_ != nullptr) params.push_back(bias_);
  return params;
}

GraphConvolution::GraphConvolution(size_t in_dim, size_t out_dim, Rng& rng)
    : in_dim_(in_dim), out_dim_(out_dim) {
  weight_ = ag::MakeParameter(Tensor::GlorotUniform(in_dim, out_dim, rng));
}

ag::Variable GraphConvolution::Forward(
    const std::shared_ptr<const CsrMatrix>& a_hat, const ag::Variable& x,
    const ForwardContext& ctx, float dropout, bool relu) const {
  LASAGNE_TRACE_SCOPE("graph_conv");
  LASAGNE_CHECK(ctx.rng != nullptr);
  ag::Variable h = x;
  if (dropout > 0.0f) h = ag::Dropout(h, dropout, *ctx.rng, ctx.training);
  h = ag::SpMM(a_hat, ag::MatMul(h, weight_));
  if (relu) h = ag::Relu(h);
  return h;
}

GatHead::GatHead(size_t in_dim, size_t out_dim, Rng& rng) {
  weight_ = ag::MakeParameter(Tensor::GlorotUniform(in_dim, out_dim, rng));
  attn_dst_ = ag::MakeParameter(Tensor::GlorotUniform(out_dim, 1, rng));
  attn_src_ = ag::MakeParameter(Tensor::GlorotUniform(out_dim, 1, rng));
}

ag::Variable GatHead::Forward(
    const std::shared_ptr<const ag::EdgeStructure>& edges,
    const ag::Variable& x, const ForwardContext& ctx, float dropout,
    std::shared_ptr<const std::vector<float>> edge_bias) const {
  LASAGNE_TRACE_SCOPE("gat_head");
  LASAGNE_CHECK(ctx.rng != nullptr);
  ag::Variable h = x;
  if (dropout > 0.0f) h = ag::Dropout(h, dropout, *ctx.rng, ctx.training);
  ag::Variable wh = ag::MatMul(h, weight_);
  ag::Variable scores_dst = ag::MatMul(wh, attn_dst_);
  ag::Variable scores_src = ag::MatMul(wh, attn_src_);
  ag::Variable e = ag::GatherEdgeScores(scores_dst, scores_src, edges);
  if (edge_bias != nullptr) e = ag::AddEdgeBias(e, edge_bias);
  e = ag::LeakyRelu(e, 0.2f);
  ag::Variable alpha = ag::EdgeSoftmax(e, edges);
  if (dropout > 0.0f) {
    alpha = ag::Dropout(alpha, dropout, *ctx.rng, ctx.training);
  }
  return ag::EdgeWeightedAggregate(alpha, wh, edges);
}

std::vector<ag::Variable> GatHead::Parameters() const {
  return {weight_, attn_dst_, attn_src_};
}

GatMultiHead::GatMultiHead(size_t in_dim, size_t out_dim_per_head,
                           size_t num_heads, bool concat, Rng& rng)
    : out_dim_per_head_(out_dim_per_head), concat_(concat) {
  LASAGNE_CHECK_GT(num_heads, 0u);
  heads_.reserve(num_heads);
  for (size_t i = 0; i < num_heads; ++i) {
    heads_.emplace_back(in_dim, out_dim_per_head, rng);
  }
}

ag::Variable GatMultiHead::Forward(
    const std::shared_ptr<const ag::EdgeStructure>& edges,
    const ag::Variable& x, const ForwardContext& ctx, float dropout,
    std::shared_ptr<const std::vector<float>> edge_bias) const {
  std::vector<ag::Variable> outs;
  outs.reserve(heads_.size());
  for (const GatHead& head : heads_) {
    outs.push_back(head.Forward(edges, x, ctx, dropout, edge_bias));
  }
  if (outs.size() == 1) return outs[0];
  if (concat_) return ag::ConcatCols(outs);
  ag::Variable sum = ag::AddMany(outs);
  return ag::ScalarMul(sum, 1.0f / static_cast<float>(outs.size()));
}

std::vector<ag::Variable> GatMultiHead::Parameters() const {
  std::vector<ag::Variable> params;
  for (const GatHead& head : heads_) {
    for (const ag::Variable& p : head.Parameters()) params.push_back(p);
  }
  return params;
}

size_t GatMultiHead::out_dim() const {
  return concat_ ? out_dim_per_head_ * heads_.size() : out_dim_per_head_;
}

}  // namespace lasagne::nn
