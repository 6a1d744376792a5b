// The single-pass fused edge-attention kernel (docs/KERNELS.md) and
// the blocked SpGEMM row merge: the execution plan's EdgeAttention step
// must be bitwise-identical to the raw GatherEdgeScores→[AddEdgeBias]→
// LeakyRelu→EdgeSoftmax→EdgeWeightedAggregate chain it replaces at
// 1/2/8 threads, across shape and structure edge cases, and the
// blocked Gustavson merge must reproduce the naive unblocked merge
// exactly — including the row_cap cut, whose tie-break must not depend
// on the order the merge discovered columns in.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/edge_ops.h"
#include "autograd/ops.h"
#include "autograd/variable.h"
#include "common/thread_pool.h"
#include "infer/plan.h"
#include "models/model.h"
#include "sparse/csr_matrix.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"

namespace lasagne {
namespace {

class ThreadCountGuard {
 public:
  ThreadCountGuard() = default;
  ~ThreadCountGuard() { SetNumThreads(0); }
};

void ExpectBitwiseEqual(const Tensor& a, const Tensor& b,
                        const std::string& what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  ASSERT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(float)))
      << what << ": fused values differ from the raw op chain";
}

// -- Plan EdgeAttention step vs raw chain across shapes and structures ------

/// Random destination-grouped structure with deliberately awkward
/// rows: some isolated, some single-edge, some high fan-in.
std::shared_ptr<const ag::EdgeStructure> RandomEdges(size_t num_nodes,
                                                     uint64_t seed) {
  Rng rng(seed);
  auto edges = std::make_shared<ag::EdgeStructure>();
  edges->num_nodes = num_nodes;
  edges->row_ptr.assign(num_nodes + 1, 0);
  std::vector<std::vector<uint32_t>> rows(num_nodes);
  for (size_t i = 0; i < num_nodes; ++i) {
    const uint64_t fan = rng.UniformInt(5);  // 0..4, so ~1/5 isolated
    for (uint64_t k = 0; k < fan; ++k) {
      rows[i].push_back(static_cast<uint32_t>(rng.UniformInt(num_nodes)));
    }
    edges->row_ptr[i + 1] = edges->row_ptr[i] + rows[i].size();
  }
  for (size_t i = 0; i < num_nodes; ++i) {
    for (uint32_t s : rows[i]) edges->src.push_back(s);
  }
  return edges;
}

/// A model whose whole forward is one raw attention chain, so its
/// compiled plan is exactly one EdgeAttention step over the given
/// structure and feature width.
class AttentionChainModel : public Model {
 public:
  AttentionChainModel(const Dataset& data,
                      std::shared_ptr<const ag::EdgeStructure> edges,
                      ag::Variable dst, ag::Variable src,
                      ag::Variable features,
                      std::shared_ptr<const std::vector<float>> bias)
      : Model("attention-chain", data),
        edges_(std::move(edges)),
        dst_(std::move(dst)),
        src_(std::move(src)),
        features_(std::move(features)),
        bias_(std::move(bias)) {}

  ag::Variable Forward(const nn::ForwardContext&) override {
    ag::Variable e = ag::GatherEdgeScores(dst_, src_, edges_);
    if (bias_ != nullptr) e = ag::AddEdgeBias(e, bias_);
    e = ag::LeakyRelu(e, 0.2f);
    return ag::EdgeWeightedAggregate(ag::EdgeSoftmax(e, edges_), features_,
                                     edges_);
  }

  std::vector<ag::Variable> Parameters() const override { return {}; }

 private:
  std::shared_ptr<const ag::EdgeStructure> edges_;
  ag::Variable dst_;
  ag::Variable src_;
  ag::Variable features_;
  std::shared_ptr<const std::vector<float>> bias_;
};

TEST(EdgeAttentionParityTest, OpMatchesRawChainOnAwkwardShapes) {
  ThreadCountGuard thread_guard;
  const Dataset no_data;  // the chain reads only its own constants
  const size_t n = 37;
  auto edges = RandomEdges(n, 123);
  Rng rng(7);
  ag::Variable dst =
      ag::MakeConstant(Tensor::Normal(n, 1, 0.0f, 0.8f, rng));
  ag::Variable src =
      ag::MakeConstant(Tensor::Normal(n, 1, 0.0f, 0.8f, rng));
  auto bias = std::make_shared<std::vector<float>>();
  for (size_t e = 0; e < edges->num_edges(); ++e) {
    bias->push_back(static_cast<float>(rng.Normal(0.0, 0.5)));
  }
  // Widths straddling the vector width and the kColTile boundary.
  for (const size_t d : {size_t{1}, size_t{7}, size_t{15}, size_t{16},
                         size_t{17}, size_t{33}}) {
    ag::Variable features =
        ag::MakeConstant(Tensor::Normal(n, d, 0.0f, 0.6f, rng));
    for (const bool with_bias : {false, true}) {
      AttentionChainModel model(no_data, edges, dst, src, features,
                                with_bias ? bias : nullptr);
      Rng ctx_rng(9);
      const nn::ForwardContext ctx{/*training=*/false, &ctx_rng};
      const Tensor reference = model.Forward(ctx)->value();
      const std::string shape =
          "d=" + std::to_string(d) + " bias=" + std::to_string(with_bias);
      for (const size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
        SetNumThreads(threads);
        const Tensor planned = model.Predict(ctx);
        ASSERT_NE(model.execution_plan(), nullptr)
            << shape << ": " << model.plan_status().ToString();
        const infer::PlanOpSummary summary =
            model.execution_plan()->OpSummary();
        EXPECT_EQ(summary.steps, 1u) << shape << ": " << summary.ToString();
        EXPECT_EQ(summary.Count("EdgeAttention"), 1u)
            << shape << ": " << summary.ToString();
        ExpectBitwiseEqual(reference, planned,
                           shape + " threads=" + std::to_string(threads));
      }
    }
  }
}

// -- Blocked SpGEMM vs the naive unblocked merge ----------------------------

CsrMatrix RandomCsr(size_t rows, size_t cols, size_t nnz_per_row,
                    uint64_t seed, bool tie_values) {
  Rng rng(seed);
  std::vector<Triplet> triplets;
  for (size_t r = 0; r < rows; ++r) {
    const uint64_t count = rng.UniformInt(nnz_per_row + 1);
    for (uint64_t k = 0; k < count; ++k) {
      const uint32_t c = static_cast<uint32_t>(rng.UniformInt(cols));
      // tie_values makes every |product| identical so the row_cap cut
      // is decided purely by the tie-break.
      const float v = tie_values
                          ? (rng.Uniform() < 0.5 ? 1.0f : -1.0f)
                          : static_cast<float>(rng.Normal(0.0, 1.0));
      triplets.push_back({static_cast<uint32_t>(r), c, v});
    }
  }
  return CsrMatrix::FromTriplets(rows, cols, std::move(triplets));
}

/// The unblocked Gustavson merge, copied from the pre-blocking
/// CsrMatrix::Multiply — discovery order is first-touch in ascending
/// (A-entry, B-entry) order, which differs from the blocked kernel's
/// block-major order; the cap comparator must make that difference
/// unobservable.
CsrMatrix NaiveSpGemm(const CsrMatrix& a, const CsrMatrix& b,
                      float prune_tolerance, size_t row_cap) {
  std::vector<Triplet> triplets;
  std::vector<float> accumulator(b.cols(), 0.0f);
  std::vector<uint8_t> is_touched(b.cols(), 0);
  std::vector<uint32_t> touched;
  for (size_t r = 0; r < a.rows(); ++r) {
    touched.clear();
    for (size_t k = a.row_ptr()[r]; k < a.row_ptr()[r + 1]; ++k) {
      const uint32_t mid = a.col_idx()[k];
      const float v = a.values()[k];
      for (size_t k2 = b.row_ptr()[mid]; k2 < b.row_ptr()[mid + 1]; ++k2) {
        const uint32_t c = b.col_idx()[k2];
        if (!is_touched[c]) {
          is_touched[c] = 1;
          touched.push_back(c);
        }
        accumulator[c] += v * b.values()[k2];
      }
    }
    if (row_cap > 0 && touched.size() > row_cap) {
      std::nth_element(touched.begin(), touched.begin() + row_cap,
                       touched.end(), [&](uint32_t x, uint32_t y) {
                         const float fx = std::fabs(accumulator[x]);
                         const float fy = std::fabs(accumulator[y]);
                         if (fx != fy) return fx > fy;
                         return x < y;
                       });
      for (size_t i = row_cap; i < touched.size(); ++i) {
        accumulator[touched[i]] = 0.0f;
        is_touched[touched[i]] = 0;
      }
      touched.resize(row_cap);
    }
    for (uint32_t c : touched) {
      const float v = accumulator[c];
      accumulator[c] = 0.0f;
      is_touched[c] = 0;
      if (std::fabs(v) > prune_tolerance) {
        triplets.push_back({static_cast<uint32_t>(r), c, v});
      }
    }
  }
  return CsrMatrix::FromTriplets(a.rows(), b.cols(), std::move(triplets));
}

void ExpectSameCsr(const CsrMatrix& a, const CsrMatrix& b,
                   const std::string& what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  ASSERT_EQ(a.nnz(), b.nnz()) << what;
  EXPECT_EQ(a.row_ptr(), b.row_ptr()) << what;
  EXPECT_EQ(a.col_idx(), b.col_idx()) << what;
  // Bitwise, not approximate: the blocked merge keeps the exact
  // per-element accumulation order.
  EXPECT_EQ(0, std::memcmp(a.values().data(), b.values().data(),
                           a.nnz() * sizeof(float)))
      << what;
}

TEST(SpGemmBlockedTest, MatchesNaiveMergeOnAwkwardShapes) {
  // Inner/outer dims straddling kSpGemmColBlock (2048): below, at, one
  // past, and multi-block, plus degenerate 1-column.
  const size_t widths[] = {1, 5, 127, 2047, 2048, 2049, 4097};
  uint64_t seed = 1000;
  for (const size_t b_cols : widths) {
    CsrMatrix a = RandomCsr(40, 60, 6, seed++, /*tie_values=*/false);
    CsrMatrix b = RandomCsr(60, b_cols, 12, seed++, /*tie_values=*/false);
    ExpectSameCsr(NaiveSpGemm(a, b, 0.0f, 0), a.Multiply(b, 0.0f, 0),
                  "uncapped b_cols=" + std::to_string(b_cols));
    ExpectSameCsr(NaiveSpGemm(a, b, 1e-4f, 8), a.Multiply(b, 1e-4f, 8),
                  "capped b_cols=" + std::to_string(b_cols));
  }
}

TEST(SpGemmBlockedTest, RowCapTieBreakIsDiscoveryOrderIndependent) {
  // Every product magnitude is exactly 1, so with row_cap well under
  // the touched count the kept set is decided entirely by the
  // tie-break. The naive merge discovers columns in a different order
  // than the blocked merge; identical results prove the cut depends
  // only on (|value|, column id).
  CsrMatrix a = RandomCsr(20, 30, 4, 77, /*tie_values=*/true);
  // One entry per B row keeps every output a single product (no
  // cancellation), preserving the all-ties property.
  std::vector<Triplet> b_triplets;
  Rng rng(78);
  for (uint32_t r = 0; r < 30; ++r) {
    b_triplets.push_back(
        {r, static_cast<uint32_t>(rng.UniformInt(4099)), 1.0f});
  }
  CsrMatrix b = CsrMatrix::FromTriplets(30, 4099, std::move(b_triplets));
  ExpectSameCsr(NaiveSpGemm(a, b, 0.0f, 2), a.Multiply(b, 0.0f, 2),
                "all-ties cap");
  // And the capped result must keep the lowest column ids among ties.
  CsrMatrix capped = a.Multiply(b, 0.0f, 2);
  CsrMatrix full = a.Multiply(b, 0.0f, 0);
  for (size_t r = 0; r < capped.rows(); ++r) {
    const size_t kept = capped.row_ptr()[r + 1] - capped.row_ptr()[r];
    const size_t avail = full.row_ptr()[r + 1] - full.row_ptr()[r];
    if (avail <= 2) continue;
    ASSERT_EQ(kept, 2u) << "row " << r;
    // CSR columns are sorted, so the kept pair must be the first two
    // of the uncapped row.
    for (size_t i = 0; i < kept; ++i) {
      EXPECT_EQ(capped.col_idx()[capped.row_ptr()[r] + i],
                full.col_idx()[full.row_ptr()[r] + i])
          << "row " << r;
    }
  }
}

}  // namespace
}  // namespace lasagne
