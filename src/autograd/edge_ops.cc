#include "autograd/edge_ops.h"

#include <algorithm>
#include <cmath>

#include "autograd/ops.h"
#include "common/check.h"
#include "common/parallel_config.h"
#include "common/thread_pool.h"
#include "tensor/kernels.h"

namespace lasagne::ag {

std::shared_ptr<const EdgeStructure> EdgeStructure::FromGraph(
    const Graph& graph, bool add_self_loops) {
  auto edges = std::make_shared<EdgeStructure>();
  edges->num_nodes = graph.num_nodes();
  edges->row_ptr.assign(graph.num_nodes() + 1, 0);
  for (uint32_t i = 0; i < graph.num_nodes(); ++i) {
    // Destination i receives from each neighbor (graph is undirected) and
    // optionally itself.
    bool has_self = graph.HasEdge(i, i);
    size_t count = graph.Degree(i) + ((add_self_loops && !has_self) ? 1 : 0);
    edges->row_ptr[i + 1] = edges->row_ptr[i] + count;
  }
  edges->src.resize(edges->row_ptr.back());
  for (uint32_t i = 0; i < graph.num_nodes(); ++i) {
    size_t pos = edges->row_ptr[i];
    bool has_self = graph.HasEdge(i, i);
    if (add_self_loops && !has_self) edges->src[pos++] = i;
    for (const uint32_t* it = graph.NeighborsBegin(i);
         it != graph.NeighborsEnd(i); ++it) {
      edges->src[pos++] = *it;
    }
    LASAGNE_CHECK_EQ(pos, edges->row_ptr[i + 1]);
  }
  return edges;
}

namespace {

// Each op's forward is one function below, which MakeTracedOp runs for
// the eager value and records as the plan replay. Forwards and the
// per-row backward sweeps partition destination rows through
// CsrRowGrain (like CsrMatrix::Multiply); every output element is
// written by one chunk in the serial loop's order, so results are
// bitwise-identical to a serial sweep at every thread count
// (docs/KERNELS.md).

/// Runs `fn(i, row_begin, row_end)` for every destination row i, where
/// [row_begin, row_end) is row i's edge range; rows are partitioned for
/// a sweep writing `d` output columns per row.
template <typename Fn>
void ForEachRow(const EdgeStructure& edges, size_t d, const Fn& fn) {
  ParallelFor(0, edges.num_nodes,
              CsrRowGrain(edges.num_edges(), edges.num_nodes, d),
              [&](size_t begin, size_t end) {
                for (size_t i = begin; i < end; ++i) {
                  fn(i, edges.row_ptr[i], edges.row_ptr[i + 1]);
                }
              });
}

/// Inputs {dst_scores, src_scores}.
Tensor GatherEdgeScoresForward(const TraceInputs& in,
                               const EdgeStructure& edges) {
  Tensor y = Tensor::Uninitialized(edges.num_edges(), 1);
  const float* dst = in[0]->data();
  const float* src = in[1]->data();
  float* out = y.data();
  ForEachRow(edges, 1, [&](size_t i, size_t begin, size_t end) {
    const float d = dst[i];
    for (size_t k = begin; k < end; ++k) out[k] = d + src[edges.src[k]];
  });
  return y;
}

Tensor AddEdgeBiasForward(const TraceInputs& in,
                          const std::vector<float>& bias) {
  Tensor y = *in[0];
  for (size_t k = 0; k < bias.size(); ++k) y(k, 0) += bias[k];
  return y;
}

Tensor EdgeSoftmaxForward(const TraceInputs& in, const EdgeStructure& edges) {
  Tensor y = Tensor::Uninitialized(edges.num_edges(), 1);
  const float* x = in[0]->data();
  float* out = y.data();
  ForEachRow(edges, 1, [&](size_t, size_t begin, size_t end) {
    if (begin == end) return;
    float max_v = x[begin];
    for (size_t k = begin + 1; k < end; ++k) max_v = std::max(max_v, x[k]);
    double total = 0.0;
    for (size_t k = begin; k < end; ++k) {
      out[k] = std::exp(x[k] - max_v);
      total += out[k];
    }
    const float inv = static_cast<float>(1.0 / total);
    for (size_t k = begin; k < end; ++k) out[k] *= inv;
  });
  return y;
}

/// Inputs {edge_weights, features}. out[i] = sum_k w_k *
/// features[src(k)]: an SpMM with the edge weights as the CSR values.
Tensor EdgeWeightedAggregateForward(const TraceInputs& in,
                                    const EdgeStructure& edges) {
  const size_t d = in[1]->cols();
  Tensor y = Tensor::Uninitialized(edges.num_nodes, d);
  ParallelFor(0, edges.num_nodes,
              CsrRowGrain(edges.num_edges(), edges.num_nodes, d),
              [&](size_t row_begin, size_t row_end) {
                kernels::SpmmRows(edges.row_ptr.data(), edges.src.data(),
                                  in[0]->data(), in[1]->data(), d,
                                  y.data(), row_begin, row_end);
              });
  return y;
}

}  // namespace

Variable GatherEdgeScores(const Variable& dst_scores,
                          const Variable& src_scores,
                          std::shared_ptr<const EdgeStructure> edges) {
  LASAGNE_CHECK_EQ(dst_scores->cols(), 1u);
  LASAGNE_CHECK_EQ(src_scores->cols(), 1u);
  LASAGNE_CHECK_EQ(dst_scores->rows(), edges->num_nodes);
  LASAGNE_CHECK_EQ(src_scores->rows(), edges->num_nodes);
  Variable out = MakeTracedOp(
      [edges](const TraceInputs& in) {
        return GatherEdgeScoresForward(in, *edges);
      },
      {dst_scores, src_scores}, "GatherEdgeScores",
      TraceOpMeta::Edge(TraceOpKind::kGatherEdgeScores, edges));
  Node* pd = dst_scores.get();
  Node* ps = src_scores.get();
  out->set_backward_fn([pd, ps, edges](const Tensor& g) {
    if (pd->requires_grad()) {
      Tensor dd = Tensor::Uninitialized(edges->num_nodes, 1);
      ForEachRow(*edges, 1, [&](size_t i, size_t begin, size_t end) {
        double acc = 0.0;
        for (size_t k = begin; k < end; ++k) acc += g.data()[k];
        dd.data()[i] = static_cast<float>(acc);
      });
      pd->AccumulateGrad(dd);
    }
    if (ps->requires_grad()) {
      // An (E x 1) scatter onto source nodes: it races under a row
      // partition and has one column to split, so it stays serial.
      Tensor ds(edges->num_nodes, 1);
      for (size_t k = 0; k < edges->num_edges(); ++k) {
        ds(edges->src[k], 0) += g(k, 0);
      }
      ps->AccumulateGrad(ds);
    }
  });
  return out;
}

Variable AddEdgeBias(const Variable& edge_scores,
                     std::shared_ptr<const std::vector<float>> bias) {
  LASAGNE_CHECK_EQ(edge_scores->rows(), bias->size());
  LASAGNE_CHECK_EQ(edge_scores->cols(), 1u);
  Variable out = MakeTracedOp(
      [bias](const TraceInputs& in) { return AddEdgeBiasForward(in, *bias); },
      {edge_scores}, "AddEdgeBias", TraceOpMeta::EdgeBias(bias));
  Node* pe = edge_scores.get();
  out->set_backward_fn([pe](const Tensor& g) { pe->AccumulateGrad(g); });
  return out;
}

Variable EdgeSoftmax(const Variable& edge_scores,
                     std::shared_ptr<const EdgeStructure> edges) {
  LASAGNE_CHECK_EQ(edge_scores->rows(), edges->num_edges());
  LASAGNE_CHECK_EQ(edge_scores->cols(), 1u);
  Variable out = MakeTracedOp(
      [edges](const TraceInputs& in) { return EdgeSoftmaxForward(in, *edges); },
      {edge_scores}, "EdgeSoftmax",
      TraceOpMeta::Edge(TraceOpKind::kEdgeSoftmax, edges));
  Node* pe = edge_scores.get();
  Node* pout = out.get();
  out->set_backward_fn([pe, pout, edges](const Tensor& g) {
    Tensor dx = Tensor::Uninitialized(edges->num_edges(), 1);
    const float* p = pout->value().data();
    ForEachRow(*edges, 1, [&](size_t, size_t begin, size_t end) {
      double dot = 0.0;
      for (size_t k = begin; k < end; ++k) {
        dot += static_cast<double>(g.data()[k]) * p[k];
      }
      for (size_t k = begin; k < end; ++k) {
        dx.data()[k] = p[k] * (g.data()[k] - static_cast<float>(dot));
      }
    });
    pe->AccumulateGrad(dx);
  });
  return out;
}

Variable EdgeWeightedAggregate(const Variable& edge_weights,
                               const Variable& features,
                               std::shared_ptr<const EdgeStructure> edges) {
  LASAGNE_CHECK_EQ(edge_weights->rows(), edges->num_edges());
  LASAGNE_CHECK_EQ(edge_weights->cols(), 1u);
  LASAGNE_CHECK_EQ(features->rows(), edges->num_nodes);
  const size_t d = features->cols();
  Variable out = MakeTracedOp(
      [edges](const TraceInputs& in) {
        return EdgeWeightedAggregateForward(in, *edges);
      },
      {edge_weights, features}, "EdgeWeightedAggregate",
      TraceOpMeta::Edge(TraceOpKind::kEdgeWeightedAggregate, edges));
  Node* pw = edge_weights.get();
  Node* pf = features.get();
  out->set_backward_fn([pw, pf, edges, d](const Tensor& g) {
    if (pw->requires_grad()) {
      // dw_k = <g[dst(k)], features[src(k)]>, row-parallel over dst.
      Tensor dw = Tensor::Uninitialized(edges->num_edges(), 1);
      const float* f = pf->value().data();
      ForEachRow(*edges, d, [&](size_t i, size_t begin, size_t end) {
        const float* g_row = g.RowPtr(i);
        for (size_t k = begin; k < end; ++k) {
          const float* f_row = f + edges->src[k] * d;
          double acc = 0.0;
          for (size_t j = 0; j < d; ++j) acc += g_row[j] * f_row[j];
          dw.data()[k] = static_cast<float>(acc);
        }
      });
      pw->AccumulateGrad(dw);
    }
    if (pf->requires_grad()) {
      // df[src(k)] += w_k * g[dst(k)]: the transposed SpMM scatter,
      // column-partitioned like CsrMatrix::TransposedMultiply.
      Tensor df(edges->num_nodes, d);
      ParallelFor(0, d, CsrColGrain(edges->num_edges()),
                  [&](size_t col_begin, size_t col_end) {
                    kernels::SpmmTransposedCols(
                        edges->row_ptr.data(), edges->src.data(),
                        pw->value().data(), edges->num_nodes, g.data(), d,
                        df.data(), col_begin, col_end);
                  });
      pf->AccumulateGrad(df);
    }
  });
  return out;
}

}  // namespace lasagne::ag
