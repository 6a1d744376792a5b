#include "autograd/edge_ops.h"

#include <algorithm>
#include <cmath>

#include "autograd/forward_trace.h"
#include "autograd/ops.h"
#include "common/check.h"

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

Variable GatherEdgeScores(const Variable& dst_scores,
                          const Variable& src_scores,
                          std::shared_ptr<const EdgeStructure> edges) {
  LASAGNE_CHECK_EQ(dst_scores->cols(), 1u);
  LASAGNE_CHECK_EQ(src_scores->cols(), 1u);
  LASAGNE_CHECK_EQ(dst_scores->rows(), edges->num_nodes);
  LASAGNE_CHECK_EQ(src_scores->rows(), edges->num_nodes);
  Tensor y(edges->num_edges(), 1);
  for (size_t i = 0; i < edges->num_nodes; ++i) {
    const float d = dst_scores->value()(i, 0);
    for (size_t k = edges->row_ptr[i]; k < edges->row_ptr[i + 1]; ++k) {
      y(k, 0) = d + src_scores->value()(edges->src[k], 0);
    }
  }
  Variable out = MakeOpNode(std::move(y), {dst_scores, src_scores},
                            "GatherEdgeScores");
  Node* pd = dst_scores.get();
  Node* ps = src_scores.get();
  out->set_backward_fn([pd, ps, edges](const Tensor& g) {
    if (pd->requires_grad()) {
      Tensor dd(edges->num_nodes, 1);
      for (size_t i = 0; i < edges->num_nodes; ++i) {
        double acc = 0.0;
        for (size_t k = edges->row_ptr[i]; k < edges->row_ptr[i + 1]; ++k) {
          acc += g(k, 0);
        }
        dd(i, 0) = static_cast<float>(acc);
      }
      pd->AccumulateGrad(dd);
    }
    if (ps->requires_grad()) {
      Tensor ds(edges->num_nodes, 1);
      for (size_t k = 0; k < edges->num_edges(); ++k) {
        ds(edges->src[k], 0) += g(k, 0);
      }
      ps->AccumulateGrad(ds);
    }
  });
  if (internal::ForwardTraceActive()) {
    internal::TraceRecordOp(
        out, {dst_scores, src_scores},
        [edges](const std::vector<const Tensor*>& in) {
          Tensor y(edges->num_edges(), 1);
          for (size_t i = 0; i < edges->num_nodes; ++i) {
            const float d = (*in[0])(i, 0);
            for (size_t k = edges->row_ptr[i]; k < edges->row_ptr[i + 1];
                 ++k) {
              y(k, 0) = d + (*in[1])(edges->src[k], 0);
            }
          }
          return y;
        },
        "GatherEdgeScores",
        TraceOpMeta::Edge(TraceOpKind::kGatherEdgeScores, edges));
  }
  return out;
}

Variable AddEdgeBias(const Variable& edge_scores,
                     std::shared_ptr<const std::vector<float>> bias) {
  LASAGNE_CHECK_EQ(edge_scores->rows(), bias->size());
  LASAGNE_CHECK_EQ(edge_scores->cols(), 1u);
  Tensor y = edge_scores->value();
  for (size_t k = 0; k < bias->size(); ++k) y(k, 0) += (*bias)[k];
  Variable out = MakeOpNode(std::move(y), {edge_scores}, "AddEdgeBias");
  Node* pe = edge_scores.get();
  out->set_backward_fn([pe](const Tensor& g) { pe->AccumulateGrad(g); });
  if (internal::ForwardTraceActive()) {
    internal::TraceRecordOp(
        out, {edge_scores},
        [bias](const std::vector<const Tensor*>& in) {
          Tensor y = *in[0];
          for (size_t k = 0; k < bias->size(); ++k) y(k, 0) += (*bias)[k];
          return y;
        },
        "AddEdgeBias", TraceOpMeta::EdgeBias(bias));
  }
  return out;
}

Variable EdgeSoftmax(const Variable& edge_scores,
                     std::shared_ptr<const EdgeStructure> edges) {
  LASAGNE_CHECK_EQ(edge_scores->rows(), edges->num_edges());
  LASAGNE_CHECK_EQ(edge_scores->cols(), 1u);
  Tensor y = edge_scores->value();
  for (size_t i = 0; i < edges->num_nodes; ++i) {
    const size_t begin = edges->row_ptr[i];
    const size_t end = edges->row_ptr[i + 1];
    if (begin == end) continue;
    float max_v = y(begin, 0);
    for (size_t k = begin + 1; k < end; ++k) max_v = std::max(max_v, y(k, 0));
    double total = 0.0;
    for (size_t k = begin; k < end; ++k) {
      y(k, 0) = std::exp(y(k, 0) - max_v);
      total += y(k, 0);
    }
    const float inv = static_cast<float>(1.0 / total);
    for (size_t k = begin; k < end; ++k) y(k, 0) *= inv;
  }
  Variable out = MakeOpNode(y, {edge_scores}, "EdgeSoftmax");
  Node* pe = edge_scores.get();
  auto probs = std::make_shared<Tensor>(std::move(y));
  out->set_backward_fn([pe, probs, edges](const Tensor& g) {
    Tensor dx(edges->num_edges(), 1);
    for (size_t i = 0; i < edges->num_nodes; ++i) {
      const size_t begin = edges->row_ptr[i];
      const size_t end = edges->row_ptr[i + 1];
      double dot = 0.0;
      for (size_t k = begin; k < end; ++k) {
        dot += static_cast<double>(g(k, 0)) * (*probs)(k, 0);
      }
      for (size_t k = begin; k < end; ++k) {
        dx(k, 0) = (*probs)(k, 0) *
                   (g(k, 0) - static_cast<float>(dot));
      }
    }
    pe->AccumulateGrad(dx);
  });
  if (internal::ForwardTraceActive()) {
    internal::TraceRecordOp(
        out, {edge_scores},
        [edges](const std::vector<const Tensor*>& in) {
          Tensor y = *in[0];
          for (size_t i = 0; i < edges->num_nodes; ++i) {
            const size_t begin = edges->row_ptr[i];
            const size_t end = edges->row_ptr[i + 1];
            if (begin == end) continue;
            float max_v = y(begin, 0);
            for (size_t k = begin + 1; k < end; ++k) {
              max_v = std::max(max_v, y(k, 0));
            }
            double total = 0.0;
            for (size_t k = begin; k < end; ++k) {
              y(k, 0) = std::exp(y(k, 0) - max_v);
              total += y(k, 0);
            }
            const float inv = static_cast<float>(1.0 / total);
            for (size_t k = begin; k < end; ++k) y(k, 0) *= inv;
          }
          return y;
        },
        "EdgeSoftmax", TraceOpMeta::Edge(TraceOpKind::kEdgeSoftmax, edges));
  }
  return out;
}

Variable EdgeWeightedAggregate(const Variable& edge_weights,
                               const Variable& features,
                               std::shared_ptr<const EdgeStructure> edges) {
  LASAGNE_CHECK_EQ(edge_weights->rows(), edges->num_edges());
  LASAGNE_CHECK_EQ(edge_weights->cols(), 1u);
  LASAGNE_CHECK_EQ(features->rows(), edges->num_nodes);
  const size_t d = features->cols();
  Tensor y(edges->num_nodes, d);
  for (size_t i = 0; i < edges->num_nodes; ++i) {
    float* out_row = y.RowPtr(i);
    for (size_t k = edges->row_ptr[i]; k < edges->row_ptr[i + 1]; ++k) {
      const float w = edge_weights->value()(k, 0);
      const float* f_row = features->value().RowPtr(edges->src[k]);
      for (size_t j = 0; j < d; ++j) out_row[j] += w * f_row[j];
    }
  }
  Variable out = MakeOpNode(std::move(y), {edge_weights, features},
                            "EdgeWeightedAggregate");
  Node* pw = edge_weights.get();
  Node* pf = features.get();
  out->set_backward_fn([pw, pf, edges, d](const Tensor& g) {
    if (pw->requires_grad()) {
      Tensor dw(edges->num_edges(), 1);
      for (size_t i = 0; i < edges->num_nodes; ++i) {
        const float* g_row = g.RowPtr(i);
        for (size_t k = edges->row_ptr[i]; k < edges->row_ptr[i + 1]; ++k) {
          const float* f_row = pf->value().RowPtr(edges->src[k]);
          double acc = 0.0;
          for (size_t j = 0; j < d; ++j) acc += g_row[j] * f_row[j];
          dw(k, 0) = static_cast<float>(acc);
        }
      }
      pw->AccumulateGrad(dw);
    }
    if (pf->requires_grad()) {
      Tensor df(edges->num_nodes, d);
      for (size_t i = 0; i < edges->num_nodes; ++i) {
        const float* g_row = g.RowPtr(i);
        for (size_t k = edges->row_ptr[i]; k < edges->row_ptr[i + 1]; ++k) {
          const float w = pw->value()(k, 0);
          float* df_row = df.RowPtr(edges->src[k]);
          for (size_t j = 0; j < d; ++j) df_row[j] += w * g_row[j];
        }
      }
      pf->AccumulateGrad(df);
    }
  });
  if (internal::ForwardTraceActive()) {
    internal::TraceRecordOp(
        out, {edge_weights, features},
        [edges](const std::vector<const Tensor*>& in) {
          const size_t d = in[1]->cols();
          Tensor y(edges->num_nodes, d);
          for (size_t i = 0; i < edges->num_nodes; ++i) {
            float* out_row = y.RowPtr(i);
            for (size_t k = edges->row_ptr[i]; k < edges->row_ptr[i + 1];
                 ++k) {
              const float w = (*in[0])(k, 0);
              const float* f_row = in[1]->RowPtr(edges->src[k]);
              for (size_t j = 0; j < d; ++j) out_row[j] += w * f_row[j];
            }
          }
          return y;
        },
        "EdgeWeightedAggregate",
        TraceOpMeta::Edge(TraceOpKind::kEdgeWeightedAggregate, edges));
  }
  return out;
}

}  // namespace lasagne::ag
