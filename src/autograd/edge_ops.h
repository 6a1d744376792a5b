#ifndef LASAGNE_AUTOGRAD_EDGE_OPS_H_
#define LASAGNE_AUTOGRAD_EDGE_OPS_H_

#include <memory>
#include <vector>

#include "autograd/variable.h"
#include "graph/graph.h"

namespace lasagne::ag {

/// Destination-grouped directed edge structure used by per-edge
/// (attention) ops. For destination node i, the incident source nodes
/// are `src[row_ptr[i] .. row_ptr[i+1])`. Edge id == position in `src`.
struct EdgeStructure {
  size_t num_nodes = 0;
  std::vector<size_t> row_ptr;  // size num_nodes + 1
  std::vector<uint32_t> src;    // size num_edges (directed)

  size_t num_edges() const { return src.size(); }

  /// Builds from a graph, optionally adding self-loops (GAT convention).
  static std::shared_ptr<const EdgeStructure> FromGraph(const Graph& graph,
                                                        bool add_self_loops);
};

/// Per-edge score e_k = src_scores[src(k)] + dst_scores[dst(k)], the GAT
/// decomposition a^T [W h_i || W h_j] = aL.W h_i + aR.W h_j.
/// `src_scores`/`dst_scores` are (N x 1). Returns (E x 1).
Variable GatherEdgeScores(const Variable& dst_scores,
                          const Variable& src_scores,
                          std::shared_ptr<const EdgeStructure> edges);

/// Adds a constant per-edge bias (structural prior, used by ADSF).
Variable AddEdgeBias(const Variable& edge_scores,
                     std::shared_ptr<const std::vector<float>> bias);

/// Softmax over each destination's incident edges: (E x 1) -> (E x 1).
Variable EdgeSoftmax(const Variable& edge_scores,
                     std::shared_ptr<const EdgeStructure> edges);

/// Aggregates features through weighted edges:
/// out[i] = sum_{k : dst(k) = i} w_k * features[src(k)]. Gradients flow
/// to both the edge weights and the features.
Variable EdgeWeightedAggregate(const Variable& edge_weights,
                               const Variable& features,
                               std::shared_ptr<const EdgeStructure> edges);

}  // namespace lasagne::ag

#endif  // LASAGNE_AUTOGRAD_EDGE_OPS_H_
