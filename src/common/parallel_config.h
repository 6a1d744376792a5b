#ifndef LASAGNE_COMMON_PARALLEL_CONFIG_H_
#define LASAGNE_COMMON_PARALLEL_CONFIG_H_

#include <algorithm>
#include <cstddef>

// Shared chunking and tile-size constants for the parallel compute
// layer and the blocked kernel engine. Grain tuning happens here, in
// one place, instead of in per-file anonymous-namespace copies (see
// docs/THREADING.md for the grain heuristics and docs/KERNELS.md for
// the tile geometry).

namespace lasagne {

/// Elements of work per parallel chunk. Loops cheaper than this run
/// inline on the calling thread.
inline constexpr size_t kGrain = 32768;

/// Row grain for kernels whose per-row cost is `work_per_row` elements:
/// enough rows per chunk that a chunk amortizes the dispatch overhead.
inline size_t RowGrain(size_t work_per_row) {
  return std::max<size_t>(1, kGrain / std::max<size_t>(1, work_per_row));
}

/// Row grain for a CSR row sweep that reads `nnz` entries over `rows`
/// rows and writes `d` output columns per row (SpMM, fused edge
/// attention): average fan-in plus one, times the width. Every eager op
/// and plan replay of such a sweep partitions through this, so a plan
/// step splits its rows exactly like the eager op it replaces.
inline size_t CsrRowGrain(size_t nnz, size_t rows, size_t d) {
  return RowGrain((nnz / std::max<size_t>(rows, 1) + 1) *
                  std::max<size_t>(d, 1));
}

namespace kernels {

/// Width (in floats) of one GEMM/SpMM register tile along the output
/// columns. Each tile is accumulated in SIMD registers across the full
/// reduction dimension, so it must fit the architectural register file:
/// 16 floats = 2 AVX2 or 4 SSE2 accumulators plus operand registers.
inline constexpr size_t kColTile = 16;

}  // namespace kernels
}  // namespace lasagne

#endif  // LASAGNE_COMMON_PARALLEL_CONFIG_H_
