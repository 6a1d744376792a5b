#include "sparse/csr_matrix.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/check.h"
#include "common/parallel_config.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/kernels.h"

namespace lasagne {

namespace {

// Per-kernel call counters (function-local statics are thread-safe;
// the steady-state path is one relaxed load + one relaxed fetch_add).
inline void CountSpmm() {
  if (obs::MetricsEnabled()) {
    static obs::Counter& calls =
        obs::MetricsRegistry::Global().GetCounter("sparse.spmm.calls");
    calls.Increment();
  }
}

inline void CountSpmmTransposed() {
  if (obs::MetricsEnabled()) {
    static obs::Counter& calls =
        obs::MetricsRegistry::Global().GetCounter("sparse.spmm_t.calls");
    calls.Increment();
  }
}

inline void CountSpGemm() {
  if (obs::MetricsEnabled()) {
    static obs::Counter& calls =
        obs::MetricsRegistry::Global().GetCounter("sparse.spgemm.calls");
    calls.Increment();
  }
}

}  // namespace

CsrMatrix CsrMatrix::FromTriplets(size_t rows, size_t cols,
                                  std::vector<Triplet> triplets) {
  for (const Triplet& t : triplets) {
    LASAGNE_CHECK_LT(t.row, rows);
    LASAGNE_CHECK_LT(t.col, cols);
  }
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });
  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_.assign(rows + 1, 0);
  m.col_idx_.reserve(triplets.size());
  m.values_.reserve(triplets.size());
  size_t i = 0;
  for (size_t r = 0; r < rows; ++r) {
    while (i < triplets.size() && triplets[i].row == r) {
      // Coalesce duplicates within the row.
      uint32_t c = triplets[i].col;
      float v = triplets[i].value;
      ++i;
      while (i < triplets.size() && triplets[i].row == r &&
             triplets[i].col == c) {
        v += triplets[i].value;
        ++i;
      }
      m.col_idx_.push_back(c);
      m.values_.push_back(v);
    }
    m.row_ptr_[r + 1] = m.col_idx_.size();
  }
  return m;
}

CsrMatrix CsrMatrix::FromDense(const Tensor& dense, float tolerance) {
  std::vector<Triplet> triplets;
  for (size_t r = 0; r < dense.rows(); ++r) {
    for (size_t c = 0; c < dense.cols(); ++c) {
      float v = dense(r, c);
      if (std::fabs(v) > tolerance) {
        triplets.push_back({static_cast<uint32_t>(r),
                            static_cast<uint32_t>(c), v});
      }
    }
  }
  return FromTriplets(dense.rows(), dense.cols(), std::move(triplets));
}

CsrMatrix CsrMatrix::Identity(size_t n) {
  std::vector<Triplet> triplets;
  triplets.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    triplets.push_back({static_cast<uint32_t>(i), static_cast<uint32_t>(i),
                        1.0f});
  }
  return FromTriplets(n, n, std::move(triplets));
}

Tensor CsrMatrix::Multiply(const Tensor& dense) const {
  LASAGNE_TRACE_SCOPE("spmm");
  CountSpmm();
  LASAGNE_CHECK_EQ(cols_, dense.rows());
  const size_t d = dense.cols();
  Tensor out = Tensor::Uninitialized(rows_, d);
  // Row-partitioned SpMM, register-blocked kColTile output columns per
  // pass: every output element keeps its serial ascending-k
  // accumulation order, so results are bitwise-identical to the serial
  // loop at every thread count (docs/KERNELS.md).
  ParallelFor(0, rows_, CsrRowGrain(nnz(), rows_, d),
              [&](size_t row_begin, size_t row_end) {
                kernels::SpmmRows(row_ptr_.data(), col_idx_.data(),
                                  values_.data(), dense.data(), d, out.data(),
                                  row_begin, row_end);
              });
  return out;
}

Tensor CsrMatrix::TransposedMultiply(const Tensor& dense) const {
  LASAGNE_TRACE_SCOPE("spmm_t");
  CountSpmmTransposed();
  LASAGNE_CHECK_EQ(rows_, dense.rows());
  Tensor out(cols_, dense.cols());
  const size_t d = dense.cols();
  // The scatter pattern (out[col_idx] += ...) races under a row
  // partition, so partition the dense columns instead: each chunk owns
  // the output column slice [col_begin, col_end) of every output row,
  // writes are disjoint, and each output element accumulates in the
  // serial ascending-r order — bitwise-identical at every thread count
  // with no per-thread buffers or merge step.
  const size_t col_grain =
      std::max<size_t>(1, kGrain / std::max<size_t>(nnz(), 1));
  ParallelFor(0, d, col_grain, [&](size_t col_begin, size_t col_end) {
    kernels::SpmmTransposedCols(row_ptr_.data(), col_idx_.data(),
                                values_.data(), rows_, dense.data(), d,
                                out.data(), col_begin, col_end);
  });
  return out;
}

Tensor CsrMatrix::MultiplyVector(const Tensor& vec) const {
  LASAGNE_CHECK_EQ(vec.cols(), 1u);
  return Multiply(vec);
}

CsrMatrix CsrMatrix::Transpose() const {
  std::vector<Triplet> triplets;
  triplets.reserve(nnz());
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      triplets.push_back({col_idx_[k], static_cast<uint32_t>(r), values_[k]});
    }
  }
  return FromTriplets(cols_, rows_, std::move(triplets));
}

CsrMatrix CsrMatrix::Multiply(const CsrMatrix& other, float prune_tolerance,
                              size_t row_cap) const {
  LASAGNE_TRACE_SCOPE("spgemm");
  CountSpGemm();
  LASAGNE_CHECK_EQ(cols_, other.rows_);
  std::vector<Triplet> triplets;
  // Gustavson's algorithm with a dense accumulator per row, merged in
  // kSpGemmColBlock-wide column blocks (kernels::SpGemmRowBlocked) so
  // the accumulator slice a row is building stays cache-resident.
  // Per output element the products accumulate in the unblocked
  // merge's ascending-A-entry order, so values are bitwise-unchanged.
  // A column is "touched" when it is tracked explicitly — testing
  // accumulator[c] == 0.0f would re-add a column whose partial sums
  // cancel to exactly zero mid-row, inflating the count toward row_cap
  // (pruning real entries) and emitting duplicate triplets.
  std::vector<float> accumulator(other.cols_, 0.0f);
  std::vector<uint8_t> is_touched(other.cols_, 0);
  std::vector<uint32_t> touched(other.cols_);
  size_t max_row_len = 0;
  for (size_t r = 0; r < rows_; ++r) {
    max_row_len = std::max(max_row_len, row_ptr_[r + 1] - row_ptr_[r]);
  }
  std::vector<size_t> cursors(max_row_len);
  for (size_t r = 0; r < rows_; ++r) {
    const size_t a_begin = row_ptr_[r];
    const size_t a_len = row_ptr_[r + 1] - a_begin;
    size_t count = kernels::SpGemmRowBlocked(
        col_idx_.data() + a_begin, values_.data() + a_begin, a_len,
        other.row_ptr_.data(), other.col_idx_.data(), other.values_.data(),
        other.cols_, accumulator.data(), is_touched.data(), touched.data(),
        cursors.data());
    if (row_cap > 0 && count > row_cap) {
      // Keep the row_cap largest-magnitude entries of the row. Ties at
      // the cap boundary break toward the lower column id — a strict
      // total order (column ids are distinct), so the kept set does not
      // depend on the order the merge discovered the columns in.
      std::nth_element(touched.begin(), touched.begin() + row_cap,
                       touched.begin() + count,
                       [&](uint32_t a, uint32_t b) {
                         const float fa = std::fabs(accumulator[a]);
                         const float fb = std::fabs(accumulator[b]);
                         if (fa != fb) return fa > fb;
                         return a < b;
                       });
      for (size_t i = row_cap; i < count; ++i) {
        accumulator[touched[i]] = 0.0f;
        is_touched[touched[i]] = 0;
      }
      count = row_cap;
    }
    for (size_t i = 0; i < count; ++i) {
      const uint32_t c = touched[i];
      const float v = accumulator[c];
      accumulator[c] = 0.0f;
      is_touched[c] = 0;
      if (std::fabs(v) > prune_tolerance) {
        triplets.push_back({static_cast<uint32_t>(r), c, v});
      }
    }
  }
  return FromTriplets(rows_, other.cols_, std::move(triplets));
}

CsrMatrix CsrMatrix::Add(const CsrMatrix& other) const {
  LASAGNE_CHECK_EQ(rows_, other.rows_);
  LASAGNE_CHECK_EQ(cols_, other.cols_);
  std::vector<Triplet> triplets;
  triplets.reserve(nnz() + other.nnz());
  auto append = [&triplets](const CsrMatrix& m) {
    for (size_t r = 0; r < m.rows_; ++r) {
      for (size_t k = m.row_ptr_[r]; k < m.row_ptr_[r + 1]; ++k) {
        triplets.push_back(
            {static_cast<uint32_t>(r), m.col_idx_[k], m.values_[k]});
      }
    }
  };
  append(*this);
  append(other);
  return FromTriplets(rows_, cols_, std::move(triplets));
}

CsrMatrix CsrMatrix::Scale(float scalar) const {
  CsrMatrix out = *this;
  for (float& v : out.values_) v *= scalar;
  return out;
}

CsrMatrix CsrMatrix::ScaleRowsCols(const Tensor& row_factors,
                                   const Tensor& col_factors) const {
  LASAGNE_CHECK_EQ(row_factors.rows(), rows_);
  LASAGNE_CHECK_EQ(col_factors.rows(), cols_);
  CsrMatrix out = *this;
  for (size_t r = 0; r < rows_; ++r) {
    const float rf = row_factors(r, 0);
    for (size_t k = out.row_ptr_[r]; k < out.row_ptr_[r + 1]; ++k) {
      out.values_[k] *= rf * col_factors(out.col_idx_[k], 0);
    }
  }
  return out;
}

CsrMatrix CsrMatrix::RowStochastic() const {
  CsrMatrix out = *this;
  for (size_t r = 0; r < rows_; ++r) {
    double total = 0.0;
    for (size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      total += values_[k];
    }
    if (total != 0.0) {
      const float inv = static_cast<float>(1.0 / total);
      for (size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
        out.values_[k] *= inv;
      }
    }
  }
  return out;
}

Tensor CsrMatrix::ToDense() const {
  Tensor out(rows_, cols_);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      out(r, col_idx_[k]) += values_[k];
    }
  }
  return out;
}

float CsrMatrix::At(size_t r, size_t c) const {
  LASAGNE_CHECK_LT(r, rows_);
  LASAGNE_CHECK_LT(c, cols_);
  const uint32_t target = static_cast<uint32_t>(c);
  auto begin = col_idx_.begin() + row_ptr_[r];
  auto end = col_idx_.begin() + row_ptr_[r + 1];
  auto it = std::lower_bound(begin, end, target);
  if (it != end && *it == target) {
    return values_[static_cast<size_t>(it - col_idx_.begin())];
  }
  return 0.0f;
}

CsrMatrix CsrMatrix::SubMatrix(const std::vector<uint32_t>& row_ids,
                               const std::vector<uint32_t>& col_ids) const {
  std::unordered_map<uint32_t, uint32_t> col_map;
  col_map.reserve(col_ids.size());
  for (uint32_t i = 0; i < col_ids.size(); ++i) {
    LASAGNE_CHECK_LT(col_ids[i], cols_);
    LASAGNE_CHECK(col_map.emplace(col_ids[i], i).second);
  }
  std::vector<Triplet> triplets;
  for (uint32_t new_r = 0; new_r < row_ids.size(); ++new_r) {
    const uint32_t old_r = row_ids[new_r];
    LASAGNE_CHECK_LT(old_r, rows_);
    for (size_t k = row_ptr_[old_r]; k < row_ptr_[old_r + 1]; ++k) {
      auto it = col_map.find(col_idx_[k]);
      if (it != col_map.end()) {
        triplets.push_back({new_r, it->second, values_[k]});
      }
    }
  }
  return FromTriplets(row_ids.size(), col_ids.size(), std::move(triplets));
}

bool CsrMatrix::IsSymmetric(float tolerance) const {
  if (rows_ != cols_) return false;
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      if (std::fabs(values_[k] - At(col_idx_[k], r)) > tolerance) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace lasagne
