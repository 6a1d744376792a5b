#include "tensor/kernels.h"

#include <algorithm>
#include <cmath>

#include "common/parallel_config.h"
#include "common/simd.h"

namespace lasagne::kernels {

namespace {

// Accumulator registers per output-column tile.
constexpr size_t kAcc = kColTile / simd::kWidth;
static_assert(kColTile % simd::kWidth == 0,
              "tile width must be a whole number of vector registers");

}  // namespace

// -- Packing -----------------------------------------------------------------

size_t PackedBSize(size_t k_dim, size_t n_dim) {
  return (n_dim / kColTile) * k_dim * kColTile;
}

void PackB(const float* b, size_t k_dim, size_t n_dim, float* packed) {
  const size_t full_tiles = n_dim / kColTile;
  for (size_t t = 0; t < full_tiles; ++t) {
    float* panel = packed + t * k_dim * kColTile;
    const float* src = b + t * kColTile;
    for (size_t kk = 0; kk < k_dim; ++kk) {
      const float* row = src + kk * n_dim;
      float* dst = panel + kk * kColTile;
      for (size_t c = 0; c < kColTile; ++c) dst[c] = row[c];
    }
  }
}

void PackBTransposed(const float* b, size_t n_dim, size_t k_dim,
                     float* packed) {
  const size_t full_tiles = n_dim / kColTile;
  for (size_t t = 0; t < full_tiles; ++t) {
    float* panel = packed + t * k_dim * kColTile;
    for (size_t jr = 0; jr < kColTile; ++jr) {
      const float* row = b + (t * kColTile + jr) * k_dim;
      for (size_t kk = 0; kk < k_dim; ++kk) {
        panel[kk * kColTile + jr] = row[kk];
      }
    }
  }
}

// -- Dense GEMM --------------------------------------------------------------

void GemmRowsNN(const float* a, size_t k_dim, size_t n_dim, const float* b,
                const float* b_packed, float* out, size_t row_begin,
                size_t row_end) {
  const size_t full_tiles = n_dim / kColTile;
  for (size_t i = row_begin; i < row_end; ++i) {
    const float* a_row = a + i * k_dim;
    float* out_row = out + i * n_dim;
    for (size_t t = 0; t < full_tiles; ++t) {
      const float* panel = b_packed + t * k_dim * kColTile;
      simd::Vec acc[kAcc];
      for (size_t c = 0; c < kAcc; ++c) acc[c] = simd::Zero();
      for (size_t kk = 0; kk < k_dim; ++kk) {
        const float a_ik = a_row[kk];
        if (a_ik == 0.0f) continue;
        const simd::Vec av = simd::Broadcast(a_ik);
        const float* prow = panel + kk * kColTile;
        for (size_t c = 0; c < kAcc; ++c) {
          acc[c] = simd::MulAdd(av, simd::Load(prow + c * simd::kWidth),
                                acc[c]);
        }
      }
      float* dst = out_row + t * kColTile;
      for (size_t c = 0; c < kAcc; ++c) {
        simd::Store(dst + c * simd::kWidth, acc[c]);
      }
    }
    for (size_t j = full_tiles * kColTile; j < n_dim; ++j) {
      float acc = 0.0f;
      for (size_t kk = 0; kk < k_dim; ++kk) {
        const float a_ik = a_row[kk];
        if (a_ik == 0.0f) continue;
        acc += a_ik * b[kk * n_dim + j];
      }
      out_row[j] = acc;
    }
  }
}

void GemmRowsNT(const float* a, size_t k_dim, size_t n_dim, const float* b,
                const float* b_packed, float* out, size_t row_begin,
                size_t row_end) {
  const size_t full_tiles = n_dim / kColTile;
  for (size_t i = row_begin; i < row_end; ++i) {
    const float* a_row = a + i * k_dim;
    float* out_row = out + i * n_dim;
    for (size_t t = 0; t < full_tiles; ++t) {
      const float* panel = b_packed + t * k_dim * kColTile;
      simd::Vec acc[kAcc];
      for (size_t c = 0; c < kAcc; ++c) acc[c] = simd::Zero();
      for (size_t kk = 0; kk < k_dim; ++kk) {
        const simd::Vec av = simd::Broadcast(a_row[kk]);
        const float* prow = panel + kk * kColTile;
        for (size_t c = 0; c < kAcc; ++c) {
          acc[c] = simd::MulAdd(av, simd::Load(prow + c * simd::kWidth),
                                acc[c]);
        }
      }
      float* dst = out_row + t * kColTile;
      for (size_t c = 0; c < kAcc; ++c) {
        simd::Store(dst + c * simd::kWidth, acc[c]);
      }
    }
    for (size_t j = full_tiles * kColTile; j < n_dim; ++j) {
      const float* b_row = b + j * k_dim;
      float acc = 0.0f;
      for (size_t kk = 0; kk < k_dim; ++kk) acc += a_row[kk] * b_row[kk];
      out_row[j] = acc;
    }
  }
}

void GemmColsTN(const float* a, size_t a_cols, const float* b, size_t n_dim,
                size_t m_rows, float* out, size_t col_begin, size_t col_end) {
  const size_t vec_n = (n_dim / simd::kWidth) * simd::kWidth;
  for (size_t r = 0; r < m_rows; ++r) {
    const float* a_row = a + r * a_cols;
    const float* b_row = b + r * n_dim;
    for (size_t i = col_begin; i < col_end; ++i) {
      const float a_ri = a_row[i];
      if (a_ri == 0.0f) continue;
      const simd::Vec av = simd::Broadcast(a_ri);
      float* out_row = out + i * n_dim;
      size_t j = 0;
      for (; j < vec_n; j += simd::kWidth) {
        simd::Store(out_row + j,
                    simd::MulAdd(av, simd::Load(b_row + j),
                                 simd::Load(out_row + j)));
      }
      for (; j < n_dim; ++j) out_row[j] += a_ri * b_row[j];
    }
  }
}

// -- CSR sparse-dense --------------------------------------------------------

void SpmmRows(const size_t* row_ptr, const uint32_t* col_idx,
              const float* values, const float* dense, size_t d, float* out,
              size_t row_begin, size_t row_end) {
  const size_t full_tiles = d / kColTile;
  for (size_t r = row_begin; r < row_end; ++r) {
    float* out_row = out + r * d;
    const size_t k_begin = row_ptr[r];
    const size_t k_end = row_ptr[r + 1];
    for (size_t t = 0; t < full_tiles; ++t) {
      const size_t off = t * kColTile;
      simd::Vec acc[kAcc];
      for (size_t c = 0; c < kAcc; ++c) acc[c] = simd::Zero();
      for (size_t k = k_begin; k < k_end; ++k) {
        const simd::Vec vv = simd::Broadcast(values[k]);
        const float* in_row = dense + col_idx[k] * d + off;
        for (size_t c = 0; c < kAcc; ++c) {
          acc[c] = simd::MulAdd(vv, simd::Load(in_row + c * simd::kWidth),
                                acc[c]);
        }
      }
      float* dst = out_row + off;
      for (size_t c = 0; c < kAcc; ++c) {
        simd::Store(dst + c * simd::kWidth, acc[c]);
      }
    }
    for (size_t j = full_tiles * kColTile; j < d; ++j) {
      float acc = 0.0f;
      for (size_t k = k_begin; k < k_end; ++k) {
        acc += values[k] * dense[col_idx[k] * d + j];
      }
      out_row[j] = acc;
    }
  }
}

void EdgeAttentionForward(const size_t* row_ptr, const uint32_t* src,
                          const float* dst_scores, const float* src_scores,
                          const float* edge_bias, float slope,
                          const float* features, size_t d, float* probs,
                          float* out, size_t row_begin, size_t row_end) {
  const size_t full_tiles = d / kColTile;
  for (size_t i = row_begin; i < row_end; ++i) {
    const size_t k_begin = row_ptr[i];
    const size_t k_end = row_ptr[i + 1];
    float* out_row = out + i * d;
    if (k_begin == k_end) {
      // Eager EdgeWeightedAggregate zero-initializes and never touches
      // isolated destinations; out may be uninitialized here.
      for (size_t j = 0; j < d; ++j) out_row[j] = 0.0f;
      continue;
    }
    // Raw score + bias + LeakyReLU, stored in the row's probs slice —
    // the exact GatherEdgeScores/AddEdgeBias/LeakyRelu float sequence.
    const float dst_i = dst_scores[i];
    for (size_t k = k_begin; k < k_end; ++k) {
      float t = dst_i + src_scores[src[k]];
      if (edge_bias != nullptr) t += edge_bias[k];
      probs[k] = t >= 0.0f ? t : slope * t;
    }
    // Masked softmax over the row, matching EdgeSoftmax: ascending
    // std::max chain, float exp, double total in ascending k, one
    // rounded multiply by 1/total per edge.
    float max_v = probs[k_begin];
    for (size_t k = k_begin + 1; k < k_end; ++k) {
      max_v = std::max(max_v, probs[k]);
    }
    double total = 0.0;
    for (size_t k = k_begin; k < k_end; ++k) {
      probs[k] = std::exp(probs[k] - max_v);
      total += probs[k];
    }
    const float inv = static_cast<float>(1.0 / total);
    for (size_t k = k_begin; k < k_end; ++k) probs[k] *= inv;
    // Weighted aggregation, register-blocked like SpmmRows: kColTile
    // output columns per pass, ascending-k accumulation per element —
    // the same 0 + w0*f0 + w1*f1 + ... chain as the eager zero-init
    // accumulate.
    for (size_t t = 0; t < full_tiles; ++t) {
      const size_t off = t * kColTile;
      simd::Vec acc[kAcc];
      for (size_t c = 0; c < kAcc; ++c) acc[c] = simd::Zero();
      for (size_t k = k_begin; k < k_end; ++k) {
        const simd::Vec wv = simd::Broadcast(probs[k]);
        const float* f_row = features + src[k] * d + off;
        for (size_t c = 0; c < kAcc; ++c) {
          acc[c] = simd::MulAdd(wv, simd::Load(f_row + c * simd::kWidth),
                                acc[c]);
        }
      }
      float* dst = out_row + off;
      for (size_t c = 0; c < kAcc; ++c) {
        simd::Store(dst + c * simd::kWidth, acc[c]);
      }
    }
    for (size_t j = full_tiles * kColTile; j < d; ++j) {
      float acc = 0.0f;
      for (size_t k = k_begin; k < k_end; ++k) {
        acc += probs[k] * features[src[k] * d + j];
      }
      out_row[j] = acc;
    }
  }
}

size_t SpGemmRowBlocked(const uint32_t* a_cols, const float* a_vals,
                        size_t a_len, const size_t* b_row_ptr,
                        const uint32_t* b_col_idx, const float* b_vals,
                        size_t b_cols, float* accumulator, uint8_t* is_touched,
                        uint32_t* touched, size_t* cursors) {
  if (a_len == 0) return 0;
  // One rolling cursor per A entry over its (sorted) B row; the column
  // span of the row bounds the block sweep.
  uint32_t min_col = static_cast<uint32_t>(b_cols);
  uint32_t max_col = 0;
  for (size_t t = 0; t < a_len; ++t) {
    const size_t begin = b_row_ptr[a_cols[t]];
    const size_t end = b_row_ptr[a_cols[t] + 1];
    cursors[t] = begin;
    if (begin == end) continue;
    min_col = std::min(min_col, b_col_idx[begin]);
    max_col = std::max(max_col, b_col_idx[end - 1]);
  }
  if (min_col >= b_cols) return 0;  // every contributing B row is empty
  size_t count = 0;
  const size_t first_block = (min_col / kSpGemmColBlock) * kSpGemmColBlock;
  for (size_t block_begin = first_block; block_begin <= max_col;
       block_begin += kSpGemmColBlock) {
    const uint32_t block_end = static_cast<uint32_t>(
        std::min(b_cols, block_begin + kSpGemmColBlock));
    for (size_t t = 0; t < a_len; ++t) {
      const float v = a_vals[t];
      const size_t row_end = b_row_ptr[a_cols[t] + 1];
      size_t k = cursors[t];
      // Within the block, entries of this B row are consumed in
      // ascending column order; across A entries t ascends, so each
      // output column still accumulates its products in the unblocked
      // merge's ascending-t order.
      while (k < row_end && b_col_idx[k] < block_end) {
        const uint32_t c = b_col_idx[k];
        if (!is_touched[c]) {
          is_touched[c] = 1;
          touched[count++] = c;
        }
        accumulator[c] += v * b_vals[k];
        ++k;
      }
      cursors[t] = k;
    }
  }
  return count;
}

void SpmmTransposedCols(const size_t* row_ptr, const uint32_t* col_idx,
                        const float* values, size_t rows, const float* dense,
                        size_t d, float* out, size_t col_begin,
                        size_t col_end) {
  const size_t width = col_end - col_begin;
  const size_t vec_w = (width / simd::kWidth) * simd::kWidth;
  for (size_t r = 0; r < rows; ++r) {
    const float* in_row = dense + r * d + col_begin;
    for (size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      const float v = values[k];
      const simd::Vec vv = simd::Broadcast(v);
      float* out_row = out + col_idx[k] * d + col_begin;
      size_t j = 0;
      for (; j < vec_w; j += simd::kWidth) {
        simd::Store(out_row + j,
                    simd::MulAdd(vv, simd::Load(in_row + j),
                                 simd::Load(out_row + j)));
      }
      for (; j < width; ++j) out_row[j] += v * in_row[j];
    }
  }
}

// -- Fused elementwise -------------------------------------------------------

namespace {

// Shared shape of every elementwise kernel: vector main loop plus a
// scalar tail computing the same per-lane expression.
template <typename VecFn, typename ScalarFn>
inline void EwLoop(size_t n, VecFn vec_fn, ScalarFn scalar_fn) {
  const size_t vec_n = (n / simd::kWidth) * simd::kWidth;
  size_t i = 0;
  for (; i < vec_n; i += simd::kWidth) vec_fn(i);
  for (; i < n; ++i) scalar_fn(i);
}

}  // namespace

void EwAdd(const float* a, const float* b, float* out, size_t n) {
  EwLoop(
      n,
      [&](size_t i) {
        simd::Store(out + i, simd::Add(simd::Load(a + i), simd::Load(b + i)));
      },
      [&](size_t i) { out[i] = a[i] + b[i]; });
}

void EwSub(const float* a, const float* b, float* out, size_t n) {
  EwLoop(
      n,
      [&](size_t i) {
        simd::Store(out + i, simd::Sub(simd::Load(a + i), simd::Load(b + i)));
      },
      [&](size_t i) { out[i] = a[i] - b[i]; });
}

void EwMul(const float* a, const float* b, float* out, size_t n) {
  EwLoop(
      n,
      [&](size_t i) {
        simd::Store(out + i, simd::Mul(simd::Load(a + i), simd::Load(b + i)));
      },
      [&](size_t i) { out[i] = a[i] * b[i]; });
}

void EwScale(const float* a, float s, float* out, size_t n) {
  const simd::Vec sv = simd::Broadcast(s);
  EwLoop(
      n,
      [&](size_t i) { simd::Store(out + i, simd::Mul(simd::Load(a + i), sv)); },
      [&](size_t i) { out[i] = a[i] * s; });
}

void EwAddInPlace(float* a, const float* b, size_t n) { EwAdd(a, b, a, n); }

void EwSubInPlace(float* a, const float* b, size_t n) { EwSub(a, b, a, n); }

void EwScaleInPlace(float* a, float s, size_t n) { EwScale(a, s, a, n); }

void EwAxpy(float* y, float alpha, const float* x, size_t n) {
  const simd::Vec av = simd::Broadcast(alpha);
  EwLoop(
      n,
      [&](size_t i) {
        simd::Store(y + i,
                    simd::MulAdd(av, simd::Load(x + i), simd::Load(y + i)));
      },
      [&](size_t i) { y[i] += alpha * x[i]; });
}

void ReluForward(const float* x, float* y, size_t n) {
  const simd::Vec zero = simd::Zero();
  EwLoop(
      n,
      // maxps(x, 0) returns 0 for NaN and -0 lanes — exactly the
      // scalar `v > 0 ? v : 0`.
      [&](size_t i) { simd::Store(y + i, simd::Max(simd::Load(x + i), zero)); },
      [&](size_t i) { y[i] = x[i] > 0.0f ? x[i] : 0.0f; });
}

void ReluBackward(const float* g, const float* x, float* dx, size_t n) {
  const simd::Vec zero = simd::Zero();
  EwLoop(
      n,
      // Naive backward: dx = g, then zeroed where x <= 0 (ordered:
      // NaN x keeps g). Equivalent mask: g & ~(x <= 0).
      [&](size_t i) {
        simd::Store(dx + i, simd::AndNot(simd::CmpLe(simd::Load(x + i), zero),
                                         simd::Load(g + i)));
      },
      [&](size_t i) { dx[i] = x[i] <= 0.0f ? 0.0f : g[i]; });
}

void LeakyReluForward(const float* x, float alpha, float* y, size_t n) {
  const simd::Vec zero = simd::Zero();
  const simd::Vec av = simd::Broadcast(alpha);
  EwLoop(
      n,
      [&](size_t i) {
        const simd::Vec xv = simd::Load(x + i);
        simd::Store(y + i, simd::Select(simd::CmpGe(xv, zero), xv,
                                        simd::Mul(av, xv)));
      },
      [&](size_t i) { y[i] = x[i] >= 0.0f ? x[i] : alpha * x[i]; });
}

void LeakyReluBackward(const float* g, const float* x, float alpha, float* dx,
                       size_t n) {
  const simd::Vec zero = simd::Zero();
  const simd::Vec av = simd::Broadcast(alpha);
  EwLoop(
      n,
      // Naive backward: dx = g, then scaled by alpha where x < 0
      // (ordered: NaN x keeps g).
      [&](size_t i) {
        const simd::Vec gv = simd::Load(g + i);
        simd::Store(dx + i, simd::Select(simd::CmpLt(simd::Load(x + i), zero),
                                         simd::Mul(gv, av), gv));
      },
      [&](size_t i) { dx[i] = x[i] < 0.0f ? g[i] * alpha : g[i]; });
}

void AddRowVector(const float* x, const float* bias, float* y, size_t cols,
                  size_t row_begin, size_t row_end) {
  for (size_t r = row_begin; r < row_end; ++r) {
    EwAdd(x + r * cols, bias, y + r * cols, cols);
  }
}

void ColSumAccumulate(const float* g, size_t rows, size_t cols, float* out) {
  const size_t vec_n = (cols / simd::kWidth) * simd::kWidth;
  for (size_t r = 0; r < rows; ++r) {
    const float* g_row = g + r * cols;
    size_t j = 0;
    for (; j < vec_n; j += simd::kWidth) {
      simd::Store(out + j, simd::Add(simd::Load(out + j),
                                     simd::Load(g_row + j)));
    }
    for (; j < cols; ++j) out[j] += g_row[j];
  }
}

void AdamUpdate(float* value, const float* grad, float* m, float* v, size_t n,
                float lr, float weight_decay, float beta1, float beta2,
                float bias1, float bias2, float eps) {
  const simd::Vec wd_v = simd::Broadcast(weight_decay);
  const simd::Vec b1_v = simd::Broadcast(beta1);
  const simd::Vec b2_v = simd::Broadcast(beta2);
  const simd::Vec c1_v = simd::Broadcast(1.0f - beta1);
  const simd::Vec c2_v = simd::Broadcast(1.0f - beta2);
  const simd::Vec bias1_v = simd::Broadcast(bias1);
  const simd::Vec bias2_v = simd::Broadcast(bias2);
  const simd::Vec lr_v = simd::Broadcast(lr);
  const simd::Vec eps_v = simd::Broadcast(eps);
  EwLoop(
      n,
      [&](size_t i) {
        const simd::Vec g =
            simd::Add(simd::Load(grad + i), simd::Mul(wd_v, simd::Load(value + i)));
        const simd::Vec m_new =
            simd::Add(simd::Mul(b1_v, simd::Load(m + i)), simd::Mul(c1_v, g));
        // ((1 - beta2) * g) * g — the naive loop's left-assoc product.
        const simd::Vec v_new = simd::Add(simd::Mul(b2_v, simd::Load(v + i)),
                                          simd::Mul(simd::Mul(c2_v, g), g));
        simd::Store(m + i, m_new);
        simd::Store(v + i, v_new);
        const simd::Vec m_hat = simd::Div(m_new, bias1_v);
        const simd::Vec v_hat = simd::Div(v_new, bias2_v);
        const simd::Vec step =
            simd::Div(simd::Mul(lr_v, m_hat),
                      simd::Add(simd::Sqrt(v_hat), eps_v));
        simd::Store(value + i, simd::Sub(simd::Load(value + i), step));
      },
      [&](size_t i) {
        const float g = grad[i] + weight_decay * value[i];
        m[i] = beta1 * m[i] + (1.0f - beta1) * g;
        v[i] = beta2 * v[i] + (1.0f - beta2) * g * g;
        const float m_hat = m[i] / bias1;
        const float v_hat = v[i] / bias2;
        value[i] -= lr * m_hat / (std::sqrt(v_hat) + eps);
      });
}

}  // namespace lasagne::kernels
