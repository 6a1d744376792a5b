#include "autograd/fm_op.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "autograd/ops.h"
#include "common/check.h"
#include "obs/trace.h"

namespace lasagne::ag {

namespace {

/// O = x w plus the cross-field term of fm_op.h, from the inputs
/// {x, w, v}. With `t_cache` non-null, every t_ijp (index
/// ((i * f) + j) * p_fields * k + p * k + t) is kept there for the
/// backward; without it each (i, j) reuses one p_fields * k scratch,
/// through the same accumulation chain.
Tensor FmForward(const TraceInputs& in, const std::vector<size_t>& offsets,
                 size_t k, std::vector<float>* t_cache) {
  const Tensor& xv = *in[0];
  const Tensor& vv = *in[2];
  const size_t n = xv.rows();
  const size_t f = in[1]->cols();
  const size_t p_fields = offsets.size() - 1;
  Tensor y = xv.MatMul(*in[1]);  // linear term
  std::vector<float> scratch;
  if (t_cache != nullptr) {
    t_cache->assign(n * f * p_fields * k, 0.0f);
  } else {
    scratch.resize(p_fields * k);
  }
  for (size_t i = 0; i < n; ++i) {
    const float* x_row = xv.RowPtr(i);
    for (size_t j = 0; j < f; ++j) {
      float* t_ij = scratch.data();
      if (t_cache != nullptr) {
        t_ij = t_cache->data() + ((i * f) + j) * p_fields * k;
      } else {
        std::fill(scratch.begin(), scratch.end(), 0.0f);
      }
      for (size_t p = 0; p < p_fields; ++p) {
        float* t_p = t_ij + p * k;
        for (size_t mm = offsets[p]; mm < offsets[p + 1]; ++mm) {
          const float xim = x_row[mm];
          if (xim == 0.0f) continue;
          const float* v_row = vv.RowPtr(mm) + j * k;
          for (size_t tt = 0; tt < k; ++tt) t_p[tt] += xim * v_row[tt];
        }
      }
      // cross = 0.5 * (||sum_p t_p||^2 - sum_p ||t_p||^2)
      double cross = 0.0;
      for (size_t tt = 0; tt < k; ++tt) {
        double s = 0.0;
        double sq = 0.0;
        for (size_t p = 0; p < p_fields; ++p) {
          const double val = t_ij[p * k + tt];
          s += val;
          sq += val * val;
        }
        cross += 0.5 * (s * s - sq);
      }
      y(i, j) += static_cast<float>(cross);
    }
  }
  return y;
}

}  // namespace

Variable FmInteraction(const Variable& x, const Variable& w,
                       const Variable& v,
                       std::vector<size_t> field_offsets, size_t k) {
  LASAGNE_TRACE_SCOPE("fm.forward");
  const size_t n = x->rows();
  const size_t m = x->cols();
  const size_t f = w->cols();
  LASAGNE_CHECK_GE(field_offsets.size(), 2u);
  const size_t p_fields = field_offsets.size() - 1;
  LASAGNE_CHECK_EQ(field_offsets.front(), 0u);
  LASAGNE_CHECK_EQ(field_offsets.back(), m);
  LASAGNE_CHECK_EQ(w->rows(), m);
  LASAGNE_CHECK_EQ(v->rows(), m);
  LASAGNE_CHECK_EQ(v->cols(), f * k);

  auto offsets =
      std::make_shared<std::vector<size_t>>(std::move(field_offsets));
  auto t_cache = std::make_shared<std::vector<float>>();
  Variable out = MakeTracedOp(
      [offsets, k](const TraceInputs& in, std::vector<float>* cache) {
        return FmForward(in, *offsets, k, cache);
      },
      t_cache.get(), {x, w, v}, "FmInteraction");
  Node* px = x.get();
  Node* pw = w.get();
  Node* pv = v.get();
  out->set_backward_fn([px, pw, pv, t_cache, offsets, n, m, f, k,
                        p_fields](const Tensor& g) {
    LASAGNE_TRACE_SCOPE("fm.backward");
    const Tensor& xv = px->value();
    const Tensor& vv = pv->value();
    if (pw->requires_grad()) {
      pw->AccumulateGrad(xv.TransposedMatMul(g));
    }
    const bool need_dx = px->requires_grad();
    const bool need_dv = pv->requires_grad();
    // The linear part of dx is g @ w^T.
    Tensor dx = need_dx ? g.MatMulTransposed(pw->value()) : Tensor();
    Tensor dv = need_dv ? Tensor(m, f * k) : Tensor();
    // Field -> offset lookup for coordinate m.
    std::vector<size_t> field_of(m);
    for (size_t p = 0; p < p_fields; ++p) {
      for (size_t mm = (*offsets)[p]; mm < (*offsets)[p + 1]; ++mm) {
        field_of[mm] = p;
      }
    }
    std::vector<float> s_ij(k);
    for (size_t i = 0; i < n; ++i) {
      const float* x_row = xv.RowPtr(i);
      float* dx_row = need_dx ? dx.RowPtr(i) : nullptr;
      for (size_t j = 0; j < f; ++j) {
        const float gij = g(i, j);
        if (gij == 0.0f) continue;
        const float* t_ij = t_cache->data() + ((i * f) + j) * p_fields * k;
        for (size_t tt = 0; tt < k; ++tt) {
          double s = 0.0;
          for (size_t p = 0; p < p_fields; ++p) s += t_ij[p * k + tt];
          s_ij[tt] = static_cast<float>(s);
        }
        for (size_t mm = 0; mm < m; ++mm) {
          const size_t p = field_of[mm];
          const float* v_row = vv.RowPtr(mm) + j * k;
          const float xim = x_row[mm];
          const float* t_p = t_ij + p * k;
          if (need_dx) {
            double acc = 0.0;
            for (size_t tt = 0; tt < k; ++tt) {
              acc += static_cast<double>(s_ij[tt] - t_p[tt]) * v_row[tt];
            }
            dx_row[mm] += gij * static_cast<float>(acc);
          }
          if (need_dv && xim != 0.0f) {
            float* dv_row = dv.RowPtr(mm) + j * k;
            for (size_t tt = 0; tt < k; ++tt) {
              dv_row[tt] += gij * (s_ij[tt] - t_p[tt]) * xim;
            }
          }
        }
      }
    }
    if (need_dx) px->AccumulateGrad(dx);
    if (need_dv) pv->AccumulateGrad(dv);
  });
  return out;
}

}  // namespace lasagne::ag
