#include "autograd/ops.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "autograd/forward_trace.h"
#include "autograd/inference.h"
#include "common/check.h"
#include "common/parallel_config.h"
#include "common/thread_pool.h"
#include "tensor/kernels.h"

namespace lasagne::ag {

Variable MakeOpNode(Tensor value, std::vector<Variable> parents,
                    const char* op_name) {
  if (InferenceModeEnabled()) {
    // Value-only node: no requires_grad propagation, no parent
    // retention, and set_backward_fn discards the op's closure, so the
    // tape never materializes and each intermediate frees as soon as
    // its consumer has run.
    for (const Variable& p : parents) LASAGNE_CHECK(p != nullptr);
    auto node = std::make_shared<Node>(std::move(value),
                                       /*requires_grad=*/false,
                                       /*grad_enabled=*/false);
    node->set_op_name(op_name);
    if (internal::ForwardTraceActive()) {
      internal::TraceNoteNode(node.get(), op_name);
    }
    return node;
  }
  bool requires_grad = false;
  for (const Variable& p : parents) {
    LASAGNE_CHECK(p != nullptr);
    requires_grad = requires_grad || p->requires_grad();
  }
  internal::CountOpNode(parents.size());
  auto node = std::make_shared<Node>(std::move(value), requires_grad);
  node->set_parents(std::move(parents));
  node->set_op_name(op_name);
  return node;
}

// ---------------------------------------------------------------------------
// Elementwise / arithmetic
// ---------------------------------------------------------------------------

// Every op that can appear in an evaluation-mode forward registers a
// replay closure with the active ForwardTrace (plan compiler capture,
// src/infer/plan.h). The closure reruns exactly the eager arithmetic on
// the current input tensors; the ForwardTraceActive() branch keeps the
// untraced path at one thread-local load per op.

Variable Add(const Variable& a, const Variable& b) {
  Variable out = MakeOpNode(a->value() + b->value(), {a, b}, "Add");
  Node* pa = a.get();
  Node* pb = b.get();
  out->set_backward_fn([pa, pb](const Tensor& g) {
    pa->AccumulateGrad(g);
    pb->AccumulateGrad(g);
  });
  if (internal::ForwardTraceActive()) {
    internal::TraceRecordOp(
        out, {a, b},
        [](const std::vector<const Tensor*>& in) { return *in[0] + *in[1]; },
        "Add", TraceOpMeta::Kind(TraceOpKind::kAdd));
  }
  return out;
}

Variable AddMany(const std::vector<Variable>& inputs) {
  LASAGNE_CHECK(!inputs.empty());
  Tensor total = inputs[0]->value();
  for (size_t i = 1; i < inputs.size(); ++i) total += inputs[i]->value();
  Variable out = MakeOpNode(std::move(total), inputs, "AddMany");
  std::vector<Node*> raw;
  raw.reserve(inputs.size());
  for (const Variable& v : inputs) raw.push_back(v.get());
  out->set_backward_fn([raw](const Tensor& g) {
    for (Node* n : raw) n->AccumulateGrad(g);
  });
  if (internal::ForwardTraceActive()) {
    internal::TraceRecordOp(
        out, inputs,
        [](const std::vector<const Tensor*>& in) {
          Tensor total = *in[0];
          for (size_t i = 1; i < in.size(); ++i) total += *in[i];
          return total;
        },
        "AddMany");
  }
  return out;
}

Variable Sub(const Variable& a, const Variable& b) {
  Variable out = MakeOpNode(a->value() - b->value(), {a, b}, "Sub");
  Node* pa = a.get();
  Node* pb = b.get();
  out->set_backward_fn([pa, pb](const Tensor& g) {
    pa->AccumulateGrad(g);
    pb->AccumulateGrad(g * -1.0f);
  });
  if (internal::ForwardTraceActive()) {
    internal::TraceRecordOp(
        out, {a, b},
        [](const std::vector<const Tensor*>& in) { return *in[0] - *in[1]; },
        "Sub");
  }
  return out;
}

Variable Mul(const Variable& a, const Variable& b) {
  Variable out = MakeOpNode(a->value() * b->value(), {a, b}, "Mul");
  Node* pa = a.get();
  Node* pb = b.get();
  out->set_backward_fn([pa, pb](const Tensor& g) {
    pa->AccumulateGrad(g * pb->value());
    pb->AccumulateGrad(g * pa->value());
  });
  if (internal::ForwardTraceActive()) {
    internal::TraceRecordOp(
        out, {a, b},
        [](const std::vector<const Tensor*>& in) { return *in[0] * *in[1]; },
        "Mul");
  }
  return out;
}

Variable ScalarMul(const Variable& x, float scalar) {
  Variable out = MakeOpNode(x->value() * scalar, {x}, "ScalarMul");
  Node* px = x.get();
  out->set_backward_fn([px, scalar](const Tensor& g) {
    px->AccumulateGrad(g * scalar);
  });
  if (internal::ForwardTraceActive()) {
    internal::TraceRecordOp(
        out, {x},
        [scalar](const std::vector<const Tensor*>& in) {
          return *in[0] * scalar;
        },
        "ScalarMul");
  }
  return out;
}

namespace {

// Shared implementation for y = f(x) with dy/dx a function of (x, y).
Variable UnaryOp(const Variable& x, const char* name,
                 const std::function<float(float)>& fwd,
                 std::function<Tensor(const Tensor& g, const Tensor& x_val,
                                      const Tensor& y_val)>
                     bwd) {
  Tensor y = x->value().Map(fwd);
  Variable out = MakeOpNode(std::move(y), {x}, name);
  Node* px = x.get();
  Node* pout = out.get();
  out->set_backward_fn([px, pout, bwd](const Tensor& g) {
    px->AccumulateGrad(bwd(g, px->value(), pout->value()));
  });
  if (internal::ForwardTraceActive()) {
    internal::TraceRecordOp(
        out, {x},
        [fwd](const std::vector<const Tensor*>& in) { return in[0]->Map(fwd); },
        name);
  }
  return out;
}

}  // namespace

Variable Relu(const Variable& x) {
  // Fused kernel path: forward is max(x, 0) lane-exactly, backward
  // masks g where x <= 0 — both bitwise the per-element formulation
  // UnaryOp used to run through std::function (docs/KERNELS.md).
  Tensor y = Tensor::Uninitialized(x->rows(), x->cols());
  ParallelFor(0, y.size(), kGrain, [&](size_t begin, size_t end) {
    kernels::ReluForward(x->value().data() + begin, y.data() + begin,
                         end - begin);
  });
  Variable out = MakeOpNode(std::move(y), {x}, "Relu");
  Node* px = x.get();
  out->set_backward_fn([px](const Tensor& g) {
    Tensor dx = Tensor::Uninitialized(g.rows(), g.cols());
    ParallelFor(0, g.size(), kGrain, [&](size_t begin, size_t end) {
      kernels::ReluBackward(g.data() + begin, px->value().data() + begin,
                            dx.data() + begin, end - begin);
    });
    px->AccumulateGrad(dx);
  });
  if (internal::ForwardTraceActive()) {
    internal::TraceRecordOp(
        out, {x},
        [](const std::vector<const Tensor*>& in) {
          Tensor y = Tensor::Uninitialized(in[0]->rows(), in[0]->cols());
          ParallelFor(0, y.size(), kGrain, [&](size_t begin, size_t end) {
            kernels::ReluForward(in[0]->data() + begin, y.data() + begin,
                                 end - begin);
          });
          return y;
        },
        "Relu", TraceOpMeta::Kind(TraceOpKind::kRelu));
  }
  return out;
}

Variable LeakyRelu(const Variable& x, float alpha) {
  Tensor y = Tensor::Uninitialized(x->rows(), x->cols());
  ParallelFor(0, y.size(), kGrain, [&](size_t begin, size_t end) {
    kernels::LeakyReluForward(x->value().data() + begin, alpha,
                              y.data() + begin, end - begin);
  });
  Variable out = MakeOpNode(std::move(y), {x}, "LeakyRelu");
  Node* px = x.get();
  out->set_backward_fn([px, alpha](const Tensor& g) {
    Tensor dx = Tensor::Uninitialized(g.rows(), g.cols());
    ParallelFor(0, g.size(), kGrain, [&](size_t begin, size_t end) {
      kernels::LeakyReluBackward(g.data() + begin,
                                 px->value().data() + begin, alpha,
                                 dx.data() + begin, end - begin);
    });
    px->AccumulateGrad(dx);
  });
  if (internal::ForwardTraceActive()) {
    internal::TraceRecordOp(
        out, {x},
        [alpha](const std::vector<const Tensor*>& in) {
          Tensor y = Tensor::Uninitialized(in[0]->rows(), in[0]->cols());
          ParallelFor(0, y.size(), kGrain, [&](size_t begin, size_t end) {
            kernels::LeakyReluForward(in[0]->data() + begin, alpha,
                                      y.data() + begin, end - begin);
          });
          return y;
        },
        "LeakyRelu", TraceOpMeta::LeakySlope(alpha));
  }
  return out;
}

Variable Sigmoid(const Variable& x) {
  return UnaryOp(
      x, "Sigmoid",
      [](float v) { return 1.0f / (1.0f + std::exp(-v)); },
      [](const Tensor& g, const Tensor&, const Tensor& y_val) {
        Tensor dx = g;
        for (size_t i = 0; i < dx.rows(); ++i) {
          for (size_t j = 0; j < dx.cols(); ++j) {
            const float s = y_val(i, j);
            dx(i, j) *= s * (1.0f - s);
          }
        }
        return dx;
      });
}

Variable Tanh(const Variable& x) {
  return UnaryOp(
      x, "Tanh", [](float v) { return std::tanh(v); },
      [](const Tensor& g, const Tensor&, const Tensor& y_val) {
        Tensor dx = g;
        for (size_t i = 0; i < dx.rows(); ++i) {
          for (size_t j = 0; j < dx.cols(); ++j) {
            const float t = y_val(i, j);
            dx(i, j) *= 1.0f - t * t;
          }
        }
        return dx;
      });
}

Variable Exp(const Variable& x) {
  return UnaryOp(
      x, "Exp", [](float v) { return std::exp(v); },
      [](const Tensor& g, const Tensor&, const Tensor& y_val) {
        return g * y_val;
      });
}

Variable Log(const Variable& x, float eps) {
  return UnaryOp(
      x, "Log",
      [eps](float v) { return std::log(std::max(v, eps)); },
      [eps](const Tensor& g, const Tensor& x_val, const Tensor&) {
        Tensor dx = g;
        for (size_t i = 0; i < dx.rows(); ++i) {
          for (size_t j = 0; j < dx.cols(); ++j) {
            dx(i, j) /= std::max(x_val(i, j), eps);
          }
        }
        return dx;
      });
}

// ---------------------------------------------------------------------------
// Linear algebra
// ---------------------------------------------------------------------------

Variable MatMul(const Variable& a, const Variable& b) {
  Variable out = MakeOpNode(a->value().MatMul(b->value()), {a, b}, "MatMul");
  Node* pa = a.get();
  Node* pb = b.get();
  out->set_backward_fn([pa, pb](const Tensor& g) {
    if (pa->requires_grad()) {
      pa->AccumulateGrad(g.MatMulTransposed(pb->value()));
    }
    if (pb->requires_grad()) {
      pb->AccumulateGrad(pa->value().TransposedMatMul(g));
    }
  });
  if (internal::ForwardTraceActive()) {
    internal::TraceRecordOp(
        out, {a, b},
        [](const std::vector<const Tensor*>& in) {
          return in[0]->MatMul(*in[1]);
        },
        "MatMul", TraceOpMeta::Kind(TraceOpKind::kMatMul));
  }
  return out;
}

Variable Transpose(const Variable& x) {
  Variable out = MakeOpNode(x->value().Transpose(), {x}, "Transpose");
  Node* px = x.get();
  out->set_backward_fn([px](const Tensor& g) {
    px->AccumulateGrad(g.Transpose());
  });
  if (internal::ForwardTraceActive()) {
    internal::TraceRecordOp(
        out, {x},
        [](const std::vector<const Tensor*>& in) { return in[0]->Transpose(); },
        "Transpose");
  }
  return out;
}

Variable SpMM(std::shared_ptr<const CsrMatrix> matrix, const Variable& x) {
  LASAGNE_CHECK(matrix != nullptr);
  Variable out = MakeOpNode(matrix->Multiply(x->value()), {x}, "SpMM");
  Node* px = x.get();
  out->set_backward_fn([matrix, px](const Tensor& g) {
    px->AccumulateGrad(matrix->TransposedMultiply(g));
  });
  if (internal::ForwardTraceActive()) {
    internal::TraceRecordOp(
        out, {x},
        [matrix](const std::vector<const Tensor*>& in) {
          return matrix->Multiply(*in[0]);
        },
        "SpMM", TraceOpMeta::Spmm(matrix));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Broadcasting / shaping
// ---------------------------------------------------------------------------

Variable AddRowVector(const Variable& x, const Variable& bias) {
  LASAGNE_CHECK_EQ(bias->rows(), 1u);
  LASAGNE_CHECK_EQ(bias->cols(), x->cols());
  const size_t cols = x->cols();
  Tensor y = Tensor::Uninitialized(x->rows(), cols);
  ParallelFor(0, x->rows(), RowGrain(cols), [&](size_t row_begin,
                                                size_t row_end) {
    kernels::AddRowVector(x->value().data(), bias->value().data(), y.data(),
                          cols, row_begin, row_end);
  });
  Variable out = MakeOpNode(std::move(y), {x, bias}, "AddRowVector");
  Node* px = x.get();
  Node* pb = bias.get();
  out->set_backward_fn([px, pb](const Tensor& g) {
    if (px->requires_grad()) px->AccumulateGrad(g);
    if (pb->requires_grad()) {
      Tensor db(1, g.cols());
      kernels::ColSumAccumulate(g.data(), g.rows(), g.cols(), db.data());
      pb->AccumulateGrad(db);
    }
  });
  if (internal::ForwardTraceActive()) {
    internal::TraceRecordOp(
        out, {x, bias},
        [](const std::vector<const Tensor*>& in) {
          const size_t cols = in[0]->cols();
          Tensor y = Tensor::Uninitialized(in[0]->rows(), cols);
          ParallelFor(0, in[0]->rows(), RowGrain(cols),
                      [&](size_t row_begin, size_t row_end) {
                        kernels::AddRowVector(in[0]->data(), in[1]->data(),
                                              y.data(), cols, row_begin,
                                              row_end);
                      });
          return y;
        },
        "AddRowVector", TraceOpMeta::Kind(TraceOpKind::kAddRowVector));
  }
  return out;
}

Variable RowScale(const Variable& x, const Variable& c) {
  LASAGNE_CHECK_EQ(c->cols(), 1u);
  LASAGNE_CHECK_EQ(c->rows(), x->rows());
  Tensor y = x->value();
  for (size_t r = 0; r < y.rows(); ++r) {
    const float f = c->value()(r, 0);
    float* row = y.RowPtr(r);
    for (size_t j = 0; j < y.cols(); ++j) row[j] *= f;
  }
  Variable out = MakeOpNode(std::move(y), {x, c}, "RowScale");
  Node* px = x.get();
  Node* pc = c.get();
  out->set_backward_fn([px, pc](const Tensor& g) {
    if (px->requires_grad()) {
      Tensor dx = g;
      for (size_t r = 0; r < dx.rows(); ++r) {
        const float f = pc->value()(r, 0);
        float* row = dx.RowPtr(r);
        for (size_t j = 0; j < dx.cols(); ++j) row[j] *= f;
      }
      px->AccumulateGrad(dx);
    }
    if (pc->requires_grad()) {
      Tensor dc(g.rows(), 1);
      for (size_t r = 0; r < g.rows(); ++r) {
        const float* g_row = g.RowPtr(r);
        const float* x_row = px->value().RowPtr(r);
        double acc = 0.0;
        for (size_t j = 0; j < g.cols(); ++j) acc += g_row[j] * x_row[j];
        dc(r, 0) = static_cast<float>(acc);
      }
      pc->AccumulateGrad(dc);
    }
  });
  if (internal::ForwardTraceActive()) {
    internal::TraceRecordOp(
        out, {x, c},
        [](const std::vector<const Tensor*>& in) {
          Tensor y = *in[0];
          for (size_t r = 0; r < y.rows(); ++r) {
            const float f = (*in[1])(r, 0);
            float* row = y.RowPtr(r);
            for (size_t j = 0; j < y.cols(); ++j) row[j] *= f;
          }
          return y;
        },
        "RowScale");
  }
  return out;
}

Variable RowDivide(const Variable& x, const Variable& d, float eps) {
  LASAGNE_CHECK_EQ(d->cols(), 1u);
  LASAGNE_CHECK_EQ(d->rows(), x->rows());
  Tensor y = x->value();
  for (size_t r = 0; r < y.rows(); ++r) {
    const float denom = d->value()(r, 0);
    const float inv = 1.0f / (std::fabs(denom) > eps
                                  ? denom
                                  : (denom < 0 ? -eps : eps));
    float* row = y.RowPtr(r);
    for (size_t j = 0; j < y.cols(); ++j) row[j] *= inv;
  }
  Variable out = MakeOpNode(std::move(y), {x, d}, "RowDivide");
  Node* px = x.get();
  Node* pd = d.get();
  Node* pout = out.get();
  out->set_backward_fn([px, pd, pout, eps](const Tensor& g) {
    if (px->requires_grad()) {
      Tensor dx = g;
      for (size_t r = 0; r < dx.rows(); ++r) {
        const float denom = pd->value()(r, 0);
        const float inv = 1.0f / (std::fabs(denom) > eps
                                      ? denom
                                      : (denom < 0 ? -eps : eps));
        float* row = dx.RowPtr(r);
        for (size_t j = 0; j < dx.cols(); ++j) row[j] *= inv;
      }
      px->AccumulateGrad(dx);
    }
    if (pd->requires_grad()) {
      // dL/dd_r = -sum_j g_rj * y_rj / d_r
      Tensor dd(g.rows(), 1);
      for (size_t r = 0; r < g.rows(); ++r) {
        const float denom = pd->value()(r, 0);
        const float inv = 1.0f / (std::fabs(denom) > eps
                                      ? denom
                                      : (denom < 0 ? -eps : eps));
        const float* g_row = g.RowPtr(r);
        const float* y_row = pout->value().RowPtr(r);
        double acc = 0.0;
        for (size_t j = 0; j < g.cols(); ++j) acc += g_row[j] * y_row[j];
        dd(r, 0) = static_cast<float>(-acc * inv);
      }
      pd->AccumulateGrad(dd);
    }
  });
  if (internal::ForwardTraceActive()) {
    internal::TraceRecordOp(
        out, {x, d},
        [eps](const std::vector<const Tensor*>& in) {
          Tensor y = *in[0];
          for (size_t r = 0; r < y.rows(); ++r) {
            const float denom = (*in[1])(r, 0);
            const float inv = 1.0f / (std::fabs(denom) > eps
                                          ? denom
                                          : (denom < 0 ? -eps : eps));
            float* row = y.RowPtr(r);
            for (size_t j = 0; j < y.cols(); ++j) row[j] *= inv;
          }
          return y;
        },
        "RowDivide");
  }
  return out;
}

Variable RowMax(const Variable& x) {
  LASAGNE_CHECK_GT(x->cols(), 0u);
  Tensor y(x->rows(), 1);
  auto argmax = std::make_shared<std::vector<size_t>>(x->rows());
  for (size_t r = 0; r < x->rows(); ++r) {
    const float* row = x->value().RowPtr(r);
    size_t best = 0;
    for (size_t j = 1; j < x->cols(); ++j) {
      if (row[j] > row[best]) best = j;
    }
    (*argmax)[r] = best;
    y(r, 0) = row[best];
  }
  Variable out = MakeOpNode(std::move(y), {x}, "RowMax");
  Node* px = x.get();
  out->set_backward_fn([px, argmax](const Tensor& g) {
    Tensor dx(px->rows(), px->cols());
    for (size_t r = 0; r < g.rows(); ++r) {
      dx(r, (*argmax)[r]) = g(r, 0);
    }
    px->AccumulateGrad(dx);
  });
  if (internal::ForwardTraceActive()) {
    internal::TraceRecordOp(
        out, {x},
        [](const std::vector<const Tensor*>& in) {
          Tensor y(in[0]->rows(), 1);
          for (size_t r = 0; r < in[0]->rows(); ++r) {
            const float* row = in[0]->RowPtr(r);
            size_t best = 0;
            for (size_t j = 1; j < in[0]->cols(); ++j) {
              if (row[j] > row[best]) best = j;
            }
            y(r, 0) = row[best];
          }
          return y;
        },
        "RowMax");
  }
  return out;
}

Variable ConcatCols(const std::vector<Variable>& inputs) {
  LASAGNE_CHECK(!inputs.empty());
  const size_t rows = inputs[0]->rows();
  size_t total_cols = 0;
  for (const Variable& v : inputs) {
    LASAGNE_CHECK_EQ(v->rows(), rows);
    total_cols += v->cols();
  }
  Tensor y(rows, total_cols);
  size_t offset = 0;
  for (const Variable& v : inputs) {
    for (size_t r = 0; r < rows; ++r) {
      std::copy(v->value().RowPtr(r), v->value().RowPtr(r) + v->cols(),
                y.RowPtr(r) + offset);
    }
    offset += v->cols();
  }
  Variable out = MakeOpNode(std::move(y), inputs, "ConcatCols");
  std::vector<Node*> raw;
  std::vector<size_t> offsets;
  size_t acc = 0;
  for (const Variable& v : inputs) {
    raw.push_back(v.get());
    offsets.push_back(acc);
    acc += v->cols();
  }
  out->set_backward_fn([raw, offsets, rows](const Tensor& g) {
    for (size_t i = 0; i < raw.size(); ++i) {
      Node* n = raw[i];
      if (!n->requires_grad()) continue;
      Tensor dx(n->rows(), n->cols());
      for (size_t r = 0; r < rows; ++r) {
        std::copy(g.RowPtr(r) + offsets[i],
                  g.RowPtr(r) + offsets[i] + n->cols(), dx.RowPtr(r));
      }
      n->AccumulateGrad(dx);
    }
  });
  if (internal::ForwardTraceActive()) {
    internal::TraceRecordOp(
        out, inputs,
        [](const std::vector<const Tensor*>& in) {
          const size_t rows = in[0]->rows();
          size_t total_cols = 0;
          for (const Tensor* t : in) total_cols += t->cols();
          Tensor y(rows, total_cols);
          size_t offset = 0;
          for (const Tensor* t : in) {
            for (size_t r = 0; r < rows; ++r) {
              std::copy(t->RowPtr(r), t->RowPtr(r) + t->cols(),
                        y.RowPtr(r) + offset);
            }
            offset += t->cols();
          }
          return y;
        },
        "ConcatCols");
  }
  return out;
}

Variable SliceCols(const Variable& x, size_t start, size_t len) {
  LASAGNE_CHECK_LE(start + len, x->cols());
  Tensor y(x->rows(), len);
  for (size_t r = 0; r < x->rows(); ++r) {
    std::copy(x->value().RowPtr(r) + start,
              x->value().RowPtr(r) + start + len, y.RowPtr(r));
  }
  Variable out = MakeOpNode(std::move(y), {x}, "SliceCols");
  Node* px = x.get();
  out->set_backward_fn([px, start, len](const Tensor& g) {
    Tensor dx(px->rows(), px->cols());
    for (size_t r = 0; r < g.rows(); ++r) {
      std::copy(g.RowPtr(r), g.RowPtr(r) + len, dx.RowPtr(r) + start);
    }
    px->AccumulateGrad(dx);
  });
  if (internal::ForwardTraceActive()) {
    internal::TraceRecordOp(
        out, {x},
        [start, len](const std::vector<const Tensor*>& in) {
          Tensor y(in[0]->rows(), len);
          for (size_t r = 0; r < in[0]->rows(); ++r) {
            std::copy(in[0]->RowPtr(r) + start,
                      in[0]->RowPtr(r) + start + len, y.RowPtr(r));
          }
          return y;
        },
        "SliceCols");
  }
  return out;
}

Variable GatherRows(const Variable& x, std::vector<size_t> indices) {
  Tensor y = x->value().GatherRows(indices);
  Variable out = MakeOpNode(std::move(y), {x}, "GatherRows");
  Node* px = x.get();
  auto idx = std::make_shared<std::vector<size_t>>(std::move(indices));
  out->set_backward_fn([px, idx](const Tensor& g) {
    Tensor dx(px->rows(), px->cols());
    for (size_t i = 0; i < idx->size(); ++i) {
      const float* g_row = g.RowPtr(i);
      float* dx_row = dx.RowPtr((*idx)[i]);
      for (size_t j = 0; j < g.cols(); ++j) dx_row[j] += g_row[j];
    }
    px->AccumulateGrad(dx);
  });
  if (internal::ForwardTraceActive()) {
    internal::TraceRecordOp(
        out, {x},
        [idx](const std::vector<const Tensor*>& in) {
          return in[0]->GatherRows(*idx);
        },
        "GatherRows");
  }
  return out;
}

Variable MaxOverSet(const std::vector<Variable>& inputs) {
  LASAGNE_CHECK(!inputs.empty());
  const size_t rows = inputs[0]->rows();
  const size_t cols = inputs[0]->cols();
  for (const Variable& v : inputs) {
    LASAGNE_CHECK_EQ(v->rows(), rows);
    LASAGNE_CHECK_EQ(v->cols(), cols);
  }
  Tensor y = inputs[0]->value();
  auto winner =
      std::make_shared<std::vector<uint8_t>>(rows * cols, uint8_t{0});
  for (size_t k = 1; k < inputs.size(); ++k) {
    const Tensor& v = inputs[k]->value();
    for (size_t i = 0; i < rows * cols; ++i) {
      if (v.data()[i] > y.data()[i]) {
        y.data()[i] = v.data()[i];
        (*winner)[i] = static_cast<uint8_t>(k);
      }
    }
  }
  Variable out = MakeOpNode(std::move(y), inputs, "MaxOverSet");
  std::vector<Node*> raw;
  for (const Variable& v : inputs) raw.push_back(v.get());
  out->set_backward_fn([raw, winner, rows, cols](const Tensor& g) {
    std::vector<Tensor> grads;
    grads.reserve(raw.size());
    for (size_t k = 0; k < raw.size(); ++k) grads.emplace_back(rows, cols);
    for (size_t i = 0; i < rows * cols; ++i) {
      grads[(*winner)[i]].data()[i] = g.data()[i];
    }
    for (size_t k = 0; k < raw.size(); ++k) {
      if (raw[k]->requires_grad()) raw[k]->AccumulateGrad(grads[k]);
    }
  });
  if (internal::ForwardTraceActive()) {
    internal::TraceRecordOp(
        out, inputs,
        [](const std::vector<const Tensor*>& in) {
          Tensor y = *in[0];
          for (size_t k = 1; k < in.size(); ++k) {
            const Tensor& v = *in[k];
            for (size_t i = 0; i < y.size(); ++i) {
              if (v.data()[i] > y.data()[i]) y.data()[i] = v.data()[i];
            }
          }
          return y;
        },
        "MaxOverSet");
  }
  return out;
}

Variable MeanRows(const Variable& x) {
  LASAGNE_CHECK_GT(x->rows(), 0u);
  Tensor y(1, x->cols());
  for (size_t r = 0; r < x->rows(); ++r) {
    const float* row = x->value().RowPtr(r);
    for (size_t j = 0; j < x->cols(); ++j) y(0, j) += row[j];
  }
  y *= 1.0f / static_cast<float>(x->rows());
  Variable out = MakeOpNode(std::move(y), {x}, "MeanRows");
  Node* px = x.get();
  out->set_backward_fn([px](const Tensor& g) {
    const float inv = 1.0f / static_cast<float>(px->rows());
    Tensor dx(px->rows(), px->cols());
    for (size_t r = 0; r < px->rows(); ++r) {
      float* row = dx.RowPtr(r);
      for (size_t j = 0; j < px->cols(); ++j) row[j] = g(0, j) * inv;
    }
    px->AccumulateGrad(dx);
  });
  if (internal::ForwardTraceActive()) {
    internal::TraceRecordOp(
        out, {x},
        [](const std::vector<const Tensor*>& in) {
          Tensor y(1, in[0]->cols());
          for (size_t r = 0; r < in[0]->rows(); ++r) {
            const float* row = in[0]->RowPtr(r);
            for (size_t j = 0; j < in[0]->cols(); ++j) y(0, j) += row[j];
          }
          y *= 1.0f / static_cast<float>(in[0]->rows());
          return y;
        },
        "MeanRows");
  }
  return out;
}

// ---------------------------------------------------------------------------
// Reductions
// ---------------------------------------------------------------------------

Variable Sum(const Variable& x) {
  Tensor y(1, 1);
  y(0, 0) = x->value().Sum();
  Variable out = MakeOpNode(std::move(y), {x}, "Sum");
  Node* px = x.get();
  out->set_backward_fn([px](const Tensor& g) {
    px->AccumulateGrad(Tensor::Full(px->rows(), px->cols(), g(0, 0)));
  });
  if (internal::ForwardTraceActive()) {
    internal::TraceRecordOp(
        out, {x},
        [](const std::vector<const Tensor*>& in) {
          Tensor y(1, 1);
          y(0, 0) = in[0]->Sum();
          return y;
        },
        "Sum");
  }
  return out;
}

Variable Mean(const Variable& x) {
  LASAGNE_CHECK_GT(x->value().size(), 0u);
  Tensor y(1, 1);
  y(0, 0) = x->value().Mean();
  Variable out = MakeOpNode(std::move(y), {x}, "Mean");
  Node* px = x.get();
  out->set_backward_fn([px](const Tensor& g) {
    const float scale =
        g(0, 0) / static_cast<float>(px->value().size());
    px->AccumulateGrad(Tensor::Full(px->rows(), px->cols(), scale));
  });
  if (internal::ForwardTraceActive()) {
    internal::TraceRecordOp(
        out, {x},
        [](const std::vector<const Tensor*>& in) {
          Tensor y(1, 1);
          y(0, 0) = in[0]->Mean();
          return y;
        },
        "Mean");
  }
  return out;
}

Variable SquaredSum(const Variable& x) {
  Tensor y(1, 1);
  y(0, 0) = x->value().SquaredNorm();
  Variable out = MakeOpNode(std::move(y), {x}, "SquaredSum");
  Node* px = x.get();
  out->set_backward_fn([px](const Tensor& g) {
    px->AccumulateGrad(px->value() * (2.0f * g(0, 0)));
  });
  if (internal::ForwardTraceActive()) {
    internal::TraceRecordOp(
        out, {x},
        [](const std::vector<const Tensor*>& in) {
          Tensor y(1, 1);
          y(0, 0) = in[0]->SquaredNorm();
          return y;
        },
        "SquaredSum");
  }
  return out;
}

// ---------------------------------------------------------------------------
// Stochastic / regularization ops
// ---------------------------------------------------------------------------

namespace {

/// The one per-element draw rule of the stochastic ops. Takes n draws
/// of `rng` and calls `emit(i, outcome)` for each element i in [0, n),
/// where the outcome is `(raw_i >> 11) < threshold(i)` with
/// threshold(i) = Rng::BernoulliThreshold(p_i): bitwise what the i-th
/// of n serial `rng.Bernoulli(p_i)` calls returns. Draw i is
/// Rng::Mix(base + (i + 1) * kGamma), a function of i alone, so the
/// chunks run on the pool and `rng` ends where n serial draws would
/// leave it at any thread count (docs/THREADING.md).
template <typename Threshold, typename Emit>
void ParallelBernoulli(Rng& rng, size_t n, const Threshold& threshold,
                       const Emit& emit) {
  const uint64_t base = rng.SkipAhead(n);
  ParallelFor(0, n, kGrain, [&](size_t begin, size_t end) {
    uint64_t state = base + begin * Rng::kGamma;
    for (size_t i = begin; i < end; ++i) {
      state += Rng::kGamma;
      emit(i, (Rng::Mix(state) >> 11) < threshold(i));
    }
  });
}

}  // namespace

Variable Dropout(const Variable& x, float rate, Rng& rng, bool training) {
  LASAGNE_CHECK_GE(rate, 0.0f);
  LASAGNE_CHECK_LT(rate, 1.0f);
  if (!training || rate == 0.0f) return x;
  const float keep = 1.0f - rate;
  const float scale = 1.0f / keep;
  auto mask = std::make_shared<Tensor>(
      Tensor::Uninitialized(x->rows(), x->cols()));
  Tensor y = Tensor::Uninitialized(x->rows(), x->cols());
  const float* src = x->value().data();
  float* m = mask->data();
  float* dst = y.data();
  const uint64_t threshold = Rng::BernoulliThreshold(keep);
  // float(kept) * scale is bitwise `kept ? scale : 0` without a branch
  // on a random bit.
  ParallelBernoulli(
      rng, y.size(), [threshold](size_t) { return threshold; },
      [&](size_t i, bool kept) {
        m[i] = static_cast<float>(kept) * scale;
        dst[i] = src[i] * m[i];
      });
  Variable out = MakeOpNode(std::move(y), {x}, "Dropout");
  Node* px = x.get();
  out->set_backward_fn([px, mask](const Tensor& g) {
    px->AccumulateGrad(g * *mask);
  });
  return out;
}

Variable BernoulliStraightThrough(const Variable& probs, Rng& rng,
                                  bool training) {
  Tensor y = training ? Tensor::Uninitialized(probs->rows(), probs->cols())
                      : probs->value();
  if (training) {
    const float* p = probs->value().data();
    float* dst = y.data();
    ParallelBernoulli(
        rng, y.size(),
        [p](size_t i) {
          return Rng::BernoulliThreshold(std::clamp(p[i], 0.0f, 1.0f));
        },
        [dst](size_t i, bool kept) { dst[i] = static_cast<float>(kept); });
  }
  Variable out =
      MakeOpNode(std::move(y), {probs}, "BernoulliStraightThrough");
  Node* pp = probs.get();
  out->set_backward_fn([pp](const Tensor& g) { pp->AccumulateGrad(g); });
  // Only the deterministic eval path (identity) is replayable; the
  // training path consumes RNG state and stays untraced.
  if (!training && internal::ForwardTraceActive()) {
    internal::TraceRecordOp(
        out, {probs},
        [](const std::vector<const Tensor*>& in) { return *in[0]; },
        "BernoulliStraightThrough");
  }
  return out;
}

Variable PairNorm(const Variable& x, float scale, float eps) {
  const size_t n = x->rows();
  const size_t d = x->cols();
  LASAGNE_CHECK_GT(n, 0u);
  // Forward: center columns, then normalize each row to `scale`.
  Tensor col_mean(1, d);
  for (size_t r = 0; r < n; ++r) {
    const float* row = x->value().RowPtr(r);
    for (size_t j = 0; j < d; ++j) col_mean(0, j) += row[j];
  }
  col_mean *= 1.0f / static_cast<float>(n);
  Tensor centered(n, d);
  auto inv_norms = std::make_shared<std::vector<float>>(n);
  Tensor y(n, d);
  for (size_t r = 0; r < n; ++r) {
    const float* row = x->value().RowPtr(r);
    float* c_row = centered.RowPtr(r);
    double sq = 0.0;
    for (size_t j = 0; j < d; ++j) {
      c_row[j] = row[j] - col_mean(0, j);
      sq += static_cast<double>(c_row[j]) * c_row[j];
    }
    const float inv = scale / std::sqrt(static_cast<float>(sq) + eps);
    (*inv_norms)[r] = inv;
    float* y_row = y.RowPtr(r);
    for (size_t j = 0; j < d; ++j) y_row[j] = c_row[j] * inv;
  }
  auto centered_ptr = std::make_shared<Tensor>(std::move(centered));
  Variable out = MakeOpNode(std::move(y), {x}, "PairNorm");
  Node* px = x.get();
  out->set_backward_fn([px, centered_ptr, inv_norms, scale, eps,
                        n, d](const Tensor& g) {
    // y_r = s * c_r / ||c_r||, c = x - colmean(x).
    // dL/dc_r = inv_r * (g_r - (g_r . c_r) * c_r / (||c_r||^2 + eps))
    // dL/dx = dL/dc - colmean(dL/dc)   (centering backward)
    Tensor dc(n, d);
    for (size_t r = 0; r < n; ++r) {
      const float* g_row = g.RowPtr(r);
      const float* c_row = centered_ptr->RowPtr(r);
      double dot = 0.0;
      double sq = 0.0;
      for (size_t j = 0; j < d; ++j) {
        dot += static_cast<double>(g_row[j]) * c_row[j];
        sq += static_cast<double>(c_row[j]) * c_row[j];
      }
      const float inv = (*inv_norms)[r];  // = s / sqrt(sq + eps)
      const float coeff =
          static_cast<float>(dot / (sq + static_cast<double>(eps)));
      float* dc_row = dc.RowPtr(r);
      for (size_t j = 0; j < d; ++j) {
        dc_row[j] = inv * (g_row[j] - coeff * c_row[j]);
      }
    }
    Tensor mean_dc(1, d);
    for (size_t r = 0; r < n; ++r) {
      const float* row = dc.RowPtr(r);
      for (size_t j = 0; j < d; ++j) mean_dc(0, j) += row[j];
    }
    mean_dc *= 1.0f / static_cast<float>(n);
    for (size_t r = 0; r < n; ++r) {
      float* row = dc.RowPtr(r);
      for (size_t j = 0; j < d; ++j) row[j] -= mean_dc(0, j);
    }
    px->AccumulateGrad(dc);
    (void)scale;
  });
  if (internal::ForwardTraceActive()) {
    internal::TraceRecordOp(
        out, {x},
        [scale, eps](const std::vector<const Tensor*>& in) {
          const size_t n = in[0]->rows();
          const size_t d = in[0]->cols();
          Tensor col_mean(1, d);
          for (size_t r = 0; r < n; ++r) {
            const float* row = in[0]->RowPtr(r);
            for (size_t j = 0; j < d; ++j) col_mean(0, j) += row[j];
          }
          col_mean *= 1.0f / static_cast<float>(n);
          Tensor y(n, d);
          for (size_t r = 0; r < n; ++r) {
            const float* row = in[0]->RowPtr(r);
            float* y_row = y.RowPtr(r);
            double sq = 0.0;
            for (size_t j = 0; j < d; ++j) {
              y_row[j] = row[j] - col_mean(0, j);
              sq += static_cast<double>(y_row[j]) * y_row[j];
            }
            const float inv =
                scale / std::sqrt(static_cast<float>(sq) + eps);
            for (size_t j = 0; j < d; ++j) y_row[j] *= inv;
          }
          return y;
        },
        "PairNorm");
  }
  return out;
}

Variable BatchNormColumns(const Variable& x, float eps) {
  const size_t n = x->rows();
  const size_t d = x->cols();
  LASAGNE_CHECK_GT(n, 1u);
  Tensor mean(1, d);
  Tensor inv_std(1, d);
  for (size_t j = 0; j < d; ++j) {
    double mu = 0.0;
    for (size_t i = 0; i < n; ++i) mu += x->value()(i, j);
    mu /= static_cast<double>(n);
    double var = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const double diff = x->value()(i, j) - mu;
      var += diff * diff;
    }
    var /= static_cast<double>(n);
    mean(0, j) = static_cast<float>(mu);
    inv_std(0, j) =
        static_cast<float>(1.0 / std::sqrt(var + static_cast<double>(eps)));
  }
  Tensor y(n, d);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d; ++j) {
      y(i, j) = (x->value()(i, j) - mean(0, j)) * inv_std(0, j);
    }
  }
  Variable out = MakeOpNode(y, {x}, "BatchNormColumns");
  Node* px = x.get();
  auto y_cache = std::make_shared<Tensor>(std::move(y));
  auto inv_cache = std::make_shared<Tensor>(std::move(inv_std));
  out->set_backward_fn([px, y_cache, inv_cache, n, d](const Tensor& g) {
    // dx = inv_std * (g - mean(g) - y * mean(g * y)), per column.
    Tensor dx(n, d);
    for (size_t j = 0; j < d; ++j) {
      double g_mean = 0.0;
      double gy_mean = 0.0;
      for (size_t i = 0; i < n; ++i) {
        g_mean += g(i, j);
        gy_mean += static_cast<double>(g(i, j)) * (*y_cache)(i, j);
      }
      g_mean /= static_cast<double>(n);
      gy_mean /= static_cast<double>(n);
      const float inv = (*inv_cache)(0, j);
      for (size_t i = 0; i < n; ++i) {
        dx(i, j) = inv * (g(i, j) - static_cast<float>(g_mean) -
                          (*y_cache)(i, j) * static_cast<float>(gy_mean));
      }
    }
    px->AccumulateGrad(dx);
  });
  if (internal::ForwardTraceActive()) {
    internal::TraceRecordOp(
        out, {x},
        [eps](const std::vector<const Tensor*>& in) {
          const size_t n = in[0]->rows();
          const size_t d = in[0]->cols();
          Tensor mean(1, d);
          Tensor inv_std(1, d);
          for (size_t j = 0; j < d; ++j) {
            double mu = 0.0;
            for (size_t i = 0; i < n; ++i) mu += (*in[0])(i, j);
            mu /= static_cast<double>(n);
            double var = 0.0;
            for (size_t i = 0; i < n; ++i) {
              const double diff = (*in[0])(i, j) - mu;
              var += diff * diff;
            }
            var /= static_cast<double>(n);
            mean(0, j) = static_cast<float>(mu);
            inv_std(0, j) = static_cast<float>(
                1.0 / std::sqrt(var + static_cast<double>(eps)));
          }
          Tensor y(n, d);
          for (size_t i = 0; i < n; ++i) {
            for (size_t j = 0; j < d; ++j) {
              y(i, j) = ((*in[0])(i, j) - mean(0, j)) * inv_std(0, j);
            }
          }
          return y;
        },
        "BatchNormColumns");
  }
  return out;
}

// ---------------------------------------------------------------------------
// Losses (deliberately untraced: a loss in an eval forward forces the
// eager fallback, which is correct — plans serve logits, not losses)
// ---------------------------------------------------------------------------

Tensor SoftmaxRows(const Tensor& logits) {
  Tensor probs = logits;
  for (size_t r = 0; r < probs.rows(); ++r) {
    float* row = probs.RowPtr(r);
    float max_v = row[0];
    for (size_t j = 1; j < probs.cols(); ++j) max_v = std::max(max_v, row[j]);
    double total = 0.0;
    for (size_t j = 0; j < probs.cols(); ++j) {
      row[j] = std::exp(row[j] - max_v);
      total += row[j];
    }
    const float inv = static_cast<float>(1.0 / total);
    for (size_t j = 0; j < probs.cols(); ++j) row[j] *= inv;
  }
  return probs;
}

Variable WeightedSoftmaxCrossEntropy(const Variable& logits,
                                     const std::vector<int32_t>& labels,
                                     const std::vector<float>& weights) {
  const size_t n = logits->rows();
  const size_t c = logits->cols();
  LASAGNE_CHECK_EQ(labels.size(), n);
  LASAGNE_CHECK_EQ(weights.size(), n);
  auto probs = std::make_shared<Tensor>(SoftmaxRows(logits->value()));
  double weight_total = 0.0;
  double loss = 0.0;
  for (size_t i = 0; i < n; ++i) {
    if (weights[i] <= 0.0f) continue;
    LASAGNE_CHECK_GE(labels[i], 0);
    LASAGNE_CHECK_LT(static_cast<size_t>(labels[i]), c);
    weight_total += weights[i];
    const float p = std::max((*probs)(i, labels[i]), 1e-12f);
    loss -= weights[i] * std::log(p);
  }
  LASAGNE_CHECK_GT(weight_total, 0.0);
  Tensor y(1, 1);
  y(0, 0) = static_cast<float>(loss / weight_total);
  Variable out =
      MakeOpNode(std::move(y), {logits}, "SoftmaxCrossEntropy");
  Node* pl = logits.get();
  auto labels_ptr = std::make_shared<std::vector<int32_t>>(labels);
  auto weights_ptr = std::make_shared<std::vector<float>>(weights);
  out->set_backward_fn([pl, probs, labels_ptr, weights_ptr, weight_total, n,
                        c](const Tensor& g) {
    const float scale =
        g(0, 0) / static_cast<float>(weight_total);
    Tensor dx(n, c);
    for (size_t i = 0; i < n; ++i) {
      const float w = (*weights_ptr)[i];
      if (w <= 0.0f) continue;
      const float* p_row = probs->RowPtr(i);
      float* dx_row = dx.RowPtr(i);
      for (size_t j = 0; j < c; ++j) dx_row[j] = w * scale * p_row[j];
      dx_row[(*labels_ptr)[i]] -= w * scale;
    }
    pl->AccumulateGrad(dx);
  });
  return out;
}

Variable SoftmaxCrossEntropy(const Variable& logits,
                             const std::vector<int32_t>& labels,
                             const std::vector<float>& mask) {
  return WeightedSoftmaxCrossEntropy(logits, labels, mask);
}

Variable BinaryCrossEntropyWithLogits(const Variable& logits,
                                      const Tensor& targets) {
  LASAGNE_CHECK(logits->value().SameShape(targets));
  const size_t total = logits->value().size();
  LASAGNE_CHECK_GT(total, 0u);
  auto sig = std::make_shared<Tensor>(logits->value().Map(
      [](float v) { return 1.0f / (1.0f + std::exp(-v)); }));
  // Numerically stable form: taking log of the sigmoid output produces
  // NaN/-inf once |logit| pushes the sigmoid to exactly 0 or 1 (around
  // |x| ~ 17 in float32). The algebraically equivalent
  //   max(x, 0) - x*t + log1p(exp(-|x|))
  // stays finite for every logit; the gradient is unchanged:
  // sigmoid(x) - t.
  const float* x_data = logits->value().data();
  const float* t_data = targets.data();
  const double loss =
      ParallelReduce(0, total, kGrain, [&](size_t begin, size_t end) {
        double acc = 0.0;
        for (size_t i = begin; i < end; ++i) {
          const float x = x_data[i];
          const float t = t_data[i];
          acc += static_cast<double>(std::max(x, 0.0f)) -
                 static_cast<double>(x) * t +
                 std::log1p(std::exp(-std::fabs(static_cast<double>(x))));
        }
        return acc;
      });
  Tensor y(1, 1);
  y(0, 0) = static_cast<float>(loss / static_cast<double>(total));
  Variable out =
      MakeOpNode(std::move(y), {logits}, "BinaryCrossEntropyWithLogits");
  Node* pl = logits.get();
  auto targets_ptr = std::make_shared<Tensor>(targets);
  out->set_backward_fn([pl, sig, targets_ptr, total](const Tensor& g) {
    const float scale = g(0, 0) / static_cast<float>(total);
    Tensor dx(pl->rows(), pl->cols());
    ParallelFor(0, total, kGrain, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        dx.data()[i] = scale * (sig->data()[i] - targets_ptr->data()[i]);
      }
    });
    pl->AccumulateGrad(dx);
  });
  return out;
}

Variable MeanCosineDistance(
    const Variable& x, std::vector<std::pair<uint32_t, uint32_t>> pairs,
    float eps) {
  LASAGNE_CHECK(!pairs.empty());
  const size_t d = x->cols();
  const Tensor& v = x->value();
  double total = 0.0;
  for (const auto& [a, b] : pairs) {
    LASAGNE_CHECK_LT(a, v.rows());
    LASAGNE_CHECK_LT(b, v.rows());
    const float* ra = v.RowPtr(a);
    const float* rb = v.RowPtr(b);
    double dot = 0.0, na = 0.0, nb = 0.0;
    for (size_t j = 0; j < d; ++j) {
      dot += static_cast<double>(ra[j]) * rb[j];
      na += static_cast<double>(ra[j]) * ra[j];
      nb += static_cast<double>(rb[j]) * rb[j];
    }
    const double denom = std::sqrt(na) * std::sqrt(nb) + eps;
    total += 1.0 - dot / denom;
  }
  Tensor y(1, 1);
  y(0, 0) = static_cast<float>(total / static_cast<double>(pairs.size()));
  Variable out = MakeOpNode(std::move(y), {x}, "MeanCosineDistance");
  Node* px = x.get();
  auto pairs_ptr =
      std::make_shared<std::vector<std::pair<uint32_t, uint32_t>>>(
          std::move(pairs));
  out->set_backward_fn([px, pairs_ptr, eps, d](const Tensor& g) {
    const Tensor& v = px->value();
    Tensor dx(v.rows(), v.cols());
    const float scale =
        g(0, 0) / static_cast<float>(pairs_ptr->size());
    for (const auto& [a, b] : *pairs_ptr) {
      const float* ra = v.RowPtr(a);
      const float* rb = v.RowPtr(b);
      double dot = 0.0, na = 0.0, nb = 0.0;
      for (size_t j = 0; j < d; ++j) {
        dot += static_cast<double>(ra[j]) * rb[j];
        na += static_cast<double>(ra[j]) * ra[j];
        nb += static_cast<double>(rb[j]) * rb[j];
      }
      const double norm_a = std::sqrt(na);
      const double norm_b = std::sqrt(nb);
      const double denom = norm_a * norm_b + eps;
      // d(1 - cos)/da_j = -(b_j / denom - cos * a_j / (na + eps'))
      const double cos_ab = dot / denom;
      float* da = dx.RowPtr(a);
      float* db = dx.RowPtr(b);
      for (size_t j = 0; j < d; ++j) {
        da[j] += scale * static_cast<float>(
                     -(rb[j] / denom - cos_ab * ra[j] / (na + eps)));
        db[j] += scale * static_cast<float>(
                     -(ra[j] / denom - cos_ab * rb[j] / (nb + eps)));
      }
    }
    px->AccumulateGrad(dx);
  });
  return out;
}

}  // namespace lasagne::ag
