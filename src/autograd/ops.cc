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

namespace {

/// Builds an op's node. In inference mode it is value-only: no
/// requires_grad propagation, no parent retention, and set_backward_fn
/// discards the op's closure, so the tape never materializes and each
/// intermediate frees as soon as its consumer has run. Otherwise
/// requires_grad is the OR of the parents', which move into the node.
Variable NewNode(Tensor value, std::vector<Variable>& parents,
                 const char* op_name) {
  for (const Variable& p : parents) LASAGNE_CHECK(p != nullptr);
  Variable node;
  if (InferenceModeEnabled()) {
    node = std::make_shared<Node>(std::move(value), /*requires_grad=*/false,
                                  /*grad_enabled=*/false);
  } else {
    bool requires_grad = false;
    for (const Variable& p : parents) {
      requires_grad = requires_grad || p->requires_grad();
    }
    internal::CountOpNode(parents.size());
    node = std::make_shared<Node>(std::move(value), requires_grad);
    node->set_parents(std::move(parents));
  }
  node->set_op_name(op_name);
  return node;
}

}  // namespace

Variable MakeOpNode(Tensor value, std::vector<Variable> parents,
                    const char* op_name) {
  if (InferenceModeEnabled()) internal::TraceUntracedOp(op_name);
  return NewNode(std::move(value), parents, op_name);
}

namespace internal {

TraceInputs InputValues(const std::vector<Variable>& inputs) {
  TraceInputs values;
  values.reserve(inputs.size());
  for (const Variable& v : inputs) values.push_back(&v->value());
  return values;
}

Variable MakeTracedNode(Tensor value, std::vector<Variable> inputs,
                        TraceFn replay, const char* op_name,
                        TraceOpMeta meta) {
  Variable out = NewNode(std::move(value), inputs, op_name);
  if (InferenceModeEnabled()) {
    TraceRecordOp(out, std::move(inputs), std::move(replay), op_name,
                  std::move(meta));
  }
  return out;
}

}  // namespace internal

Variable MakeTracedOp(TraceFn forward, std::vector<Variable> inputs,
                      const char* op_name, TraceOpMeta meta) {
  Tensor value = forward(internal::InputValues(inputs));
  return internal::MakeTracedNode(std::move(value), std::move(inputs),
                                  std::move(forward), op_name,
                                  std::move(meta));
}

namespace {

/// Row r of in[0] times in[1](r, 0).
Tensor RowScaleForward(const TraceInputs& in) {
  Tensor y = *in[0];
  for (size_t r = 0; r < y.rows(); ++r) {
    const float f = (*in[1])(r, 0);
    float* row = y.RowPtr(r);
    for (size_t j = 0; j < y.cols(); ++j) row[j] *= f;
  }
  return y;
}

/// 1 / d with |d| clamped to at least eps (sign kept).
float SafeInverse(float denom, float eps) {
  return 1.0f / (std::fabs(denom) > eps ? denom : (denom < 0 ? -eps : eps));
}

/// Row r of `x` times SafeInverse(d(r, 0), eps).
Tensor RowDivideForward(const Tensor& x, const Tensor& d, float eps) {
  Tensor y = x;
  for (size_t r = 0; r < y.rows(); ++r) {
    const float inv = SafeInverse(d(r, 0), eps);
    float* row = y.RowPtr(r);
    for (size_t j = 0; j < y.cols(); ++j) row[j] *= inv;
  }
  return y;
}

/// Per-row maximum; the first maximal column of row r goes to
/// (*argmax)[r] when `argmax` is non-null.
Tensor RowMaxForward(const TraceInputs& in, std::vector<size_t>* argmax) {
  const Tensor& x = *in[0];
  Tensor y(x.rows(), 1);
  if (argmax != nullptr) argmax->resize(x.rows());
  for (size_t r = 0; r < x.rows(); ++r) {
    const float* row = x.RowPtr(r);
    size_t best = 0;
    for (size_t j = 1; j < x.cols(); ++j) {
      if (row[j] > row[best]) best = j;
    }
    if (argmax != nullptr) (*argmax)[r] = best;
    y(r, 0) = row[best];
  }
  return y;
}

/// Columns [start, start + len) of x.
Tensor SliceColumns(const Tensor& x, size_t start, size_t len) {
  Tensor y(x.rows(), len);
  for (size_t r = 0; r < x.rows(); ++r) {
    std::copy(x.RowPtr(r) + start, x.RowPtr(r) + start + len, y.RowPtr(r));
  }
  return y;
}

/// Elementwise maximum over the inputs; the index of the (first)
/// winning input per coordinate goes to `winner` when non-null.
Tensor MaxOverSetForward(const TraceInputs& in,
                         std::vector<uint8_t>* winner) {
  Tensor y = *in[0];
  if (winner != nullptr) winner->assign(y.size(), uint8_t{0});
  for (size_t k = 1; k < in.size(); ++k) {
    const Tensor& v = *in[k];
    for (size_t i = 0; i < y.size(); ++i) {
      if (v.data()[i] > y.data()[i]) {
        y.data()[i] = v.data()[i];
        if (winner != nullptr) (*winner)[i] = static_cast<uint8_t>(k);
      }
    }
  }
  return y;
}

/// Mean over rows, (N x D) -> (1 x D), summed in row order.
Tensor ColumnMean(const Tensor& x) {
  Tensor y(1, x.cols());
  for (size_t r = 0; r < x.rows(); ++r) {
    const float* row = x.RowPtr(r);
    for (size_t j = 0; j < x.cols(); ++j) y(0, j) += row[j];
  }
  y *= 1.0f / static_cast<float>(x.rows());
  return y;
}

/// A (1 x 1) tensor holding `v`.
Tensor Scalar(float v) {
  Tensor y(1, 1);
  y(0, 0) = v;
  return y;
}

/// PairNorm's backward cache: the column-centred rows and each row's
/// `scale / ||c_r||`.
struct PairNormByProduct {
  Tensor centered;
  std::vector<float> inv_norms;
};

/// <a, b>, ||a||^2 and ||b||^2 of two d-float rows, in double.
struct RowPairDots {
  double dot = 0.0, na = 0.0, nb = 0.0;
};

RowPairDots Dots(const float* ra, const float* rb, size_t d) {
  RowPairDots s;
  for (size_t j = 0; j < d; ++j) {
    s.dot += static_cast<double>(ra[j]) * rb[j];
    s.na += static_cast<double>(ra[j]) * ra[j];
    s.nb += static_cast<double>(rb[j]) * rb[j];
  }
  return s;
}

}  // namespace

// ---------------------------------------------------------------------------
// Elementwise / arithmetic
// ---------------------------------------------------------------------------

// Every op that can appear in an evaluation-mode forward builds its node
// with MakeTracedOp: its one forward function computes the eager value
// and is the replay the plan compiler records (src/infer/plan.h), so a
// plan replays the eager arithmetic by construction.

Variable Add(const Variable& a, const Variable& b) {
  Variable out = MakeTracedOp(
      [](const TraceInputs& in) { return *in[0] + *in[1]; }, {a, b}, "Add",
      TraceOpMeta::Kind(TraceOpKind::kAdd));
  Node* pa = a.get();
  Node* pb = b.get();
  out->set_backward_fn([pa, pb](const Tensor& g) {
    pa->AccumulateGrad(g);
    pb->AccumulateGrad(g);
  });
  return out;
}

Variable AddMany(const std::vector<Variable>& inputs) {
  LASAGNE_CHECK(!inputs.empty());
  Variable out = MakeTracedOp(
      [](const TraceInputs& in) {
        Tensor total = *in[0];
        for (size_t i = 1; i < in.size(); ++i) total += *in[i];
        return total;
      },
      inputs, "AddMany");
  std::vector<Node*> raw;
  raw.reserve(inputs.size());
  for (const Variable& v : inputs) raw.push_back(v.get());
  out->set_backward_fn([raw](const Tensor& g) {
    for (Node* n : raw) n->AccumulateGrad(g);
  });
  return out;
}

Variable Sub(const Variable& a, const Variable& b) {
  Variable out = MakeTracedOp(
      [](const TraceInputs& in) { return *in[0] - *in[1]; }, {a, b}, "Sub");
  Node* pa = a.get();
  Node* pb = b.get();
  out->set_backward_fn([pa, pb](const Tensor& g) {
    pa->AccumulateGrad(g);
    pb->AccumulateGrad(g * -1.0f);
  });
  return out;
}

Variable Mul(const Variable& a, const Variable& b) {
  Variable out = MakeTracedOp(
      [](const TraceInputs& in) { return *in[0] * *in[1]; }, {a, b}, "Mul");
  Node* pa = a.get();
  Node* pb = b.get();
  out->set_backward_fn([pa, pb](const Tensor& g) {
    pa->AccumulateGrad(g * pb->value());
    pb->AccumulateGrad(g * pa->value());
  });
  return out;
}

Variable ScalarMul(const Variable& x, float scalar) {
  Variable out = MakeTracedOp(
      [scalar](const TraceInputs& in) { return *in[0] * scalar; }, {x},
      "ScalarMul");
  Node* px = x.get();
  out->set_backward_fn([px, scalar](const Tensor& g) {
    px->AccumulateGrad(g * scalar);
  });
  return out;
}

namespace {

// Shared implementation for y = f(x) with dy/dx a function of (x, y).
Variable UnaryOp(const Variable& x, const char* name,
                 const std::function<float(float)>& fwd,
                 std::function<Tensor(const Tensor& g, const Tensor& x_val,
                                      const Tensor& y_val)>
                     bwd) {
  Variable out = MakeTracedOp(
      [fwd](const TraceInputs& in) { return in[0]->Map(fwd); }, {x}, name);
  Node* px = x.get();
  Node* pout = out.get();
  out->set_backward_fn([px, pout, bwd](const Tensor& g) {
    px->AccumulateGrad(bwd(g, px->value(), pout->value()));
  });
  return out;
}

}  // namespace

Variable Relu(const Variable& x) {
  // Fused kernel path: forward is max(x, 0) lane-exactly, backward
  // masks g where x <= 0 — both bitwise the per-element formulation
  // UnaryOp used to run through std::function (docs/KERNELS.md).
  Variable out = MakeTracedOp(
      [](const TraceInputs& in) {
        Tensor y = Tensor::Uninitialized(in[0]->rows(), in[0]->cols());
        ParallelFor(0, y.size(), kGrain, [&](size_t begin, size_t end) {
          kernels::ReluForward(in[0]->data() + begin, y.data() + begin,
                               end - begin);
        });
        return y;
      },
      {x}, "Relu", TraceOpMeta::Kind(TraceOpKind::kRelu));
  Node* px = x.get();
  out->set_backward_fn([px](const Tensor& g) {
    Tensor dx = Tensor::Uninitialized(g.rows(), g.cols());
    ParallelFor(0, g.size(), kGrain, [&](size_t begin, size_t end) {
      kernels::ReluBackward(g.data() + begin, px->value().data() + begin,
                            dx.data() + begin, end - begin);
    });
    px->AccumulateGrad(dx);
  });
  return out;
}

Variable LeakyRelu(const Variable& x, float alpha) {
  Variable out = MakeTracedOp(
      [alpha](const TraceInputs& in) {
        Tensor y = Tensor::Uninitialized(in[0]->rows(), in[0]->cols());
        ParallelFor(0, y.size(), kGrain, [&](size_t begin, size_t end) {
          kernels::LeakyReluForward(in[0]->data() + begin, alpha,
                                    y.data() + begin, end - begin);
        });
        return y;
      },
      {x}, "LeakyRelu", TraceOpMeta::LeakySlope(alpha));
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
  return out;
}

Variable Sigmoid(const Variable& x) {
  return UnaryOp(
      x, "Sigmoid",
      [](float v) { return 1.0f / (1.0f + std::exp(-v)); },
      [](const Tensor& g, const Tensor&, const Tensor& y_val) {
        return g * y_val.Map([](float s) { return s * (1.0f - s); });
      });
}

Variable Tanh(const Variable& x) {
  return UnaryOp(
      x, "Tanh", [](float v) { return std::tanh(v); },
      [](const Tensor& g, const Tensor&, const Tensor& y_val) {
        return g * y_val.Map([](float t) { return 1.0f - t * t; });
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
  Variable out = MakeTracedOp(
      [](const TraceInputs& in) { return in[0]->MatMul(*in[1]); }, {a, b},
      "MatMul", TraceOpMeta::Kind(TraceOpKind::kMatMul));
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
  return out;
}

Variable Transpose(const Variable& x) {
  Variable out = MakeTracedOp(
      [](const TraceInputs& in) { return in[0]->Transpose(); }, {x},
      "Transpose");
  Node* px = x.get();
  out->set_backward_fn([px](const Tensor& g) {
    px->AccumulateGrad(g.Transpose());
  });
  return out;
}

Variable SpMM(std::shared_ptr<const CsrMatrix> matrix, const Variable& x) {
  LASAGNE_CHECK(matrix != nullptr);
  Variable out = MakeTracedOp(
      [matrix](const TraceInputs& in) { return matrix->Multiply(*in[0]); },
      {x}, "SpMM", TraceOpMeta::Spmm(matrix));
  Node* px = x.get();
  out->set_backward_fn([matrix, px](const Tensor& g) {
    px->AccumulateGrad(matrix->TransposedMultiply(g));
  });
  return out;
}

// ---------------------------------------------------------------------------
// Broadcasting / shaping
// ---------------------------------------------------------------------------

Variable AddRowVector(const Variable& x, const Variable& bias) {
  LASAGNE_CHECK_EQ(bias->rows(), 1u);
  LASAGNE_CHECK_EQ(bias->cols(), x->cols());
  Variable out = MakeTracedOp(
      [](const TraceInputs& in) {
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
      {x, bias}, "AddRowVector", TraceOpMeta::Kind(TraceOpKind::kAddRowVector));
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
  return out;
}

Variable RowScale(const Variable& x, const Variable& c) {
  LASAGNE_CHECK_EQ(c->cols(), 1u);
  LASAGNE_CHECK_EQ(c->rows(), x->rows());
  Variable out = MakeTracedOp(RowScaleForward, {x, c}, "RowScale");
  Node* px = x.get();
  Node* pc = c.get();
  out->set_backward_fn([px, pc](const Tensor& g) {
    if (px->requires_grad()) {
      px->AccumulateGrad(RowScaleForward({&g, &pc->value()}));
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
  return out;
}

Variable RowDivide(const Variable& x, const Variable& d, float eps) {
  LASAGNE_CHECK_EQ(d->cols(), 1u);
  LASAGNE_CHECK_EQ(d->rows(), x->rows());
  Variable out = MakeTracedOp(
      [eps](const TraceInputs& in) {
        return RowDivideForward(*in[0], *in[1], eps);
      },
      {x, d}, "RowDivide");
  Node* px = x.get();
  Node* pd = d.get();
  Node* pout = out.get();
  out->set_backward_fn([px, pd, pout, eps](const Tensor& g) {
    if (px->requires_grad()) {
      px->AccumulateGrad(RowDivideForward(g, pd->value(), eps));
    }
    if (pd->requires_grad()) {
      // dL/dd_r = -sum_j g_rj * y_rj / d_r
      Tensor dd(g.rows(), 1);
      for (size_t r = 0; r < g.rows(); ++r) {
        const float inv = SafeInverse(pd->value()(r, 0), eps);
        const float* g_row = g.RowPtr(r);
        const float* y_row = pout->value().RowPtr(r);
        double acc = 0.0;
        for (size_t j = 0; j < g.cols(); ++j) acc += g_row[j] * y_row[j];
        dd(r, 0) = static_cast<float>(-acc * inv);
      }
      pd->AccumulateGrad(dd);
    }
  });
  return out;
}

Variable RowMax(const Variable& x) {
  LASAGNE_CHECK_GT(x->cols(), 0u);
  auto argmax = std::make_shared<std::vector<size_t>>();
  Variable out = MakeTracedOp(RowMaxForward, argmax.get(), {x}, "RowMax");
  Node* px = x.get();
  out->set_backward_fn([px, argmax](const Tensor& g) {
    Tensor dx(px->rows(), px->cols());
    for (size_t r = 0; r < g.rows(); ++r) {
      dx(r, (*argmax)[r]) = g(r, 0);
    }
    px->AccumulateGrad(dx);
  });
  return out;
}

Variable ConcatCols(const std::vector<Variable>& inputs) {
  LASAGNE_CHECK(!inputs.empty());
  const size_t rows = inputs[0]->rows();
  for (const Variable& v : inputs) LASAGNE_CHECK_EQ(v->rows(), rows);
  Variable out = MakeTracedOp(
      [](const TraceInputs& in) {
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
      inputs, "ConcatCols");
  std::vector<Node*> raw;
  std::vector<size_t> offsets;
  size_t acc = 0;
  for (const Variable& v : inputs) {
    raw.push_back(v.get());
    offsets.push_back(acc);
    acc += v->cols();
  }
  out->set_backward_fn([raw, offsets](const Tensor& g) {
    for (size_t i = 0; i < raw.size(); ++i) {
      Node* n = raw[i];
      if (n->requires_grad()) {
        n->AccumulateGrad(SliceColumns(g, offsets[i], n->cols()));
      }
    }
  });
  return out;
}

Variable SliceCols(const Variable& x, size_t start, size_t len) {
  LASAGNE_CHECK_LE(start + len, x->cols());
  Variable out = MakeTracedOp(
      [start, len](const TraceInputs& in) {
        return SliceColumns(*in[0], start, len);
      },
      {x}, "SliceCols");
  Node* px = x.get();
  out->set_backward_fn([px, start, len](const Tensor& g) {
    Tensor dx(px->rows(), px->cols());
    for (size_t r = 0; r < g.rows(); ++r) {
      std::copy(g.RowPtr(r), g.RowPtr(r) + len, dx.RowPtr(r) + start);
    }
    px->AccumulateGrad(dx);
  });
  return out;
}

Variable GatherRows(const Variable& x, std::vector<size_t> indices) {
  auto idx = std::make_shared<std::vector<size_t>>(std::move(indices));
  Variable out = MakeTracedOp(
      [idx](const TraceInputs& in) { return in[0]->GatherRows(*idx); }, {x},
      "GatherRows");
  Node* px = x.get();
  out->set_backward_fn([px, idx](const Tensor& g) {
    Tensor dx(px->rows(), px->cols());
    for (size_t i = 0; i < idx->size(); ++i) {
      const float* g_row = g.RowPtr(i);
      float* dx_row = dx.RowPtr((*idx)[i]);
      for (size_t j = 0; j < g.cols(); ++j) dx_row[j] += g_row[j];
    }
    px->AccumulateGrad(dx);
  });
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
  auto winner = std::make_shared<std::vector<uint8_t>>();
  Variable out =
      MakeTracedOp(MaxOverSetForward, winner.get(), inputs, "MaxOverSet");
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
  return out;
}

Variable MeanRows(const Variable& x) {
  LASAGNE_CHECK_GT(x->rows(), 0u);
  Variable out = MakeTracedOp(
      [](const TraceInputs& in) { return ColumnMean(*in[0]); }, {x},
      "MeanRows");
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
  return out;
}

// ---------------------------------------------------------------------------
// Reductions
// ---------------------------------------------------------------------------

Variable Sum(const Variable& x) {
  Variable out = MakeTracedOp(
      [](const TraceInputs& in) { return Scalar(in[0]->Sum()); }, {x},
      "Sum");
  Node* px = x.get();
  out->set_backward_fn([px](const Tensor& g) {
    px->AccumulateGrad(Tensor::Full(px->rows(), px->cols(), g(0, 0)));
  });
  return out;
}

Variable Mean(const Variable& x) {
  LASAGNE_CHECK_GT(x->value().size(), 0u);
  Variable out = MakeTracedOp(
      [](const TraceInputs& in) { return Scalar(in[0]->Mean()); }, {x},
      "Mean");
  Node* px = x.get();
  out->set_backward_fn([px](const Tensor& g) {
    const float scale =
        g(0, 0) / static_cast<float>(px->value().size());
    px->AccumulateGrad(Tensor::Full(px->rows(), px->cols(), scale));
  });
  return out;
}

Variable SquaredSum(const Variable& x) {
  Variable out = MakeTracedOp(
      [](const TraceInputs& in) { return Scalar(in[0]->SquaredNorm()); },
      {x}, "SquaredSum");
  Node* px = x.get();
  out->set_backward_fn([px](const Tensor& g) {
    px->AccumulateGrad(px->value() * (2.0f * g(0, 0)));
  });
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
  // Only the deterministic eval path (identity) is replayable; the
  // training path consumes RNG state and stays untraced.
  Variable out;
  if (training) {
    Tensor y = Tensor::Uninitialized(probs->rows(), probs->cols());
    const float* p = probs->value().data();
    float* dst = y.data();
    ParallelBernoulli(
        rng, y.size(),
        [p](size_t i) {
          return Rng::BernoulliThreshold(std::clamp(p[i], 0.0f, 1.0f));
        },
        [dst](size_t i, bool kept) { dst[i] = static_cast<float>(kept); });
    out = MakeOpNode(std::move(y), {probs}, "BernoulliStraightThrough");
  } else {
    out = MakeTracedOp([](const TraceInputs& in) { return *in[0]; },
                       {probs}, "BernoulliStraightThrough");
  }
  Node* pp = probs.get();
  out->set_backward_fn([pp](const Tensor& g) { pp->AccumulateGrad(g); });
  return out;
}

Variable PairNorm(const Variable& x, float scale, float eps) {
  const size_t n = x->rows();
  const size_t d = x->cols();
  LASAGNE_CHECK_GT(n, 0u);
  // Forward: center columns, then normalize each row to `scale`.
  auto cache = std::make_shared<PairNormByProduct>();
  Variable out = MakeTracedOp(
      [scale, eps](const TraceInputs& in, PairNormByProduct* by_product) {
        const size_t n = in[0]->rows();
        const size_t d = in[0]->cols();
        const Tensor col_mean = ColumnMean(*in[0]);
        if (by_product != nullptr) {
          by_product->centered = Tensor::Uninitialized(n, d);
          by_product->inv_norms.resize(n);
        }
        Tensor y(n, d);
        for (size_t r = 0; r < n; ++r) {
          const float* row = in[0]->RowPtr(r);
          float* y_row = y.RowPtr(r);
          double sq = 0.0;
          for (size_t j = 0; j < d; ++j) {
            y_row[j] = row[j] - col_mean(0, j);
            sq += static_cast<double>(y_row[j]) * y_row[j];
          }
          const float inv = scale / std::sqrt(static_cast<float>(sq) + eps);
          if (by_product != nullptr) {
            std::copy(y_row, y_row + d, by_product->centered.RowPtr(r));
            by_product->inv_norms[r] = inv;
          }
          for (size_t j = 0; j < d; ++j) y_row[j] *= inv;
        }
        return y;
      },
      cache.get(), {x}, "PairNorm");
  Node* px = x.get();
  out->set_backward_fn([px, cache, eps, n, d](const Tensor& g) {
    // y_r = s * c_r / ||c_r||, c = x - colmean(x).
    // dL/dc_r = inv_r * (g_r - (g_r . c_r) * c_r / (||c_r||^2 + eps))
    // dL/dx = dL/dc - colmean(dL/dc)   (centering backward)
    Tensor dc(n, d);
    for (size_t r = 0; r < n; ++r) {
      const float* g_row = g.RowPtr(r);
      const float* c_row = cache->centered.RowPtr(r);
      double dot = 0.0;
      double sq = 0.0;
      for (size_t j = 0; j < d; ++j) {
        dot += static_cast<double>(g_row[j]) * c_row[j];
        sq += static_cast<double>(c_row[j]) * c_row[j];
      }
      const float inv = cache->inv_norms[r];  // = s / sqrt(sq + eps)
      const float coeff =
          static_cast<float>(dot / (sq + static_cast<double>(eps)));
      float* dc_row = dc.RowPtr(r);
      for (size_t j = 0; j < d; ++j) {
        dc_row[j] = inv * (g_row[j] - coeff * c_row[j]);
      }
    }
    const Tensor mean_dc = ColumnMean(dc);
    for (size_t r = 0; r < n; ++r) {
      float* row = dc.RowPtr(r);
      for (size_t j = 0; j < d; ++j) row[j] -= mean_dc(0, j);
    }
    px->AccumulateGrad(dc);
  });
  return out;
}

Variable BatchNormColumns(const Variable& x, float eps) {
  const size_t n = x->rows();
  const size_t d = x->cols();
  LASAGNE_CHECK_GT(n, 1u);
  auto inv_std_cache = std::make_shared<Tensor>();
  Variable out = MakeTracedOp(
      [eps](const TraceInputs& in, Tensor* inv_std_out) {
        const Tensor& xv = *in[0];
        const size_t n = xv.rows();
        const size_t d = xv.cols();
        Tensor inv_std(1, d);
        Tensor y(n, d);
        for (size_t j = 0; j < d; ++j) {
          double mu = 0.0;
          for (size_t i = 0; i < n; ++i) mu += xv(i, j);
          mu /= static_cast<double>(n);
          double var = 0.0;
          for (size_t i = 0; i < n; ++i) {
            const double diff = xv(i, j) - mu;
            var += diff * diff;
          }
          var /= static_cast<double>(n);
          const float mean = static_cast<float>(mu);
          inv_std(0, j) = static_cast<float>(
              1.0 / std::sqrt(var + static_cast<double>(eps)));
          for (size_t i = 0; i < n; ++i) {
            y(i, j) = (xv(i, j) - mean) * inv_std(0, j);
          }
        }
        if (inv_std_out != nullptr) *inv_std_out = std::move(inv_std);
        return y;
      },
      inv_std_cache.get(), {x}, "BatchNormColumns");
  Node* px = x.get();
  Node* pout = out.get();
  out->set_backward_fn([px, pout, inv_std_cache, n, d](const Tensor& g) {
    // dx = inv_std * (g - mean(g) - y * mean(g * y)), per column.
    const Tensor& y = pout->value();
    Tensor dx(n, d);
    for (size_t j = 0; j < d; ++j) {
      double g_mean = 0.0;
      double gy_mean = 0.0;
      for (size_t i = 0; i < n; ++i) {
        g_mean += g(i, j);
        gy_mean += static_cast<double>(g(i, j)) * y(i, j);
      }
      g_mean /= static_cast<double>(n);
      gy_mean /= static_cast<double>(n);
      const float inv = (*inv_std_cache)(0, j);
      for (size_t i = 0; i < n; ++i) {
        dx(i, j) = inv * (g(i, j) - static_cast<float>(g_mean) -
                          y(i, j) * static_cast<float>(gy_mean));
      }
    }
    px->AccumulateGrad(dx);
  });
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

namespace {

Variable SoftmaxCrossEntropyNode(const Variable& logits,
                                 const std::vector<int32_t>& labels,
                                 const std::vector<float>& weights,
                                 const char* op_name) {
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
  Variable out = MakeOpNode(Scalar(static_cast<float>(loss / weight_total)),
                            {logits}, op_name);
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

}  // namespace

Variable WeightedSoftmaxCrossEntropy(const Variable& logits,
                                     const std::vector<int32_t>& labels,
                                     const std::vector<float>& weights) {
  return SoftmaxCrossEntropyNode(logits, labels, weights,
                                 "WeightedSoftmaxCrossEntropy");
}

Variable SoftmaxCrossEntropy(const Variable& logits,
                             const std::vector<int32_t>& labels,
                             const std::vector<float>& mask) {
  return SoftmaxCrossEntropyNode(logits, labels, mask, "SoftmaxCrossEntropy");
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
  Variable out = MakeOpNode(
      Scalar(static_cast<float>(loss / static_cast<double>(total))),
      {logits}, "BinaryCrossEntropyWithLogits");
  Node* pl = logits.get();
  auto targets_ptr = std::make_shared<Tensor>(targets);
  out->set_backward_fn([pl, sig, targets_ptr, total](const Tensor& g) {
    const float scale = g(0, 0) / static_cast<float>(total);
    pl->AccumulateGrad((*sig - *targets_ptr) * scale);
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
    const RowPairDots s = Dots(v.RowPtr(a), v.RowPtr(b), d);
    const double denom = std::sqrt(s.na) * std::sqrt(s.nb) + eps;
    total += 1.0 - s.dot / denom;
  }
  Variable out = MakeOpNode(
      Scalar(static_cast<float>(total / static_cast<double>(pairs.size()))),
      {x}, "MeanCosineDistance");
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
      const RowPairDots s = Dots(ra, rb, d);
      const double denom = std::sqrt(s.na) * std::sqrt(s.nb) + eps;
      // d(1 - cos)/da_j = -(b_j / denom - cos * a_j / (na + eps'))
      const double cos_ab = s.dot / denom;
      float* da = dx.RowPtr(a);
      float* db = dx.RowPtr(b);
      for (size_t j = 0; j < d; ++j) {
        da[j] += scale * static_cast<float>(
                     -(rb[j] / denom - cos_ab * ra[j] / (s.na + eps)));
        db[j] += scale * static_cast<float>(
                     -(ra[j] / denom - cos_ab * rb[j] / (s.nb + eps)));
      }
    }
    px->AccumulateGrad(dx);
  });
  return out;
}

}  // namespace lasagne::ag
