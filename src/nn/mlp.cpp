#include "nn/mlp.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>

#include "util/rng.hpp"

namespace autockt::nn {

namespace {

// Two doubles in one SSE2 register (GCC/Clang vector extension). The
// kernels below only run independent accumulation chains side by side in
// its lanes and never split one sum across lanes, so every output keeps the
// accumulation order of a scalar loop. x86-64 without -march has no FMA, so
// `acc += a * b` stays a rounded multiply followed by a rounded add.
typedef double V2 __attribute__((vector_size(16)));

constexpr std::size_t kRowBlock = 4;  // rows per register block: two V2
constexpr std::size_t kColBlock = 4;  // outputs per register block

V2 load2(const double* p) {
  V2 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}
void store2(double* p, V2 v) { std::memcpy(p, &v, sizeof v); }
V2 splat(double x) { return V2{x, x}; }

std::size_t round_up(std::size_t n, std::size_t block) {
  return (n + block - 1) / block * block;
}

// ---- feature-major GEMM (forward pass and input gradients) ----------------
// For outputs j < n and every padded row r < ld:
//   c[j*ld + r] = init_j + sum_{k < depth, in k order} a[k*ld + r] * b(j, k)
// with b(j, k) = b[j*b_j + k*b_k] and init_j = init[j] (0.0 when init is
// null). `a` and `c` are feature-major with row stride ld, a multiple of
// kRowBlock; `b` is read one scalar at a time, so either orientation of a
// weight matrix works without a transposed copy.

template <std::size_t J>
void gemm_block(const double* a, std::size_t ld, std::size_t depth,
                const double* b, std::size_t b_j, std::size_t b_k,
                const double* init, double* c, std::size_t r0) {
  V2 acc[J][2];
  for (std::size_t j = 0; j < J; ++j) {
    acc[j][0] = acc[j][1] = splat(init != nullptr ? init[j] : 0.0);
  }
  for (std::size_t k = 0; k < depth; ++k) {
    const V2 a0 = load2(a + k * ld + r0);
    const V2 a1 = load2(a + k * ld + r0 + 2);
#pragma GCC unroll 4
    for (std::size_t j = 0; j < J; ++j) {
      const V2 w = splat(b[j * b_j + k * b_k]);
      acc[j][0] += a0 * w;
      acc[j][1] += a1 * w;
    }
  }
  for (std::size_t j = 0; j < J; ++j) {
    store2(c + j * ld + r0, acc[j][0]);
    store2(c + j * ld + r0 + 2, acc[j][1]);
  }
}

void gemm(const double* a, std::size_t ld, std::size_t depth, const double* b,
          std::size_t b_j, std::size_t b_k, std::size_t n, const double* init,
          double* c) {
  for (std::size_t r0 = 0; r0 < ld; r0 += kRowBlock) {
    for (std::size_t j = 0; j < n; j += kColBlock) {
      const double* bj = b + j * b_j;
      const double* ij = init != nullptr ? init + j : nullptr;
      double* cj = c + j * ld;
      switch (std::min(kColBlock, n - j)) {
        case 4: gemm_block<4>(a, ld, depth, bj, b_j, b_k, ij, cj, r0); break;
        case 3: gemm_block<3>(a, ld, depth, bj, b_j, b_k, ij, cj, r0); break;
        case 2: gemm_block<2>(a, ld, depth, bj, b_j, b_k, ij, cj, r0); break;
        default: gemm_block<1>(a, ld, depth, bj, b_j, b_k, ij, cj, r0);
      }
    }
  }
}

// ---- parameter gradients ---------------------------------------------------
// For outputs o < out and columns i <= in:
//   g(o, i) += sum_{r < rows, in row order} d[o*ld + r] * x(r, i)
// where g(o, i) is w_grad[o*in + i] for i < in and b_grad[o] for i == in.
// `d` is dLoss/d(pre-activation), feature-major. `x` is the layer input in
// panels of kColBlock columns (x(r, i) at x[(i/4*rows + r)*4 + i%4]), so a
// block streams its panel contiguously; its column `in` holds 1.0, making
// the bias gradient the last weight column (d * 1.0 == d exactly).
// Padding columns are computed and dropped.

template <std::size_t J>
void grad_block(const double* d, std::size_t ld, std::size_t rows,
                const double* panel, std::size_t i0, std::size_t in,
                double* w_grad, double* b_grad) {
  auto entry = [&](std::size_t j, std::size_t q) -> double* {
    const std::size_t i = i0 + q;
    if (i < in) return w_grad + j * in + i;
    return i == in ? b_grad + j : nullptr;
  };
  V2 acc[J][2];
  for (std::size_t j = 0; j < J; ++j) {
    double init[kColBlock];
    for (std::size_t q = 0; q < kColBlock; ++q) {
      const double* g = entry(j, q);
      init[q] = g != nullptr ? *g : 0.0;
    }
    acc[j][0] = load2(init);
    acc[j][1] = load2(init + 2);
  }
  for (std::size_t r = 0; r < rows; ++r) {
    const V2 x0 = load2(panel + r * kColBlock);
    const V2 x1 = load2(panel + r * kColBlock + 2);
#pragma GCC unroll 4
    for (std::size_t j = 0; j < J; ++j) {
      const V2 dv = splat(d[j * ld + r]);
      acc[j][0] += dv * x0;
      acc[j][1] += dv * x1;
    }
  }
  for (std::size_t j = 0; j < J; ++j) {
    double sum[kColBlock];
    store2(sum, acc[j][0]);
    store2(sum + 2, acc[j][1]);
    for (std::size_t q = 0; q < kColBlock; ++q) {
      if (double* g = entry(j, q)) *g = sum[q];
    }
  }
}

void param_grads(const double* d, std::size_t ld, std::size_t rows,
                 const double* x, std::size_t in, std::size_t out,
                 double* w_grad, double* b_grad) {
  for (std::size_t i0 = 0; i0 <= in; i0 += kColBlock) {
    const double* p = x + i0 * rows;
    for (std::size_t o = 0; o < out; o += kColBlock) {
      const double* d_o = d + o * ld;
      double* w_o = w_grad + o * in;
      double* b_o = b_grad + o;
      switch (std::min(kColBlock, out - o)) {
        case 4: grad_block<4>(d_o, ld, rows, p, i0, in, w_o, b_o); break;
        case 3: grad_block<3>(d_o, ld, rows, p, i0, in, w_o, b_o); break;
        case 2: grad_block<2>(d_o, ld, rows, p, i0, in, w_o, b_o); break;
        default: grad_block<1>(d_o, ld, rows, p, i0, in, w_o, b_o);
      }
    }
  }
}

// ---- layout changes --------------------------------------------------------

/// Row-major rows x width -> feature-major width x ld, padding rows zeroed.
void to_feature_major(const double* src, std::size_t rows, std::size_t width,
                      std::size_t ld, std::vector<double>& dst) {
  dst.resize(width * ld);
  for (std::size_t f = 0; f < width; ++f) {
    double* col = dst.data() + f * ld;
    for (std::size_t r = 0; r < rows; ++r) col[r] = src[r * width + f];
    std::fill(col + rows, col + ld, 0.0);
  }
}

/// Feature-major width x ld -> row-major rows x width.
void to_row_major(const double* src, std::size_t rows, std::size_t width,
                  std::size_t ld, std::vector<double>& dst) {
  dst.resize(rows * width);
  for (std::size_t f = 0; f < width; ++f) {
    const double* col = src + f * ld;
    for (std::size_t r = 0; r < rows; ++r) dst[r * width + f] = col[r];
  }
}

/// Feature-major width x ld -> column panels for param_grads(): the first
/// `rows` rows, plus a column of 1.0 at index `width` and zero padding up
/// to whole panels.
void to_panels(const double* src, std::size_t rows, std::size_t width,
               std::size_t ld, std::vector<double>& dst) {
  const std::size_t cols = round_up(width + 1, kColBlock);
  dst.resize(cols * rows);
  for (std::size_t f = 0; f < cols; ++f) {
    double* panel = dst.data() + (f / kColBlock) * rows * kColBlock +
                    f % kColBlock;
    if (f < width) {
      const double* col = src + f * ld;
      for (std::size_t r = 0; r < rows; ++r) panel[r * kColBlock] = col[r];
    } else {
      const double fill = f == width ? 1.0 : 0.0;
      for (std::size_t r = 0; r < rows; ++r) panel[r * kColBlock] = fill;
    }
  }
}

}  // namespace

Mlp::Mlp(std::vector<int> layer_sizes, Activation act, std::uint64_t seed,
         double final_scale)
    : sizes_(std::move(layer_sizes)), act_(act) {
  if (sizes_.size() < 2) {
    throw std::invalid_argument("Mlp needs at least input and output sizes");
  }
  for (int s : sizes_) {
    if (s < 1) {
      throw std::invalid_argument("Mlp: layer size " + std::to_string(s) +
                                  " is below 1");
    }
  }
  std::size_t offset = 0;
  for (std::size_t i = 0; i + 1 < sizes_.size(); ++i) {
    Layer layer;
    layer.in = sizes_[i];
    layer.out = sizes_[i + 1];
    layer.w_off = offset;
    offset += static_cast<std::size_t>(layer.in) * layer.out;
    layer.b_off = offset;
    offset += static_cast<std::size_t>(layer.out);
    layers_.push_back(layer);
  }
  params_.assign(offset, 0.0);
  grads_.assign(offset, 0.0);

  // Xavier-uniform init; output layer additionally scaled.
  util::Rng rng(seed);
  for (std::size_t li = 0; li < layers_.size(); ++li) {
    const Layer& layer = layers_[li];
    const double bound = std::sqrt(6.0 / (layer.in + layer.out));
    const double scale = li + 1 == layers_.size() ? final_scale : 1.0;
    for (int i = 0; i < layer.in * layer.out; ++i) {
      params_[layer.w_off + static_cast<std::size_t>(i)] =
          scale * rng.uniform(-bound, bound);
    }
    // biases start at zero
  }
}

double Mlp::activate(double v) const {
  return act_ == Activation::Tanh ? std::tanh(v) : (v > 0.0 ? v : 0.0);
}

std::vector<double> Mlp::forward(const std::vector<double>& x) const {
  return forward_batch(x, 1);
}

std::vector<double> Mlp::forward_batch(const std::vector<double>& x,
                                       int rows) const {
  Trace trace;
  forward_trace(x, rows, trace);
  return std::move(trace.output_);
}

void Mlp::forward_trace(const std::vector<double>& x, int rows,
                        Trace& trace) const {
  if (rows < 0 ||
      x.size() != static_cast<std::size_t>(rows) *
                      static_cast<std::size_t>(sizes_.front())) {
    throw std::invalid_argument("Mlp: bad batch shape");
  }
  const std::size_t n = static_cast<std::size_t>(rows);
  const std::size_t ld = round_up(n, kRowBlock);
  trace.rows_ = rows;
  trace.ld_ = ld;
  trace.acts_.resize(sizes_.size());
  to_feature_major(x.data(), n, static_cast<std::size_t>(sizes_.front()), ld,
                   trace.acts_.front());
  for (std::size_t li = 0; li < layers_.size(); ++li) {
    const Layer& layer = layers_[li];
    const std::size_t in = static_cast<std::size_t>(layer.in);
    const std::size_t out = static_cast<std::size_t>(layer.out);
    std::vector<double>& y = trace.acts_[li + 1];
    y.resize(out * ld);
    // y = b + W x: weight (o, i) sits at w_off + o * in + i.
    gemm(trace.acts_[li].data(), ld, in, params_.data() + layer.w_off, in, 1,
         out, params_.data() + layer.b_off, y.data());
    if (li + 1 < layers_.size()) {
      for (std::size_t o = 0; o < out; ++o) {
        for (std::size_t r = 0; r < n; ++r) {
          y[o * ld + r] = activate(y[o * ld + r]);
        }
      }
    }
  }
  to_row_major(trace.acts_.back().data(), n,
               static_cast<std::size_t>(sizes_.back()), ld, trace.output_);
}

void Mlp::backward(Trace& trace, const std::vector<double>& d_output,
                   std::vector<double>* d_input) {
  const std::size_t n = static_cast<std::size_t>(trace.rows_);
  const std::size_t ld = trace.ld_;
  bool shapes_match = trace.acts_.size() == sizes_.size() &&
                      d_output.size() ==
                          n * static_cast<std::size_t>(sizes_.back());
  for (std::size_t l = 0; shapes_match && l < sizes_.size(); ++l) {
    shapes_match =
        trace.acts_[l].size() == static_cast<std::size_t>(sizes_[l]) * ld;
  }
  if (!shapes_match) {
    throw std::invalid_argument("Mlp::backward: trace or gradient shape");
  }
  // trace.grad_ holds dLoss/d(pre-activation) of the current layer,
  // feature-major; the output layer is linear, so it starts as d_output.
  to_feature_major(d_output.data(), n, static_cast<std::size_t>(sizes_.back()),
                   ld, trace.grad_);
  for (std::size_t li = layers_.size(); li-- > 0;) {
    const Layer& layer = layers_[li];
    const std::size_t in = static_cast<std::size_t>(layer.in);
    const std::size_t out = static_cast<std::size_t>(layer.out);

    // Parameter gradients, against the layer input with a bias column.
    to_panels(trace.acts_[li].data(), n, in, ld, trace.input_panels_);
    param_grads(trace.grad_.data(), ld, n, trace.input_panels_.data(), in,
                out, grads_.data() + layer.w_off, grads_.data() + layer.b_off);

    if (li == 0 && d_input == nullptr) return;

    // dLoss/d(layer input) = W^T grad: entry (i, o) of W^T sits at
    // w_off + o * in + i.
    std::vector<double>& d_in = trace.grad_next_;
    d_in.resize(in * ld);
    gemm(trace.grad_.data(), ld, out, params_.data() + layer.w_off, 1, in, in,
         nullptr, d_in.data());
    if (li > 0) {
      // Through the previous layer's activation, using its cached output
      // (tanh: d act/d pre = 1 - a^2; relu: 1[a > 0]).
      const std::vector<double>& post = trace.acts_[li];
      for (std::size_t k = 0; k < d_in.size(); ++k) {
        const double a = post[k];
        d_in[k] *= act_ == Activation::Tanh ? (1.0 - a * a)
                                            : (a > 0.0 ? 1.0 : 0.0);
      }
    }
    trace.grad_.swap(d_in);
  }
  to_row_major(trace.grad_.data(), n, static_cast<std::size_t>(sizes_.front()),
               ld, *d_input);
}

void Mlp::zero_grad() { std::fill(grads_.begin(), grads_.end(), 0.0); }

void Mlp::save(std::ostream& out) const {
  out << "mlp " << sizes_.size() << "\n";
  for (int s : sizes_) out << s << " ";
  out << "\n" << (act_ == Activation::Tanh ? "tanh" : "relu") << "\n";
  out.precision(17);
  for (double p : params_) out << p << " ";
  out << "\n";
}

Mlp Mlp::load(std::istream& in) {
  // The largest network a checkpoint may describe. Real ones are ~10^4
  // weights; a count far past that is corruption, not a network to
  // allocate.
  constexpr std::size_t kMaxParams = std::size_t{1} << 24;
  std::string magic;
  std::size_t n_sizes = 0;
  in >> magic >> n_sizes;
  if (!in || magic != "mlp" || n_sizes < 2) {
    throw std::runtime_error("Mlp::load: bad header");
  }
  std::vector<int> sizes;
  std::size_t count = 0;
  for (std::size_t i = 0; i < n_sizes; ++i) {
    int s = 0;
    if (!(in >> s)) throw std::runtime_error("Mlp::load: truncated sizes");
    if (s < 1 || static_cast<std::size_t>(s) > kMaxParams) {
      throw std::runtime_error("Mlp::load: layer size " + std::to_string(s) +
                               " out of range");
    }
    if (!sizes.empty()) {
      count += (static_cast<std::size_t>(sizes.back()) + 1) *
               static_cast<std::size_t>(s);
      if (count > kMaxParams) {
        throw std::runtime_error("Mlp::load: too many parameters");
      }
    }
    sizes.push_back(s);
  }
  std::string act_name;
  in >> act_name;
  if (act_name != "tanh" && act_name != "relu") {
    throw std::runtime_error("Mlp::load: unknown activation '" + act_name +
                             "'");
  }
  Mlp mlp(sizes, act_name == "tanh" ? Activation::Tanh : Activation::Relu, 0);
  for (double& p : mlp.params_) in >> p;
  if (!in) throw std::runtime_error("Mlp::load: truncated weights");
  return mlp;
}

Adam::Adam(std::size_t n, double lr, double beta1, double beta2, double eps)
    : lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      m_(n, 0.0),
      v_(n, 0.0) {}

void Adam::step(std::vector<double>& params, const std::vector<double>& grads) {
  ++t_;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  for (std::size_t i = 0; i < params.size(); ++i) {
    m_[i] = beta1_ * m_[i] + (1.0 - beta1_) * grads[i];
    v_[i] = beta2_ * v_[i] + (1.0 - beta2_) * grads[i] * grads[i];
    const double m_hat = m_[i] / bc1;
    const double v_hat = v_[i] / bc2;
    params[i] -= lr_ * m_hat / (std::sqrt(v_hat) + eps_);
  }
}

}  // namespace autockt::nn
