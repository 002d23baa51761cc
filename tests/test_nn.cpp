#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <tuple>

#include "nn/categorical.hpp"
#include "nn/mlp.hpp"
#include "util/rng.hpp"

using namespace autockt::nn;
using autockt::util::Rng;

namespace {

std::vector<double> random_vec(int n, Rng& rng, double scale = 1.0) {
  std::vector<double> x(static_cast<std::size_t>(n));
  for (double& v : x) v = scale * rng.uniform(-1.0, 1.0);
  return x;
}

/// Scalar loss used for gradient checking: L = sum_i w_i * y_i with fixed
/// per-output weights, so dL/dy = w.
double loss_of(const Mlp& mlp, const std::vector<double>& x,
               const std::vector<double>& w) {
  const auto y = mlp.forward(x);
  double acc = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) acc += w[i] * y[i];
  return acc;
}

// ---- per-sample reference -------------------------------------------------
// The one-row-at-a-time forward and backward loops that the batched kernels
// replaced, kept as the parity reference. Parameters are laid out as in
// Mlp: per layer, the out x in weight matrix (row o = output o), then the
// out biases.

struct RefTrace {
  std::vector<std::vector<double>> inputs;  // input to each layer
  std::vector<double> output;
};

struct RefLayer {
  int in, out;
  std::size_t w_off, b_off;
};

std::vector<RefLayer> ref_layers(const std::vector<int>& sizes) {
  std::vector<RefLayer> layers;
  std::size_t offset = 0;
  for (std::size_t i = 0; i + 1 < sizes.size(); ++i) {
    RefLayer layer{sizes[i], sizes[i + 1], offset, 0};
    offset += static_cast<std::size_t>(layer.in) * layer.out;
    layer.b_off = offset;
    offset += static_cast<std::size_t>(layer.out);
    layers.push_back(layer);
  }
  return layers;
}

RefTrace ref_forward(const std::vector<int>& sizes, Activation act,
                     const std::vector<double>& params,
                     const std::vector<double>& x) {
  const auto layers = ref_layers(sizes);
  RefTrace trace;
  std::vector<double> cur = x;
  for (std::size_t li = 0; li < layers.size(); ++li) {
    const RefLayer& layer = layers[li];
    trace.inputs.push_back(cur);
    std::vector<double> next(static_cast<std::size_t>(layer.out), 0.0);
    const bool last = li + 1 == layers.size();
    for (int o = 0; o < layer.out; ++o) {
      const double* w =
          params.data() + layer.w_off + static_cast<std::size_t>(o) * layer.in;
      double acc = params[layer.b_off + static_cast<std::size_t>(o)];
      for (int i = 0; i < layer.in; ++i) {
        acc += w[i] * cur[static_cast<std::size_t>(i)];
      }
      next[static_cast<std::size_t>(o)] =
          last ? acc
               : (act == Activation::Tanh ? std::tanh(acc)
                                          : (acc > 0.0 ? acc : 0.0));
    }
    cur.swap(next);
  }
  trace.output = cur;
  return trace;
}

/// Accumulates into `grads`; returns dLoss/dInput.
std::vector<double> ref_backward(const std::vector<int>& sizes, Activation act,
                                 const std::vector<double>& params,
                                 const RefTrace& trace,
                                 const std::vector<double>& d_output,
                                 std::vector<double>& grads) {
  const auto layers = ref_layers(sizes);
  std::vector<double> d_cur = d_output;
  for (std::size_t li = layers.size(); li-- > 0;) {
    const RefLayer& layer = layers[li];
    const std::vector<double>& input = trace.inputs[li];
    const bool last = li + 1 == layers.size();
    const std::vector<double>& post =
        last ? trace.output : trace.inputs[li + 1];
    std::vector<double> d_pre(static_cast<std::size_t>(layer.out), 0.0);
    for (int o = 0; o < layer.out; ++o) {
      double g = d_cur[static_cast<std::size_t>(o)];
      if (!last) {
        const double a = post[static_cast<std::size_t>(o)];
        g *= act == Activation::Tanh ? (1.0 - a * a) : (a > 0.0 ? 1.0 : 0.0);
      }
      d_pre[static_cast<std::size_t>(o)] = g;
    }
    for (int o = 0; o < layer.out; ++o) {
      const double g = d_pre[static_cast<std::size_t>(o)];
      double* gw =
          grads.data() + layer.w_off + static_cast<std::size_t>(o) * layer.in;
      for (int i = 0; i < layer.in; ++i) {
        gw[i] += g * input[static_cast<std::size_t>(i)];
      }
      grads[layer.b_off + static_cast<std::size_t>(o)] += g;
    }
    std::vector<double> d_in(static_cast<std::size_t>(layer.in), 0.0);
    for (int o = 0; o < layer.out; ++o) {
      const double g = d_pre[static_cast<std::size_t>(o)];
      const double* w =
          params.data() + layer.w_off + static_cast<std::size_t>(o) * layer.in;
      for (int i = 0; i < layer.in; ++i) {
        d_in[static_cast<std::size_t>(i)] += g * w[i];
      }
    }
    d_cur.swap(d_in);
  }
  return d_cur;
}

/// Bit pattern of a double, so parity checks also tell -0.0 from 0.0.
std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

std::vector<double> row_of(const std::vector<double>& m, int r, int width) {
  const auto begin = m.begin() + static_cast<std::ptrdiff_t>(r) * width;
  return {begin, begin + width};
}

/// Single-row trace + backward, as the grad checks below use them.
std::vector<double> backward_one(Mlp& mlp, const std::vector<double>& x,
                                 const std::vector<double>& d_output) {
  Mlp::Trace trace;
  mlp.forward_trace(x, 1, trace);
  std::vector<double> d_input;
  mlp.backward(trace, d_output, &d_input);
  return d_input;
}

}  // namespace

TEST(Mlp, OutputSizesAndDeterminism) {
  Mlp mlp({4, 16, 3}, Activation::Tanh, 7);
  Rng rng(1);
  const auto x = random_vec(4, rng);
  const auto y1 = mlp.forward(x);
  const auto y2 = mlp.forward(x);
  ASSERT_EQ(y1.size(), 3u);
  EXPECT_EQ(y1, y2);

  Mlp same({4, 16, 3}, Activation::Tanh, 7);
  EXPECT_EQ(same.forward(x), y1);  // seed-deterministic init
}

TEST(Mlp, FinalScaleShrinksOutputs) {
  Rng rng(1);
  const auto x = random_vec(4, rng);
  Mlp big({4, 16, 3}, Activation::Tanh, 7, 1.0);
  Mlp small({4, 16, 3}, Activation::Tanh, 7, 0.01);
  double norm_big = 0.0, norm_small = 0.0;
  for (double v : big.forward(x)) norm_big += v * v;
  for (double v : small.forward(x)) norm_small += v * v;
  EXPECT_LT(norm_small, norm_big * 1e-2);
}

TEST(Mlp, RejectsDegenerateArchitecture) {
  EXPECT_THROW(Mlp({4}, Activation::Tanh, 1), std::invalid_argument);
  EXPECT_THROW(Mlp({4, 0, 2}, Activation::Tanh, 1), std::invalid_argument);
  EXPECT_THROW(Mlp({4, -5, 2}, Activation::Tanh, 1), std::invalid_argument);
  EXPECT_THROW(Mlp({0, 3}, Activation::Relu, 1), std::invalid_argument);
  EXPECT_THROW(Mlp({3, 0}, Activation::Relu, 1), std::invalid_argument);
}

TEST(Mlp, RejectsBadBatchShapes) {
  Mlp mlp({3, 4, 2}, Activation::Tanh, 1);
  Mlp::Trace trace;
  EXPECT_THROW(mlp.forward(std::vector<double>(2, 0.0)),
               std::invalid_argument);
  EXPECT_THROW(mlp.forward_trace(std::vector<double>(7, 0.0), 2, trace),
               std::invalid_argument);
  mlp.forward_trace(std::vector<double>(6, 0.0), 2, trace);
  EXPECT_EQ(trace.rows(), 2);
  EXPECT_THROW(mlp.backward(trace, std::vector<double>(3, 0.0)),
               std::invalid_argument);
  // A trace recorded by a different architecture is refused, also when
  // only a hidden width differs.
  Mlp other({5, 4, 2}, Activation::Tanh, 1);
  EXPECT_THROW(other.backward(trace, std::vector<double>(4, 0.0)),
               std::invalid_argument);
  Mlp wider({3, 8, 2}, Activation::Tanh, 1);
  EXPECT_THROW(wider.backward(trace, std::vector<double>(4, 0.0)),
               std::invalid_argument);
}

// The critical correctness test for the whole RL stack: analytic parameter
// gradients must match central finite differences for several shapes and
// both activations.
class MlpGradCheck
    : public ::testing::TestWithParam<
          std::tuple<std::vector<int>, Activation>> {};

TEST_P(MlpGradCheck, ParameterGradientsMatchFiniteDifferences) {
  const auto& [sizes, act] = GetParam();
  Mlp mlp(sizes, act, 99);
  Rng rng(5);
  const auto x = random_vec(sizes.front(), rng);
  const auto w = random_vec(sizes.back(), rng);

  mlp.zero_grad();
  backward_one(mlp, x, w);
  const auto analytic = mlp.grads();

  const double h = 1e-6;
  // Probe a deterministic subset of parameters (checking all ~thousand is
  // slow and adds nothing).
  for (std::size_t i = 0; i < mlp.param_count();
       i += std::max<std::size_t>(1, mlp.param_count() / 97)) {
    const double saved = mlp.params()[i];
    mlp.params()[i] = saved + h;
    const double up = loss_of(mlp, x, w);
    mlp.params()[i] = saved - h;
    const double down = loss_of(mlp, x, w);
    mlp.params()[i] = saved;
    const double numeric = (up - down) / (2.0 * h);
    EXPECT_NEAR(analytic[i], numeric,
                1e-5 + 1e-4 * std::fabs(numeric))
        << "param " << i;
  }
}

TEST_P(MlpGradCheck, InputGradientsMatchFiniteDifferences) {
  const auto& [sizes, act] = GetParam();
  Mlp mlp(sizes, act, 123);
  Rng rng(6);
  auto x = random_vec(sizes.front(), rng);
  const auto w = random_vec(sizes.back(), rng);

  mlp.zero_grad();
  const auto d_input = backward_one(mlp, x, w);

  const double h = 1e-6;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double saved = x[i];
    x[i] = saved + h;
    const double up = loss_of(mlp, x, w);
    x[i] = saved - h;
    const double down = loss_of(mlp, x, w);
    x[i] = saved;
    EXPECT_NEAR(d_input[i], (up - down) / (2.0 * h), 1e-5);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MlpGradCheck,
    ::testing::Values(
        std::make_tuple(std::vector<int>{3, 8, 2}, Activation::Tanh),
        std::make_tuple(std::vector<int>{5, 16, 16, 4}, Activation::Tanh),
        std::make_tuple(std::vector<int>{18, 50, 50, 50, 21}, Activation::Tanh),
        std::make_tuple(std::vector<int>{4, 12, 3}, Activation::Relu),
        std::make_tuple(std::vector<int>{6, 20, 20, 1}, Activation::Relu)));

TEST(Mlp, GradAccumulatesAcrossBackwardCalls) {
  Mlp mlp({2, 4, 1}, Activation::Tanh, 3);
  Rng rng(9);
  const auto x = random_vec(2, rng);
  mlp.zero_grad();
  Mlp::Trace trace;
  mlp.forward_trace(x, 1, trace);
  mlp.backward(trace, {1.0});
  const auto once = mlp.grads();
  mlp.backward(trace, {1.0});
  for (std::size_t i = 0; i < once.size(); ++i) {
    EXPECT_NEAR(mlp.grads()[i], 2.0 * once[i], 1e-12);
  }
  mlp.zero_grad();
  for (double g : mlp.grads()) EXPECT_EQ(g, 0.0);
}

TEST(Mlp, SaveLoadRoundTrip) {
  Mlp mlp({3, 10, 2}, Activation::Tanh, 11);
  std::stringstream ss;
  mlp.save(ss);
  Mlp loaded = Mlp::load(ss);
  Rng rng(4);
  const auto x = random_vec(3, rng);
  EXPECT_EQ(mlp.forward(x), loaded.forward(x));
}

TEST(Mlp, LoadRejectsGarbage) {
  std::stringstream ss("not_a_model 3");
  EXPECT_THROW(Mlp::load(ss), std::runtime_error);
}

TEST(Mlp, LoadRejectsMalformedShapes) {
  // Every malformed checkpoint is a std::runtime_error, never a network
  // of surprising shape or a std::length_error from an allocation.
  for (const char* text : {
           "mlp 3\n4 0 2\ntanh\n",         // empty hidden layer
           "mlp 3\n4 -5 2\ntanh\n",        // negative size
           "mlp 2\n0 2\ntanh\n",           // empty input
           "mlp 3\n4 3\n",                 // truncated sizes
           "mlp 2\n4 2\nsigmoid\n1 2\n",  // unknown activation
           "mlp 2\n4 2\ntanh\n1 2 3\n",   // truncated weights
           "mlp 2\n100000 100000\ntanh\n", // absurd parameter count
       }) {
    std::stringstream ss(text);
    EXPECT_THROW(Mlp::load(ss), std::runtime_error) << text;
  }
}

// ---- batched kernels vs the per-sample reference ---------------------------
// Bitwise parity for every output, every gradient entry and the input
// gradient, over shapes whose widths are not multiples of the kernels'
// 4-wide blocks and batch sizes around the row block. One Trace is reused
// across all batch sizes, growing and shrinking its buffers.

class MlpKernelParity
    : public ::testing::TestWithParam<
          std::tuple<std::vector<int>, Activation>> {};

TEST_P(MlpKernelParity, MatchesPerSampleReferenceBitwise) {
  const auto& [sizes, act] = GetParam();
  const int in = sizes.front();
  const int out = sizes.back();
  Mlp mlp(sizes, act, 41);
  Rng rng(43);
  // Nonzero biases and larger weights, so relu units sit on both sides.
  for (double& p : mlp.params()) p = rng.uniform(-0.8, 0.8);
  Mlp::Trace trace;
  for (int rows : {1, 3, 4, 5, 33, 256}) {
    SCOPED_TRACE("rows " + std::to_string(rows));
    const auto x = random_vec(rows * in, rng);
    auto d_out = random_vec(rows * out, rng);
    d_out[0] = 0.0;  // an exact zero gradient, as clipped PPO rows give

    const auto batched = mlp.forward_batch(x, rows);
    mlp.forward_trace(x, rows, trace);
    ASSERT_EQ(trace.rows(), rows);
    ASSERT_EQ(batched.size(), static_cast<std::size_t>(rows * out));

    mlp.zero_grad();
    std::vector<double> d_input;
    mlp.backward(trace, d_out, &d_input);
    mlp.backward(trace, d_out, &d_input);  // grads accumulate
    ASSERT_EQ(d_input.size(), static_cast<std::size_t>(rows * in));

    std::vector<double> ref_grads(mlp.param_count(), 0.0);
    std::vector<RefTrace> ref_traces;
    std::vector<std::vector<double>> ref_d_inputs;
    for (int r = 0; r < rows; ++r) {
      ref_traces.push_back(ref_forward(sizes, act, mlp.params(),
                                       row_of(x, r, in)));
    }
    for (int pass = 0; pass < 2; ++pass) {
      ref_d_inputs.clear();
      for (int r = 0; r < rows; ++r) {
        ref_d_inputs.push_back(
            ref_backward(sizes, act, mlp.params(),
                         ref_traces[static_cast<std::size_t>(r)],
                         row_of(d_out, r, out), ref_grads));
      }
    }

    for (int r = 0; r < rows; ++r) {
      const auto& ref = ref_traces[static_cast<std::size_t>(r)].output;
      const auto single = mlp.forward(row_of(x, r, in));
      for (int o = 0; o < out; ++o) {
        const std::size_t k = static_cast<std::size_t>(r * out + o);
        const double want = ref[static_cast<std::size_t>(o)];
        EXPECT_EQ(bits(batched[k]), bits(want)) << "row " << r << " out " << o;
        EXPECT_EQ(bits(trace.output()[k]), bits(want));
        EXPECT_EQ(bits(single[static_cast<std::size_t>(o)]), bits(want));
      }
      const auto& ref_d = ref_d_inputs[static_cast<std::size_t>(r)];
      for (int i = 0; i < in; ++i) {
        EXPECT_EQ(bits(d_input[static_cast<std::size_t>(r * in + i)]),
                  bits(ref_d[static_cast<std::size_t>(i)]))
            << "row " << r << " input " << i;
      }
    }
    for (std::size_t k = 0; k < ref_grads.size(); ++k) {
      EXPECT_EQ(bits(mlp.grads()[k]), bits(ref_grads[k])) << "param " << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MlpKernelParity,
    ::testing::Values(
        std::make_tuple(std::vector<int>{18, 50, 50, 50, 21}, Activation::Tanh),
        std::make_tuple(std::vector<int>{18, 50, 50, 50, 1}, Activation::Tanh),
        std::make_tuple(std::vector<int>{5, 3, 7, 1}, Activation::Tanh),
        std::make_tuple(std::vector<int>{5, 3, 7, 1}, Activation::Relu),
        std::make_tuple(std::vector<int>{8, 16, 4}, Activation::Relu),
        std::make_tuple(std::vector<int>{3, 2}, Activation::Tanh)));

TEST(Mlp, EmptyBatch) {
  Mlp mlp({3, 4, 2}, Activation::Tanh, 1);
  Mlp::Trace trace;
  mlp.forward_trace({}, 0, trace);
  EXPECT_TRUE(trace.output().empty());
  mlp.zero_grad();
  std::vector<double> d_input{1.0};
  mlp.backward(trace, {}, &d_input);
  EXPECT_TRUE(d_input.empty());
  for (double g : mlp.grads()) EXPECT_EQ(g, 0.0);
}

TEST(Adam, MinimizesQuadraticBowl) {
  // f(p) = sum (p_i - c_i)^2; Adam should converge near c.
  const std::vector<double> target{1.0, -2.0, 0.5};
  std::vector<double> p{0.0, 0.0, 0.0};
  Adam adam(p.size(), 0.05);
  std::vector<double> grads(p.size());
  for (int step = 0; step < 2000; ++step) {
    for (std::size_t i = 0; i < p.size(); ++i) {
      grads[i] = 2.0 * (p[i] - target[i]);
    }
    adam.step(p, grads);
  }
  for (std::size_t i = 0; i < p.size(); ++i) {
    EXPECT_NEAR(p[i], target[i], 1e-3);
  }
}

TEST(Adam, LrAccessors) {
  Adam adam(3, 1e-3);
  EXPECT_DOUBLE_EQ(adam.lr(), 1e-3);
  adam.set_lr(5e-4);
  EXPECT_DOUBLE_EQ(adam.lr(), 5e-4);
}

// ---------------------------------------------------------------- softmax

TEST(Categorical, SoftmaxSumsToOne) {
  const std::vector<double> logits{1.0, 2.0, 3.0, -10.0, 0.0, 10.0};
  const auto p1 = softmax_slice(logits, 0, 3);
  const auto p2 = softmax_slice(logits, 3, 3);
  double s1 = 0.0, s2 = 0.0;
  for (double p : p1) s1 += p;
  for (double p : p2) s2 += p;
  EXPECT_NEAR(s1, 1.0, 1e-12);
  EXPECT_NEAR(s2, 1.0, 1e-12);
  EXPECT_GT(p1[2], p1[0]);  // larger logit, larger probability
}

TEST(Categorical, SoftmaxStableForHugeLogits) {
  const std::vector<double> logits{1000.0, 999.0, 0.0};
  const auto p = softmax_slice(logits, 0, 3);
  EXPECT_NEAR(p[0] + p[1] + p[2], 1.0, 1e-12);
  EXPECT_FALSE(std::isnan(p[0]));
  EXPECT_GT(p[0], p[1]);
}

TEST(Categorical, SamplingMatchesProbabilities) {
  Rng rng(17);
  const std::vector<double> probs{0.6, 0.3, 0.1};
  std::vector<int> counts(3, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    ++counts[static_cast<std::size_t>(sample_categorical(probs, rng))];
  }
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.6, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.1, 0.01);
}

TEST(Categorical, ArgmaxAndEntropyBounds) {
  EXPECT_EQ(argmax({0.2, 0.5, 0.3}), 1);
  EXPECT_NEAR(entropy({1.0, 0.0, 0.0}), 0.0, 1e-12);
  EXPECT_NEAR(entropy({1.0 / 3, 1.0 / 3, 1.0 / 3}), std::log(3.0), 1e-9);
}
