#pragma once
// Minimal dense neural-network stack with hand-derived backpropagation:
// flat parameter storage (so the optimizer sees one contiguous vector),
// tanh hidden layers, linear output. This is the substrate for the PPO
// policy/value networks (paper: three layers of 50 neurons) and for the
// GA+ML baseline's discriminator.
//
// Every pass is batched: forward, forward_batch and forward_trace share one
// register-blocked forward kernel, backward one set of backward kernels, and
// a single row is just rows = 1. Inference (`forward`, `forward_batch`) is
// const, so multiple rollout workers can query one frozen network
// concurrently. DESIGN.md §6 ("Batched update") gives the layout and the
// accumulation-order contract that keeps results bitwise independent of
// the batch size.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace autockt::nn {

enum class Activation { Tanh, Relu };

class Mlp {
 public:
  /// layer_sizes = {in, hidden..., out}. Hidden layers use `act`; the output
  /// layer is linear with weights scaled by `final_scale` at init (small
  /// values keep an initial policy near-uniform, which PPO likes). Throws
  /// std::invalid_argument for fewer than two sizes or a size below 1.
  Mlp(std::vector<int> layer_sizes, Activation act, std::uint64_t seed,
      double final_scale = 1.0);

  int input_size() const { return sizes_.front(); }
  int output_size() const { return sizes_.back(); }

  /// Thread-safe inference of one input vector: forward_batch(x, 1).
  std::vector<double> forward(const std::vector<double>& x) const;

  /// Batched thread-safe inference: `x` holds `rows` input vectors stacked
  /// row-major (rows * input_size values); returns rows * output_size,
  /// row-major. Each output is accumulated in the same order whatever the
  /// batch size, so row i equals forward(row i) bitwise.
  std::vector<double> forward_batch(const std::vector<double>& x,
                                    int rows) const;

  /// Activations of one batched forward pass, recorded by forward_trace()
  /// and consumed by backward(). The buffers are kept between calls, so a
  /// training loop that reuses one Trace allocates only on its first
  /// minibatch.
  class Trace {
   public:
    int rows() const { return rows_; }
    /// rows x output_size, row-major.
    const std::vector<double>& output() const { return output_; }

   private:
    friend class Mlp;
    int rows_ = 0;
    std::size_t ld_ = 0;  // rows rounded up to the kernels' row block
    // acts_[l] is layer l's input (acts_.back() the network output),
    // feature-major: feature f of row r at f * ld_ + r.
    std::vector<std::vector<double>> acts_;
    std::vector<double> output_;
    // backward() scratch: gradients in the feature-major layout, and the
    // layer input regrouped into column panels.
    std::vector<double> grad_, grad_next_, input_panels_;
  };

  /// Forward pass over `rows` inputs stacked row-major (as forward_batch),
  /// recording every layer's activations in `trace`.
  void forward_trace(const std::vector<double>& x, int rows,
                     Trace& trace) const;

  /// Accumulate parameter gradients (grads() +=) for the pass recorded in
  /// `trace`, given dLoss/dOutput as rows x output_size, row-major. Every
  /// gradient entry sums its per-row terms in row order, so a batch gives
  /// the same bits as one call per row in that order. When `d_input` is
  /// non-null it receives dLoss/dInput (rows x input_size, row-major).
  void backward(Trace& trace, const std::vector<double>& d_output,
                std::vector<double>* d_input = nullptr);

  void zero_grad();

  std::vector<double>& params() { return params_; }
  const std::vector<double>& params() const { return params_; }
  std::vector<double>& grads() { return grads_; }

  std::size_t param_count() const { return params_.size(); }

  /// Text serialization (architecture + weights). load() reports any
  /// malformed input, including an invalid architecture, as
  /// std::runtime_error.
  void save(std::ostream& out) const;
  static Mlp load(std::istream& in);

 private:
  struct Layer {
    int in = 0, out = 0;
    std::size_t w_off = 0, b_off = 0;
  };

  double activate(double v) const;

  std::vector<int> sizes_;
  Activation act_;
  std::vector<Layer> layers_;
  std::vector<double> params_;
  std::vector<double> grads_;
};

/// Adam optimizer over a flat parameter vector.
class Adam {
 public:
  explicit Adam(std::size_t n, double lr = 3e-4, double beta1 = 0.9,
                double beta2 = 0.999, double eps = 1e-8);

  void step(std::vector<double>& params, const std::vector<double>& grads);
  void set_lr(double lr) { lr_ = lr; }
  double lr() const { return lr_; }

 private:
  double lr_, beta1_, beta2_, eps_;
  std::vector<double> m_, v_;
  std::int64_t t_ = 0;
};

}  // namespace autockt::nn
