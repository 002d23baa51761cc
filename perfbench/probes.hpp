#pragma once
// Layer probes for the benchmark: EvalBackend decorators that time the
// `eval` and `sim` layers from outside the program.
//
//   EvalProbe  wraps the outermost SizingProblem::backend (what the env
//              calls once per tick). It records per-call latency, busy time
//              summed over calling threads, and an in-flight timeline: the
//              timed phase is split into time with at least one call in
//              flight (eval) and time with none (rl, the complement).
//   SimProbe   sits between CachedBackend and its inner() stack, so it sees
//              exactly the memo misses that reach the simulator leaf. It
//              counts points, failed points, leaf busy time and duplicate
//              leaf evaluations of one key (the memo race between
//              collection workers), and can plant a slowdown by spinning.
//
// Both forward batches with dispatch_batch(), so batch-shape accounting
// stays at the outermost layer exactly as in the unprobed stack.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "eval/backend.hpp"
#include "eval/memo_store.hpp"

namespace perfbench {

using autockt::eval::EvalBackend;
using autockt::eval::EvalResult;
using autockt::eval::EvalStats;
using autockt::eval::ParamVector;
using autockt::eval::SimHint;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Splits [start, stop] into nanoseconds with >= 1 call in flight and
/// nanoseconds with none. Both sums advance from the same transition
/// timestamps, so inflight + outside == stop - start exactly.
class InflightTimeline {
 public:
  void start() {
    std::lock_guard<std::mutex> lock(mu_);
    inflight_ = 0;
    inflight_ns_ = outside_ns_ = 0;
    start_ns_ = last_ns_ = now_ns();
  }
  void enter() {
    std::lock_guard<std::mutex> lock(mu_);
    const std::int64_t t = now_ns();
    if (inflight_++ == 0) {
      outside_ns_ += t - last_ns_;
      last_ns_ = t;
    }
  }
  void leave() {
    std::lock_guard<std::mutex> lock(mu_);
    const std::int64_t t = now_ns();
    if (--inflight_ == 0) {
      inflight_ns_ += t - last_ns_;
      last_ns_ = t;
    }
  }
  /// Closes the open interval; returns the phase length in ns.
  std::int64_t stop() {
    std::lock_guard<std::mutex> lock(mu_);
    const std::int64_t t = now_ns();
    (inflight_ > 0 ? inflight_ns_ : outside_ns_) += t - last_ns_;
    last_ns_ = t;
    return t - start_ns_;
  }
  std::int64_t inflight_ns() const { return inflight_ns_; }
  std::int64_t outside_ns() const { return outside_ns_; }

 private:
  std::mutex mu_;
  int inflight_ = 0;
  std::int64_t start_ns_ = 0;
  std::int64_t last_ns_ = 0;
  std::int64_t inflight_ns_ = 0;
  std::int64_t outside_ns_ = 0;
};

class EvalProbe : public EvalBackend {
 public:
  explicit EvalProbe(std::shared_ptr<EvalBackend> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return "probe(" + inner_->name() + ")"; }
  bool prefers_batch() const override { return inner_->prefers_batch(); }

  const std::shared_ptr<EvalBackend>& inner() const { return inner_; }
  InflightTimeline& timeline() { return timeline_; }
  long points() const { return points_.load(); }
  double busy_s() const { return static_cast<double>(busy_ns_.load()) * 1e-9; }
  /// Per-evaluate_batch latency samples in ms (call after the phase).
  std::vector<double> batch_ms() const {
    std::lock_guard<std::mutex> lock(samples_mu_);
    return batch_ms_;
  }

 protected:
  EvalResult do_evaluate(const ParamVector& params, SimHint* hint) override {
    const std::int64_t t0 = enter(1);
    EvalResult r = inner_->evaluate(params, hint);
    leave(t0, false);
    return r;
  }
  std::vector<EvalResult> do_evaluate_batch(
      const std::vector<ParamVector>& points,
      const std::vector<SimHint*>& hints) override {
    const std::int64_t t0 = enter(static_cast<long>(points.size()));
    std::vector<EvalResult> r = dispatch_batch(*inner_, points, hints);
    leave(t0, true);
    return r;
  }
  EvalStats inner_stats() const override { return inner_->stats(); }
  void reset_inner_stats() override { inner_->reset_stats(); }

 private:
  std::int64_t enter(long n) {
    points_.fetch_add(n, std::memory_order_relaxed);
    timeline_.enter();
    return now_ns();
  }
  void leave(std::int64_t t0, bool batch) {
    const std::int64_t dt = now_ns() - t0;
    timeline_.leave();
    busy_ns_.fetch_add(dt, std::memory_order_relaxed);
    if (batch) {
      std::lock_guard<std::mutex> lock(samples_mu_);
      batch_ms_.push_back(static_cast<double>(dt) * 1e-6);
    }
  }

  std::shared_ptr<EvalBackend> inner_;
  InflightTimeline timeline_;
  std::atomic<long> points_{0};
  std::atomic<std::int64_t> busy_ns_{0};
  mutable std::mutex samples_mu_;
  std::vector<double> batch_ms_;
};

class SimProbe : public EvalBackend {
 public:
  /// `sims_per_point` converts duplicate points into duplicate simulations
  /// (a PEX point costs one simulation per corner). `slowdown` > 1 spins
  /// after each leaf call for (slowdown - 1) x its duration.
  SimProbe(std::shared_ptr<EvalBackend> inner, long sims_per_point,
           double slowdown = 1.0)
      : inner_(std::move(inner)),
        sims_per_point_(sims_per_point),
        slowdown_(slowdown) {}

  std::string name() const override { return "simprobe(" + inner_->name() + ")"; }
  bool prefers_batch() const override { return inner_->prefers_batch(); }

  long points() const { return points_.load(); }
  long failed_points() const { return failed_.load(); }
  long dup_sims() const { return dup_points_.load() * sims_per_point_; }
  double busy_s() const { return static_cast<double>(busy_ns_.load()) * 1e-9; }

 protected:
  EvalResult do_evaluate(const ParamVector& params, SimHint* hint) override {
    note_keys(&params, 1);
    const std::int64_t t0 = now_ns();
    EvalResult r = inner_->evaluate(params, hint);
    finish(t0);
    if (!r.ok()) failed_.fetch_add(1, std::memory_order_relaxed);
    return r;
  }
  std::vector<EvalResult> do_evaluate_batch(
      const std::vector<ParamVector>& points,
      const std::vector<SimHint*>& hints) override {
    note_keys(points.data(), points.size());
    const std::int64_t t0 = now_ns();
    std::vector<EvalResult> r = dispatch_batch(*inner_, points, hints);
    finish(t0);
    const long bad = std::count_if(r.begin(), r.end(),
                                   [](const EvalResult& e) { return !e.ok(); });
    failed_.fetch_add(bad, std::memory_order_relaxed);
    return r;
  }
  EvalStats inner_stats() const override { return inner_->stats(); }
  void reset_inner_stats() override { inner_->reset_stats(); }

 private:
  /// Registers keys before they are evaluated, so a second concurrent
  /// miss on an in-flight key counts as a duplicate.
  void note_keys(const ParamVector* keys, std::size_t n) {
    points_.fetch_add(static_cast<long>(n), std::memory_order_relaxed);
    long dups = 0;
    {
      std::lock_guard<std::mutex> lock(seen_mu_);
      for (std::size_t i = 0; i < n; ++i) {
        if (!seen_.insert(keys[i]).second) ++dups;
      }
    }
    dup_points_.fetch_add(dups, std::memory_order_relaxed);
  }
  void finish(std::int64_t t0) {
    std::int64_t t1 = now_ns();
    if (slowdown_ > 1.0) {
      const auto extra =
          static_cast<std::int64_t>(static_cast<double>(t1 - t0) * (slowdown_ - 1.0));
      const std::int64_t until = t1 + extra;
      while ((t1 = now_ns()) < until) {
      }
    }
    busy_ns_.fetch_add(t1 - t0, std::memory_order_relaxed);
  }

  std::shared_ptr<EvalBackend> inner_;
  long sims_per_point_;
  double slowdown_;
  std::atomic<long> points_{0};
  std::atomic<long> failed_{0};
  std::atomic<long> dup_points_{0};
  std::atomic<std::int64_t> busy_ns_{0};
  std::mutex seen_mu_;
  std::unordered_set<ParamVector, autockt::eval::ParamVectorHash> seen_;
};

}  // namespace perfbench
