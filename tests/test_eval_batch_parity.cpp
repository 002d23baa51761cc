// Batch-vs-scalar parity: the batched numeric kernel and everything built
// on it (lockstep DC Newton, batched AC/noise sweeps, batched problem
// evaluators, the VectorSizingEnv path) must return results identical to
// the scalar path — batching changes wall-clock, never values. These tests
// pin the serial-exact contract at every layer, including ragged batch
// sizes and lanes that fail the per-lane pivot check.

#include <gtest/gtest.h>

#include <complex>
#include <cstddef>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "circuits/netlist_problem.hpp"
#include "circuits/ngm_ota.hpp"
#include "circuits/problems.hpp"
#include "circuits/tia.hpp"
#include "circuits/two_stage_opamp.hpp"
#include "env/vector_env.hpp"
#include "eval/backend.hpp"
#include "linalg/sparse.hpp"
#include "linalg/sparse_lu.hpp"
#include "spice/ac.hpp"
#include "spice/dc.hpp"
#include "spice/noise.hpp"
#include "spice/workspace.hpp"
#include "util/rng.hpp"

using namespace autockt;
using autockt::util::Rng;

namespace {

// ---- linalg-level helpers (mirrors test_linalg.cpp's generator) -----------

struct SparseSystem {
  linalg::SparsePattern pattern;
  std::vector<std::pair<int, int>> coords;  // by slot
};

SparseSystem make_sparse_system(int n, double density, Rng& rng) {
  linalg::PatternBuilder b(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    b.add(static_cast<std::size_t>(r), static_cast<std::size_t>(r));
    for (int c = 0; c < n; ++c) {
      if (c != r && rng.uniform(0.0, 1.0) < density) {
        b.add(static_cast<std::size_t>(r), static_cast<std::size_t>(c));
      }
    }
  }
  SparseSystem sys{linalg::SparsePattern(std::move(b)), {}};
  sys.coords.resize(sys.pattern.nnz());
  for (std::size_t s = 0; s < sys.pattern.nnz(); ++s) {
    sys.coords[s] = {sys.pattern.row_of_slot(s), sys.pattern.col_of_slot(s)};
  }
  return sys;
}

template <typename T>
std::vector<T> random_values(const SparseSystem& sys, int n, Rng& rng) {
  std::vector<T> vals(sys.pattern.nnz());
  for (std::size_t s = 0; s < sys.pattern.nnz(); ++s) {
    const auto [r, c] = sys.coords[s];
    double v = rng.uniform(-1.0, 1.0);
    if (r == c) v += static_cast<double>(n);
    if constexpr (std::is_same_v<T, std::complex<double>>) {
      vals[s] = {v, rng.uniform(-1.0, 1.0)};
    } else {
      vals[s] = v;
    }
  }
  return vals;
}

}  // namespace

// ---- SparseLuNumericBatch vs SparseLuNumeric: bitwise -----------------------

class BatchLuParity : public ::testing::TestWithParam<int> {};

TEST_P(BatchLuParity, RefactorAndSolvesMatchScalarBitwise) {
  const int K = GetParam();  // ragged lane counts, incl. non-powers-of-2
  const int n = 17;
  Rng rng(9000 + static_cast<std::uint64_t>(K));
  SparseSystem sys = make_sparse_system(n, 0.3, rng);
  linalg::SparseLuSymbolic symbolic(sys.pattern, sys.pattern.weak());
  ASSERT_TRUE(symbolic.ok());

  const std::size_t nnz = sys.pattern.nnz();
  const std::size_t N = static_cast<std::size_t>(n);
  const std::size_t lanes = static_cast<std::size_t>(K);

  // Per-lane value sets, interleaved into the SoA layout the batch expects.
  std::vector<std::vector<double>> lane_vals;
  std::vector<double> soa_vals(nnz * lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    lane_vals.push_back(random_values<double>(sys, n, rng));
    for (std::size_t s = 0; s < nnz; ++s) {
      soa_vals[s * lanes + l] = lane_vals[l][s];
    }
  }
  std::vector<double> rhs(N), soa_rhs(N * lanes);
  for (std::size_t i = 0; i < N; ++i) {
    rhs[i] = rng.uniform(-2.0, 2.0);
    for (std::size_t l = 0; l < lanes; ++l) soa_rhs[i * lanes + l] = rhs[i];
  }

  linalg::SparseLuNumericBatch<double> batch(symbolic, lanes);
  std::vector<unsigned char> lane_ok(lanes, 0);
  batch.refactor(soa_vals.data(), lane_ok.data());

  linalg::SparseLuNumeric<double> scalar(symbolic);
  std::vector<double> x(N), xt(N), bx(N * lanes), bxt(N * lanes);
  batch.solve(soa_rhs.data(), bx.data());
  batch.solve_transposed(soa_rhs.data(), bxt.data());
  for (std::size_t l = 0; l < lanes; ++l) {
    ASSERT_TRUE(scalar.refactor(lane_vals[l].data())) << "lane " << l;
    EXPECT_EQ(lane_ok[l], 1) << "lane " << l;
    scalar.solve(rhs.data(), x.data());
    scalar.solve_transposed(rhs.data(), xt.data());
    for (std::size_t i = 0; i < N; ++i) {
      // Bitwise: the batch replays the same elimination program with the
      // same per-lane operand order the scalar kernel uses.
      EXPECT_EQ(bx[i * lanes + l], x[i]) << "lane " << l << " row " << i;
      EXPECT_EQ(bxt[i * lanes + l], xt[i]) << "lane " << l << " row " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(LaneCounts, BatchLuParity,
                         ::testing::Values(1, 3, 7, 16));

TEST(BatchLuParity, ComplexLanesMatchScalarBitwise) {
  using C = std::complex<double>;
  const int n = 11;
  const std::size_t lanes = 5;
  Rng rng(9100);
  SparseSystem sys = make_sparse_system(n, 0.35, rng);
  linalg::SparseLuSymbolic symbolic(sys.pattern, sys.pattern.weak());
  ASSERT_TRUE(symbolic.ok());
  const std::size_t nnz = sys.pattern.nnz();
  const std::size_t N = static_cast<std::size_t>(n);

  std::vector<std::vector<C>> lane_vals;
  std::vector<C> soa_vals(nnz * lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    lane_vals.push_back(random_values<C>(sys, n, rng));
    for (std::size_t s = 0; s < nnz; ++s) {
      soa_vals[s * lanes + l] = lane_vals[l][s];
    }
  }
  std::vector<C> rhs(N), soa_rhs(N * lanes);
  for (std::size_t i = 0; i < N; ++i) {
    rhs[i] = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
    for (std::size_t l = 0; l < lanes; ++l) soa_rhs[i * lanes + l] = rhs[i];
  }

  linalg::SparseLuNumericBatch<C> batch(symbolic, lanes);
  std::vector<unsigned char> lane_ok(lanes, 0);
  batch.refactor(soa_vals.data(), lane_ok.data());
  std::vector<C> bx(N * lanes), bxt(N * lanes);
  batch.solve(soa_rhs.data(), bx.data());
  batch.solve_transposed(soa_rhs.data(), bxt.data());

  linalg::SparseLuNumeric<C> scalar(symbolic);
  std::vector<C> x(N), xt(N);
  for (std::size_t l = 0; l < lanes; ++l) {
    ASSERT_TRUE(scalar.refactor(lane_vals[l].data()));
    EXPECT_EQ(lane_ok[l], 1);
    scalar.solve(rhs.data(), x.data());
    scalar.solve_transposed(rhs.data(), xt.data());
    for (std::size_t i = 0; i < N; ++i) {
      EXPECT_EQ(bx[i * lanes + l], x[i]);
      EXPECT_EQ(bxt[i * lanes + l], xt[i]);
    }
  }
}

TEST(BatchLuParity, SingularLaneFailsAloneAndLeavesOthersBitwise) {
  // Lane 1 of 3 carries a numerically rank-1 matrix: its pivot check must
  // fail exactly as the scalar kernel's does, without perturbing the
  // healthy lanes (the mixed-lane guarded update path).
  const int n = 6;
  const std::size_t lanes = 3;
  Rng rng(9200);
  SparseSystem sys = make_sparse_system(n, 0.4, rng);
  linalg::SparseLuSymbolic symbolic(sys.pattern, sys.pattern.weak());
  ASSERT_TRUE(symbolic.ok());
  const std::size_t nnz = sys.pattern.nnz();
  const std::size_t N = static_cast<std::size_t>(n);

  std::vector<std::vector<double>> lane_vals(lanes);
  lane_vals[0] = random_values<double>(sys, n, rng);
  lane_vals[1].assign(nnz, 0.0);  // all-zero matrix: structurally fine,
                                  // numerically singular in every pivot
  lane_vals[2] = random_values<double>(sys, n, rng);
  std::vector<double> soa_vals(nnz * lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    for (std::size_t s = 0; s < nnz; ++s) {
      soa_vals[s * lanes + l] = lane_vals[l][s];
    }
  }
  std::vector<double> rhs(N), soa_rhs(N * lanes);
  for (std::size_t i = 0; i < N; ++i) {
    rhs[i] = rng.uniform(-2.0, 2.0);
    for (std::size_t l = 0; l < lanes; ++l) soa_rhs[i * lanes + l] = rhs[i];
  }

  linalg::SparseLuNumericBatch<double> batch(symbolic, lanes);
  std::vector<unsigned char> lane_ok(lanes, 2);
  batch.refactor(soa_vals.data(), lane_ok.data());
  EXPECT_EQ(lane_ok[0], 1);
  EXPECT_EQ(lane_ok[1], 0);
  EXPECT_EQ(lane_ok[2], 1);

  std::vector<double> bx(N * lanes);
  batch.solve(soa_rhs.data(), bx.data());
  linalg::SparseLuNumeric<double> scalar(symbolic);
  std::vector<double> x(N);
  for (const std::size_t l : {std::size_t{0}, std::size_t{2}}) {
    ASSERT_TRUE(scalar.refactor(lane_vals[l].data()));
    scalar.solve(rhs.data(), x.data());
    for (std::size_t i = 0; i < N; ++i) {
      EXPECT_EQ(bx[i * lanes + l], x[i]) << "lane " << l << " row " << i;
    }
  }
  EXPECT_FALSE(scalar.refactor(lane_vals[1].data()));
}

// ---- circuit-level: K lanes vs one lane per design --------------------------

namespace {

using SpecResults = std::vector<util::Expected<eval::SpecVector>>;

/// Same outcome and, on success, bitwise-equal specs.
void expect_same_lane(const util::Expected<eval::SpecVector>& batch,
                      const util::Expected<eval::SpecVector>& one,
                      const std::string& what) {
  ASSERT_EQ(batch.ok(), one.ok()) << what;
  if (!batch.ok()) {
    EXPECT_EQ(batch.error().message, one.error().message) << what;
    return;
  }
  ASSERT_EQ(batch->size(), one->size()) << what;
  for (std::size_t i = 0; i < one->size(); ++i) {
    EXPECT_EQ((*batch)[i], (*one)[i]) << what << " spec " << i;
  }
}

/// simulate(params) over K lanes against simulate({p}) per design, for
/// ragged K; make(l) builds lane l's design.
template <typename Simulate, typename Make>
void expect_lane_parity(const std::string& label, Simulate simulate,
                        Make make) {
  for (const int K : {1, 3, 16}) {
    std::vector<decltype(make(0))> params;
    params.reserve(static_cast<std::size_t>(K));
    for (int l = 0; l < K; ++l) params.push_back(make(l));
    const SpecResults batch = simulate(params);
    ASSERT_EQ(batch.size(), static_cast<std::size_t>(K));
    for (std::size_t l = 0; l < params.size(); ++l) {
      const SpecResults one = simulate({params[l]});
      ASSERT_EQ(one.size(), 1u);
      expect_same_lane(batch[l], one[0],
                       label + " K=" + std::to_string(K) + " lane " +
                           std::to_string(l));
    }
  }
}

}  // namespace

TEST(BatchSimParity, TwoStageMatchesScalarBitwiseAcrossRaggedK) {
  const spice::TechCard card = spice::TechCard::ptm45();
  const auto make = [](int l) {
    circuits::TwoStageParams p;  // perturb around the defaults
    p.w12 = (10.0 + static_cast<double>(l % 5)) * 1e-6;
    p.w6 = (30.0 + 2.0 * static_cast<double>(l % 7)) * 1e-6;
    p.cc = (0.6 + 0.05 * static_cast<double>(l % 4)) * 1e-12;
    return p;
  };
  const auto simulate = [&](const std::vector<circuits::TwoStageParams>& p) {
    return circuits::simulate_two_stage(p, card);
  };
  expect_lane_parity("two_stage", simulate, make);
}

TEST(BatchSimParity, NgmOtaMatchesScalarBitwise) {
  const spice::TechCard card = spice::TechCard::finfet16();
  const auto make = [](int l) {
    circuits::NgmParams p;
    p.nf_in = 20 + 4 * (l % 3);
    p.nf_cross = 6 + 2 * (l % 2);
    p.cc = (0.4 + 0.1 * static_cast<double>(l % 4)) * 1e-12;
    return p;
  };
  const auto simulate = [&](const std::vector<circuits::NgmParams>& p) {
    return circuits::simulate_ngm_ota(p, card);
  };
  expect_lane_parity("ngm", simulate, make);
}

TEST(BatchSimParity, TiaMatchesScalarBitwise) {
  const spice::TechCard card = spice::TechCard::ptm45();
  const auto make = [](int l) {
    circuits::TiaParams p;
    p.wn = (4.0 + 2.0 * static_cast<double>(l % 3)) * 1e-6;
    p.n_series = 4 + 2 * (l % 4);
    p.n_parallel = 1 + (l % 3);
    return p;
  };
  const auto simulate = [&](const std::vector<circuits::TiaParams>& p) {
    return circuits::simulate_tia(p, card);
  };
  expect_lane_parity("tia", simulate, make);
}

TEST(BatchSimParity, BatchedKernelsMatchScalarKernelsBitwise) {
  // The lane pipeline runs every stage on the batched kernels, one lane
  // included; the scalar kernels (characterize, netlist_cli) must agree
  // with them bit for bit. TIA lanes exercise DC, AC and noise.
  const spice::TechCard card = spice::TechCard::ptm45();
  std::vector<spice::Circuit> ckts;
  for (int l = 0; l < 3; ++l) {
    circuits::TiaParams p;
    p.wn = (4.0 + 2.0 * static_cast<double>(l)) * 1e-6;
    p.n_series = 4 + 2 * l;
    ckts.push_back(circuits::build_tia(p, card));
  }
  spice::SimWorkspace& ws = spice::workspace_for(ckts[0], "tia_kernel_parity");
  std::vector<const spice::Circuit*> ptrs;
  std::vector<spice::DcOptions> dc(ckts.size());
  for (std::size_t l = 0; l < ckts.size(); ++l) {
    ptrs.push_back(&ckts[l]);
    std::vector<double> v(ckts[l].num_nodes(), 0.0);
    v[ckts[l].node("vdd")] = card.vdd;
    v[ckts[l].node("in")] = card.vdd / 2.0;
    v[ckts[l].node("out")] = card.vdd / 2.0;
    dc[l].initial_node_v = v;
    dc[l].workspace = &ws;
  }
  const spice::NodeId out = ckts[0].node("out");
  spice::AcOptions ac;
  ac.workspace = &ws;
  spice::NoiseOptions nz;
  nz.f_start = 1e3;
  nz.f_stop = 1e10;
  nz.points_per_decade = 4;
  nz.workspace = &ws;

  const auto ops = spice::solve_op_batch(ptrs, dc, ws);
  std::vector<const spice::OpPoint*> op_ptrs;
  for (std::size_t l = 0; l < ckts.size(); ++l) {
    ASSERT_TRUE(ops[l].ok()) << "lane " << l;
    op_ptrs.push_back(&*ops[l]);
  }
  const auto sweeps =
      spice::ac_sweep_batch(ptrs, op_ptrs, out, spice::kGround, ac, ws);
  const auto noises =
      spice::noise_sweep_batch(ptrs, op_ptrs, out, spice::kGround, nz, ws);
  for (std::size_t l = 0; l < ckts.size(); ++l) {
    const auto op = spice::solve_op(ckts[l], dc[l]);
    ASSERT_TRUE(op.ok()) << "lane " << l;
    EXPECT_EQ(op->node_v, ops[l]->node_v) << "lane " << l;
    EXPECT_EQ(op->branch_i, ops[l]->branch_i) << "lane " << l;

    const auto sweep = spice::ac_sweep(ckts[l], *op, out, spice::kGround, ac);
    ASSERT_TRUE(sweep.ok() && sweeps[l].ok()) << "lane " << l;
    ASSERT_EQ(sweep->size(), sweeps[l]->size()) << "lane " << l;
    for (std::size_t f = 0; f < sweep->size(); ++f) {
      EXPECT_EQ((*sweep)[f].freq, (*sweeps[l])[f].freq) << "lane " << l;
      EXPECT_EQ((*sweep)[f].value, (*sweeps[l])[f].value) << "lane " << l;
    }

    const auto noise =
        spice::noise_sweep(ckts[l], *op, out, spice::kGround, nz);
    ASSERT_TRUE(noise.ok() && noises[l].ok()) << "lane " << l;
    EXPECT_EQ(noise->freq, noises[l]->freq) << "lane " << l;
    EXPECT_EQ(noise->out_psd, noises[l]->out_psd) << "lane " << l;
    EXPECT_EQ(noise->total_output_v2, noises[l]->total_output_v2)
        << "lane " << l;
  }
}

// ---- problem-level: evaluate() per point vs evaluate_batch() ----------------

namespace {

/// Raw serial stacks (no cache, no pool) so every evaluate() and
/// evaluate_batch() reaches the leaf: one point is a one-lane pipeline
/// call, a batch is K lanes of one call.
circuits::ProblemOptions lean_options() {
  circuits::ProblemOptions o;
  o.cache = false;
  o.parallel_batch = false;
  o.parallel_corners = false;
  return o;
}

std::vector<eval::ParamVector> center_batch(
    const circuits::SizingProblem& prob, int K) {
  std::vector<eval::ParamVector> points;
  for (int l = 0; l < K; ++l) {
    eval::ParamVector idx;
    for (std::size_t p = 0; p < prob.params.size(); ++p) {
      const int g = prob.params[p].grid_size();
      int v = g / 2 + (l % 3) - 1 + static_cast<int>(p) * (l % 2);
      if (v < 0) v = 0;
      if (v >= g) v = g - 1;
      idx.push_back(v);
    }
    points.push_back(std::move(idx));
  }
  return points;
}

/// evaluate_batch(points) against evaluate(point) for each point; returns
/// the batch results.
SpecResults expect_problem_batch_parity(
    const circuits::SizingProblem& prob,
    const std::vector<eval::ParamVector>& points, const std::string& what) {
  const SpecResults via_batch = prob.backend->evaluate_batch(points);
  EXPECT_EQ(via_batch.size(), points.size()) << what;
  for (std::size_t l = 0; l < points.size() && l < via_batch.size(); ++l) {
    expect_same_lane(via_batch[l], prob.evaluate(points[l]),
                     what + " lane " + std::to_string(l));
  }
  return via_batch;
}

}  // namespace

TEST(BatchProblemParity, BuiltinProblems) {
  for (const auto& prob : {circuits::make_tia_problem(lean_options()),
                           circuits::make_two_stage_problem(lean_options()),
                           circuits::make_ngm_problem(lean_options())}) {
    expect_problem_batch_parity(prob, center_batch(prob, 5), prob.name);
  }
  // The PEX leaf is the corner fan-out, one lane per corner; the contract
  // (same values either way) must still hold.
  const auto pex = circuits::make_ngm_pex_problem(lean_options());
  expect_problem_batch_parity(pex, center_batch(pex, 2), pex.name);
}

TEST(BatchProblemParity, ShippedDecks) {
  const std::string dir = std::string(AUTOCKT_SOURCE_DIR) + "/examples/decks";
  for (const char* deck :
       {"rc_buffer.cir", "common_source.cir", "five_t_ota.cir"}) {
    auto prob = circuits::make_netlist_problem_from_file(dir + "/" + deck,
                                                         lean_options());
    ASSERT_TRUE(prob.ok()) << deck << ": " << prob.error().message;
    expect_problem_batch_parity(*prob, center_batch(*prob, 6), deck);
  }
}

TEST(BatchProblemParity, DeckBatchWithMixedOutcomes) {
  // The shipped RC buffer with its load resistor swept through zero: the
  // grid {-500, 0, 500, 1000, 1500} Ohm passes lint (the default instance
  // is the 500 Ohm centre), but the first two points cannot instantiate.
  // One batch then mixes failed and simulated lanes, and each lane must
  // match its own per-point evaluation.
  std::ifstream in(std::string(AUTOCKT_SOURCE_DIR) +
                   "/examples/decks/rc_buffer.cir");
  ASSERT_TRUE(in.good());
  std::stringstream text;
  text << in.rdbuf();
  std::string deck = text.str();
  const std::string load = "rload out mid 500";
  ASSERT_NE(deck.find(load), std::string::npos);
  deck.replace(deck.find(load), load.size(), "rload out mid {rl}");
  deck.insert(deck.find("vsup "), ".param rl -500 1500 5\n");

  auto prob =
      circuits::make_netlist_problem_from_text(deck, "mixed", lean_options());
  ASSERT_TRUE(prob.ok()) << prob.error().message;
  ASSERT_EQ(prob->params.back().name, "rl");
  eval::ParamVector center = prob->center_params();
  std::vector<eval::ParamVector> points;
  for (int rl = 0; rl < 5; ++rl) {
    center.back() = rl;
    points.push_back(center);
  }
  const SpecResults batch = expect_problem_batch_parity(*prob, points, "mixed");
  ASSERT_EQ(batch.size(), 5u);
  for (std::size_t l = 0; l < 5; ++l) {
    ASSERT_EQ(batch[l].ok(), l >= 2) << "lane " << l;
    if (l < 2) {
      EXPECT_NE(batch[l].error().message.find("resistance must be positive"),
                std::string::npos)
          << batch[l].error().message;
    }
  }
}

// ---- env-level: VectorSizingEnv lockstep equivalence ------------------------

namespace {

/// Evaluates one point at a time through the leaf's evaluate() (one lane)
/// and inherits the serial-loop evaluate_batch().
class PerPointBackend : public eval::EvalBackend {
 public:
  explicit PerPointBackend(std::shared_ptr<eval::EvalBackend> leaf)
      : leaf_(std::move(leaf)) {}
  std::string name() const override { return "per_point"; }

 protected:
  eval::EvalResult do_evaluate(const eval::ParamVector& params,
                               eval::SimHint* hint) override {
    return leaf_->evaluate(params, hint);
  }

 private:
  std::shared_ptr<eval::EvalBackend> leaf_;
};

}  // namespace

TEST(BatchEnvParity, VectorEnvTicksMatchScalarBackendBitwise) {
  // Same seeds, same targets, same scripted actions: an env whose ticks
  // reach the leaf as K-lane batches must emit bitwise-identical
  // trajectories to one whose ticks loop over one-lane evaluations.
  auto batched = std::make_shared<const circuits::SizingProblem>(
      circuits::make_two_stage_problem(lean_options()));
  circuits::SizingProblem per_point = *batched;
  per_point.backend = std::make_shared<PerPointBackend>(batched->backend);
  auto scalar =
      std::make_shared<const circuits::SizingProblem>(std::move(per_point));

  env::EnvConfig config;
  config.horizon = 4;
  const int lanes = 4;
  env::VectorSizingEnv venv_b(batched, config, lanes);
  env::VectorSizingEnv venv_s(scalar, config, lanes);
  venv_b.seed_lanes(424242);
  venv_s.seed_lanes(424242);

  const auto obs_b = venv_b.reset_all();
  const auto obs_s = venv_s.reset_all();
  ASSERT_EQ(obs_b.size(), obs_s.size());
  for (std::size_t i = 0; i < obs_b.size(); ++i) {
    EXPECT_EQ(obs_b[i], obs_s[i]) << "reset lane " << i;
  }

  Rng action_rng(31);
  for (int tick = 0; tick < config.horizon; ++tick) {
    std::vector<std::vector<int>> actions(static_cast<std::size_t>(lanes));
    for (auto& a : actions) {
      a.assign(static_cast<std::size_t>(venv_b.num_params()), 0);
      for (int& v : a) v = static_cast<int>(action_rng.bounded(3));
    }
    const auto rb = venv_b.step_all(actions, [](int) { return false; });
    const auto rs = venv_s.step_all(actions, [](int) { return false; });
    for (int i = 0; i < lanes; ++i) {
      const auto& lb = rb[static_cast<std::size_t>(i)];
      const auto& ls = rs[static_cast<std::size_t>(i)];
      EXPECT_EQ(lb.obs, ls.obs) << "tick " << tick << " lane " << i;
      EXPECT_EQ(lb.reward, ls.reward);
      EXPECT_EQ(lb.done, ls.done);
      EXPECT_EQ(lb.goal_met, ls.goal_met);
    }
  }
}
