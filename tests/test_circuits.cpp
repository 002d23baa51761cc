// Integration tests for the three paper topologies: biasing sanity,
// measurement ranges, monotonic design trends and the PEX overlay. These
// run real DC/AC/transient/noise analyses, so each case is a full (but
// sub-millisecond) circuit simulation.

#include <gtest/gtest.h>

#include "circuits/ngm_ota.hpp"
#include "circuits/problems.hpp"
#include "circuits/tia.hpp"
#include "circuits/two_stage_opamp.hpp"
#include "spice/dc.hpp"
#include "util/rng.hpp"

using namespace autockt;
using namespace autockt::circuits;

// Spec positions in each simulate_* result (the problem factories' order).
constexpr std::size_t kTiaSettling = 0, kTiaCutoff = 1;
constexpr std::size_t kGain = 0, kUgbw = 1, kPhaseMargin = 2, kBias = 3;

// ---------------------------------------------------------------- TIA

TEST(Tia, FeedbackResistanceLadder) {
  TiaParams p;
  p.n_series = 4;
  p.n_parallel = 2;
  EXPECT_DOUBLE_EQ(p.feedback_resistance(), 5.6e3 * 4 / 2);
}

TEST(Tia, CenterDesignMeasuresSanely) {
  const auto prob = make_tia_problem();
  auto specs = prob.evaluate(prob.center_params());
  ASSERT_TRUE(specs.ok());
  const double settling = (*specs)[0];
  const double cutoff = (*specs)[1];
  const double noise = (*specs)[2];
  EXPECT_GT(settling, 1e-11);
  EXPECT_LT(settling, 1e-7);
  EXPECT_GT(cutoff, 1e7);
  EXPECT_LT(cutoff, 1e11);
  EXPECT_GT(noise, 1e-6);
  EXPECT_LT(noise, 1e-2);
}

TEST(Tia, LargerFeedbackResistorLowersCutoff) {
  const auto card = spice::TechCard::ptm45();
  TiaParams small_rf;
  small_rf.n_series = 2;
  small_rf.n_parallel = 10;
  TiaParams big_rf = small_rf;
  big_rf.n_series = 20;
  big_rf.n_parallel = 1;
  const auto res = simulate_tia({small_rf, big_rf}, card);
  ASSERT_TRUE(res[0].ok());
  ASSERT_TRUE(res[1].ok());
  const SpecVector& fast = *res[0];
  const SpecVector& slow = *res[1];
  EXPECT_GT(fast[kTiaCutoff], slow[kTiaCutoff]);
  EXPECT_LT(fast[kTiaSettling], slow[kTiaSettling]);
}

TEST(Tia, SettlingTracksBandwidthInversely) {
  const auto card = spice::TechCard::ptm45();
  TiaParams p;
  const auto res = simulate_tia({p}, card);
  ASSERT_TRUE(res[0].ok());
  // tau ~ 1/(2 pi f3db); 2% settling ~ 4 tau. Allow a factor-5 window —
  // this is a closed-loop, possibly peaked response.
  const double tau = 1.0 / (2.0 * 3.14159265 * (*res[0])[kTiaCutoff]);
  EXPECT_GT((*res[0])[kTiaSettling], 0.5 * tau);
  EXPECT_LT((*res[0])[kTiaSettling], 40.0 * tau);
}

TEST(Tia, SelfBiasNearMidRail) {
  const auto card = spice::TechCard::ptm45();
  TiaParams p;
  auto ckt = build_tia(p, card);
  spice::DcOptions opt;
  opt.initial_node_v.assign(ckt.num_nodes(), 0.5 * card.vdd);
  opt.initial_node_v[0] = 0.0;
  opt.initial_node_v[ckt.node("vdd")] = card.vdd;
  auto op = spice::solve_op(ckt, opt);
  ASSERT_TRUE(op.ok());
  // Resistive feedback forces input == output == inverter trip point.
  EXPECT_NEAR(op->voltage(ckt.node("in")), op->voltage(ckt.node("out")),
              1e-3);
  EXPECT_GT(op->voltage(ckt.node("out")), 0.2 * card.vdd);
  EXPECT_LT(op->voltage(ckt.node("out")), 0.8 * card.vdd);
}

TEST(Tia, PexOverlayDegradesBandwidth) {
  const auto card = spice::TechCard::ptm45();
  pex::ParasiticModel pm;
  pm.cap_fixed = 20e-15;
  pm.cap_per_width = 5e-9;
  TiaParams p;
  TiaBuildOptions options;
  options.parasitics = &pm;
  const auto nominal = simulate_tia({p}, card)[0];
  const auto loaded = simulate_tia({p}, card, options)[0];
  ASSERT_TRUE(nominal.ok());
  ASSERT_TRUE(loaded.ok());
  EXPECT_LT((*loaded)[kTiaCutoff], (*nominal)[kTiaCutoff]);
}

TEST(Tia, GridMappingMatchesParamDefs) {
  const auto prob = make_tia_problem();
  const auto p = tia_params_from_grid(prob.params, {0, 0, 4, 15, 9, 19});
  EXPECT_DOUBLE_EQ(p.wn, 2e-6);
  EXPECT_EQ(p.mn, 2);
  EXPECT_DOUBLE_EQ(p.wp, 10e-6);
  EXPECT_EQ(p.mp, 32);
  EXPECT_EQ(p.n_series, 20);
  EXPECT_EQ(p.n_parallel, 20);
}

// ------------------------------------------------------ Two-stage op-amp

TEST(TwoStage, CenterDesignBiasesAndMeasures) {
  const auto prob = make_two_stage_problem();
  auto specs = prob.evaluate(prob.center_params());
  ASSERT_TRUE(specs.ok());
  EXPECT_GT((*specs)[0], 100.0);    // healthy gain
  EXPECT_GT((*specs)[1], 1e6);      // UGBW found
  EXPECT_GT((*specs)[2], 0.0);      // phase margin measured
  EXPECT_GT((*specs)[3], 1e-5);     // bias current flows
  EXPECT_LT((*specs)[3], 1e-2);
}

TEST(TwoStage, ServoCentersOutput) {
  const auto card = spice::TechCard::ptm45();
  TwoStageParams p;
  auto ckt = build_two_stage(p, card);
  spice::DcOptions opt;
  opt.initial_node_v.assign(ckt.num_nodes(), 0.5);
  opt.initial_node_v[0] = 0.0;
  opt.initial_node_v[ckt.node("vdd")] = card.vdd;
  opt.initial_node_v[ckt.node("d1")] = 0.65 * card.vdd;
  opt.initial_node_v[ckt.node("out1")] = 0.65 * card.vdd;
  opt.initial_node_v[ckt.node("tail")] = 0.2 * card.vdd;
  auto op = spice::solve_op(ckt, opt);
  ASSERT_TRUE(op.ok());
  EXPECT_NEAR(op->voltage(ckt.node("out")), 0.55 * card.vdd, 1e-4);
}

TEST(TwoStage, MoreCompensationLowersUgbw) {
  const auto card = spice::TechCard::ptm45();
  TwoStageParams small_cc;
  small_cc.cc = 0.3e-12;
  TwoStageParams big_cc;
  big_cc.cc = 2.5e-12;
  const auto res = simulate_two_stage({small_cc, big_cc}, card);
  ASSERT_TRUE(res[0].ok());
  ASSERT_TRUE(res[1].ok());
  const SpecVector& fast = *res[0];
  const SpecVector& slow = *res[1];
  ASSERT_GT(fast[kUgbw], 0.0);  // 0 means no unity-gain crossing
  ASSERT_GT(slow[kUgbw], 0.0);
  EXPECT_GT(fast[kUgbw], slow[kUgbw]);
  // And Miller compensation buys phase margin.
  EXPECT_GT(slow[kPhaseMargin], fast[kPhaseMargin]);
}

TEST(TwoStage, WiderBiasDiodeLowersCurrent) {
  const auto card = spice::TechCard::ptm45();
  TwoStageParams narrow;
  narrow.w8 = 2e-6;
  TwoStageParams wide = narrow;
  wide.w8 = 20e-6;
  const auto res = simulate_two_stage({narrow, wide}, card);
  ASSERT_TRUE(res[0].ok());
  ASSERT_TRUE(res[1].ok());
  // Wider diode -> lower Vgs8 -> slightly higher reference current, but
  // mirrored tail/sink currents scale with W5/W8 and W7/W8, so shrink.
  EXPECT_LT((*res[1])[kBias], (*res[0])[kBias]);
}

TEST(TwoStage, GridMappingUsesPerDeviceUnits) {
  const auto prob = make_two_stage_problem();
  const auto p = two_stage_params_from_grid(
      prob.params, {0, 0, 0, 0, 0, 0, 0});
  EXPECT_NEAR(p.w12, 0.25e-6, 1e-12);
  EXPECT_NEAR(p.w34, 0.05e-6, 1e-12);
  EXPECT_NEAR(p.cc, 0.02e-12, 1e-18);
}

TEST(TwoStage, PexOverlayAddsLoadCaps) {
  const auto card = spice::TechCard::ptm45();
  pex::ParasiticModel pm;
  pm.cap_fixed = 30e-15;
  pm.cap_per_width = 1e-8;
  TwoStageParams p;
  OpampBuildOptions options;
  options.parasitics = &pm;
  const auto nominal = simulate_two_stage({p}, card)[0];
  const auto loaded = simulate_two_stage({p}, card, options)[0];
  ASSERT_TRUE(nominal.ok());
  ASSERT_TRUE(loaded.ok());
  ASSERT_GT((*nominal)[kUgbw], 0.0);
  ASSERT_GT((*loaded)[kUgbw], 0.0);
  EXPECT_LT((*loaded)[kUgbw], (*nominal)[kUgbw] * 1.001);
}

// ------------------------------------------------------- Negative-gm OTA

TEST(NgmOta, CenterDesignIsAlive) {
  const auto prob = make_ngm_problem();
  auto specs = prob.evaluate(prob.center_params());
  ASSERT_TRUE(specs.ok());
  EXPECT_GT((*specs)[0], 1.0);   // gain above unity
  EXPECT_GT((*specs)[1], 1e7);   // UGBW in a plausible band
  EXPECT_GT((*specs)[2], 0.0);   // phase margin measured
}

TEST(NgmOta, CrossCouplingBoostsGain) {
  const auto card = spice::TechCard::finfet16();
  NgmParams weak;
  weak.nf_cross = 2;
  NgmParams strong = weak;
  strong.nf_cross = 24;  // still below nf_diode: no latch
  weak.nf_diode = strong.nf_diode = 40;
  const auto res = simulate_ngm_ota({weak, strong}, card);
  ASSERT_TRUE(res[0].ok());
  ASSERT_TRUE(res[1].ok());
  EXPECT_GT((*res[1])[kGain], (*res[0])[kGain]);
}

TEST(NgmOta, OversizedCrossPairKillsTheAmplifier) {
  const auto card = spice::TechCard::finfet16();
  NgmParams latch;
  latch.nf_diode = 22;
  latch.nf_cross = 40;  // gm_cross > gm_diode: positive-feedback latch
  const auto res = simulate_ngm_ota({latch}, card)[0];
  ASSERT_TRUE(res.ok());
  EXPECT_LT((*res)[kGain], 5.0);  // railed/latched first stage has no gain
}

TEST(NgmOta, QuantizedWidthsUseFinCounts) {
  const auto prob = make_ngm_problem();
  const auto p = ngm_params_from_grid(prob.params, {1, 1, 1, 1, 1, 1, 1});
  EXPECT_EQ(p.nf_in, 2);      // grid [1,100,1] -> idx 1 = 2 fins
  EXPECT_EQ(p.nf_diode, 24);  // grid [22,80,2]
  EXPECT_NEAR(p.cc, 0.2e-12, 1e-18);
}

TEST(NgmOta, PexWorstCaseDegradesSpecs) {
  const auto schematic = make_ngm_problem();
  const auto pex = make_ngm_pex_problem();
  const auto center = schematic.center_params();
  auto sch = schematic.evaluate(center);
  auto px = pex.evaluate(center);
  ASSERT_TRUE(sch.ok());
  ASSERT_TRUE(px.ok());
  // Worst-case PVT + parasitics can only lower gain/UGBW (GreaterEq fold).
  EXPECT_LE((*px)[0], (*sch)[0] * 1.02);
  EXPECT_LE((*px)[1], (*sch)[1] * 1.02);
}

TEST(NgmOta, PexEvaluationIsDeterministic) {
  const auto pex = make_ngm_pex_problem();
  const auto center = pex.center_params();
  auto a = pex.evaluate(center);
  auto b = pex.evaluate(center);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
}

// ------------------------------------------------------ cross-topology

TEST(Problems, EvaluateIsDeterministicEverywhere) {
  for (const auto& prob :
       {make_tia_problem(), make_two_stage_problem(), make_ngm_problem()}) {
    const auto center = prob.center_params();
    auto a = prob.evaluate(center);
    auto b = prob.evaluate(center);
    ASSERT_TRUE(a.ok()) << prob.name;
    EXPECT_EQ(*a, *b) << prob.name;
  }
}

TEST(Problems, RandomGridPointsProduceFiniteSpecs) {
  util::Rng rng(123);
  for (const auto& prob :
       {make_tia_problem(), make_two_stage_problem(), make_ngm_problem()}) {
    for (int rep = 0; rep < 5; ++rep) {
      ParamVector p;
      for (const auto& def : prob.params) {
        p.push_back(static_cast<int>(
            rng.bounded(static_cast<std::uint64_t>(def.grid_size()))));
      }
      auto specs = prob.evaluate(p);
      if (!specs.ok()) continue;  // explicit failure is allowed
      for (double v : *specs) {
        EXPECT_TRUE(std::isfinite(v)) << prob.name;
      }
    }
  }
}
