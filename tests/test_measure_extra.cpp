// Additional property and edge-case coverage for measurement extraction and
// environment observation normalization — the places where subtle sign or
// unwrapping bugs would silently corrupt every experiment downstream.

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <memory>

#include "circuits/problems.hpp"
#include "env/sizing_env.hpp"
#include "spice/measure.hpp"
#include "spice/units.hpp"
#include "test_helpers.hpp"

using namespace autockt;
using namespace autockt::spice;

namespace {

/// Synthesize a log-spaced sweep of an n-pole low-pass with DC gain a0 and
/// identical poles at f_p, optionally with a 180-degree DC inversion.
std::vector<AcPoint> synth_sweep(double a0, double f_pole, int n_poles,
                                 bool inverting, double f_start = 1e2,
                                 double f_stop = 1e11, int ppd = 20) {
  std::vector<AcPoint> sweep;
  const double decades = std::log10(f_stop / f_start);
  const int total = static_cast<int>(decades * ppd) + 1;
  for (int i = 0; i < total; ++i) {
    const double f = f_start * std::pow(10.0, decades * i / (total - 1));
    std::complex<double> h(a0, 0.0);
    if (inverting) h = -h;
    for (int p = 0; p < n_poles; ++p) {
      h /= std::complex<double>(1.0, f / f_pole);
    }
    sweep.push_back({f, h});
  }
  return sweep;
}

}  // namespace

TEST(MeasureExtra, SinglePoleUgbwEqualsGbw) {
  // One-pole: UGBW = a0 * f_pole, PM = 90 + atan-ish correction.
  const auto sweep = synth_sweep(100.0, 1e6, 1, false);
  const auto m = measure_ac(sweep);
  ASSERT_TRUE(m.ugbw_found);
  EXPECT_NEAR(m.ugbw, 100.0 * 1e6, 0.02 * 100.0 * 1e6);
  EXPECT_NEAR(m.phase_margin_deg, 90.0, 2.0);
  ASSERT_TRUE(m.f3db_found);
  EXPECT_NEAR(m.f3db, 1e6, 0.02e6);
}

TEST(MeasureExtra, InvertingAmpMeasuresSamePhaseMargin) {
  // The 180-degree DC phase of an inverting amplifier must not corrupt the
  // phase-margin reference.
  const auto pos = measure_ac(synth_sweep(100.0, 1e6, 1, false));
  const auto neg = measure_ac(synth_sweep(100.0, 1e6, 1, true));
  ASSERT_TRUE(pos.ugbw_found);
  ASSERT_TRUE(neg.ugbw_found);
  EXPECT_NEAR(pos.phase_margin_deg, neg.phase_margin_deg, 0.5);
  EXPECT_NEAR(pos.ugbw, neg.ugbw, pos.ugbw * 1e-6);
}

TEST(MeasureExtra, TwoPoleLowersPhaseMargin) {
  // Two coincident poles at UGBW/10: phase margin collapses toward zero.
  const auto one = measure_ac(synth_sweep(100.0, 1e6, 1, false));
  const auto two = measure_ac(synth_sweep(100.0, 1e6, 2, false));
  ASSERT_TRUE(one.ugbw_found);
  ASSERT_TRUE(two.ugbw_found);
  EXPECT_LT(two.phase_margin_deg, one.phase_margin_deg - 30.0);
  EXPECT_LT(two.ugbw, one.ugbw);  // second pole pulls the crossing in
}

TEST(MeasureExtra, ThreePoleCanGoNegativePm) {
  const auto m = measure_ac(synth_sweep(1000.0, 1e5, 3, false));
  ASSERT_TRUE(m.ugbw_found);
  EXPECT_LT(m.phase_margin_deg, 0.0);  // unstable if the loop were closed
}

TEST(MeasureExtra, UnityGainAmpHasNoCrossing) {
  const auto m = measure_ac(synth_sweep(0.99, 1e6, 1, false));
  EXPECT_FALSE(m.ugbw_found);
  EXPECT_NEAR(m.dc_gain, 0.99, 1e-6);
}

TEST(MeasureExtra, EmptyAndTinySweepsAreSafe) {
  EXPECT_FALSE(measure_ac({}).ugbw_found);
  std::vector<AcPoint> one{{1e3, {2.0, 0.0}}};
  const auto m = measure_ac(one);
  EXPECT_FALSE(m.ugbw_found);
  EXPECT_FALSE(m.f3db_found);
}

TEST(MeasureExtra, SettlingDetectsOvershootReentry) {
  // A waveform that enters the band, leaves, and re-enters must report the
  // final entry time.
  std::vector<double> time, wave;
  for (int i = 0; i <= 1000; ++i) {
    const double t = i / 1000.0;
    double v = 1.0;
    if (t < 0.2) {
      v = t / 0.2;  // ramp
    } else if (t > 0.5 && t < 0.55) {
      v = 1.1;  // late excursion outside the 2% band
    }
    time.push_back(t);
    wave.push_back(v);
  }
  const double ts = measure_settling(time, wave, 0.02).time;
  EXPECT_GT(ts, 0.5);
  EXPECT_LT(ts, 0.6);
}

// ---- settling trust flag (never-settled vs settled-at-the-end) ----------

TEST(MeasureExtra, SettlingFlagsTruncatedWindowAsUnsettled) {
  // A waveform still slewing at the window end: `time` alone reads as a
  // "settling time" near the window length (or shorter — the band is drawn
  // around the truncated final sample), crediting a design that never
  // settled. The flag must be false.
  std::vector<double> time, wave;
  for (int i = 0; i <= 1000; ++i) {
    const double t = i / 1000.0;
    time.push_back(t);
    wave.push_back(t);  // pure ramp: never reaches a final value
  }
  const auto r = measure_settling(time, wave, 0.02);
  EXPECT_FALSE(r.settled);
}

TEST(MeasureExtra, SettlingFlagsLateRingingAsUnsettled) {
  // Rings until (almost) the end: exits the 2% band in the final 2% of the
  // window, so no dwell is demonstrated.
  std::vector<double> time, wave;
  for (int i = 0; i <= 1000; ++i) {
    const double t = i / 1000.0;
    time.push_back(t);
    wave.push_back(1.0 + 0.2 * std::cos(2.0 * kPi * 25.5 * t));
  }
  const auto r = measure_settling(time, wave, 0.02);
  EXPECT_FALSE(r.settled);
}

TEST(MeasureExtra, SettlingAcceptsEarlySettleWithDwell) {
  // Settles at 20% of the window and stays: flag true, instant preserved.
  std::vector<double> time, wave;
  for (int i = 0; i <= 1000; ++i) {
    const double t = i / 1000.0;
    time.push_back(t);
    wave.push_back(t < 0.2 ? t / 0.2 : 1.0);
  }
  const auto r = measure_settling(time, wave, 0.02);
  EXPECT_TRUE(r.settled);
  EXPECT_NEAR(r.time, 0.196, 0.005);
}

TEST(MeasureExtra, FlatWaveIsTriviallySettled) {
  std::vector<double> time{0.0, 1.0, 2.0};
  std::vector<double> wave{1.0, 1.0, 1.0};
  const auto r = measure_settling(time, wave, 0.02);
  EXPECT_TRUE(r.settled);
  EXPECT_DOUBLE_EQ(r.time, 0.0);
}

// ---- peak-referenced -3 dB and degenerate crossing interpolation --------

namespace {

/// Two-pole band-pass-ish response: |H| rises from a0 at DC to a resonant
/// peak near f_res, then falls. Reproduces the "peak > DC gain" shape the
/// DC-referenced -3 dB search mismeasured.
std::vector<AcPoint> synth_peaked_sweep(double a0, double f_res, double q,
                                        double f_start = 1e3,
                                        double f_stop = 1e11, int ppd = 40) {
  std::vector<AcPoint> sweep;
  const double decades = std::log10(f_stop / f_start);
  const int total = static_cast<int>(decades * ppd) + 1;
  for (int i = 0; i < total; ++i) {
    const double f = f_start * std::pow(10.0, decades * i / (total - 1));
    const double s = f / f_res;  // normalized jw
    // H = a0 / (1 + jw/(Q w0) - w^2/w0^2): classic resonant low-pass.
    const std::complex<double> den(1.0 - s * s, s / q);
    sweep.push_back({f, a0 / den});
  }
  return sweep;
}

}  // namespace

TEST(MeasureExtra, PeakedResponseReferencesCutoffToPeak) {
  // Q = 5 resonance: peak ~ 5x the DC gain. The -3 dB level must derive
  // from the peak, and the crossing must sit just above the resonance —
  // for Q >> 1 the peak band is narrow, f3db ~ f_res * (1 + 1/(2Q)).
  const double a0 = 10.0, f_res = 1e7, q = 5.0;
  const auto sweep = synth_peaked_sweep(a0, f_res, q);
  const auto m = measure_ac(sweep);
  EXPECT_NEAR(m.peak_gain, a0 * q, 0.05 * a0 * q);
  ASSERT_TRUE(m.f3db_found);
  EXPECT_GT(m.f3db, f_res);
  EXPECT_LT(m.f3db, 1.3 * f_res);
  // Regression: the DC-referenced level a0/sqrt(2) sits below the DC gain
  // itself, so the old search reported the far roll-off skirt (several
  // times f_res) as the "bandwidth".
  EXPECT_LT(m.f3db, 2.0 * f_res);
}

TEST(MeasureExtra, MonotoneResponseUnchangedByPeakReference) {
  // For a monotone-from-DC low-pass the peak IS the DC point, so the
  // peak-referenced search must reproduce the classic result.
  const auto sweep = synth_sweep(100.0, 1e6, 1, false);
  const auto m = measure_ac(sweep);
  EXPECT_DOUBLE_EQ(m.peak_gain, m.dc_gain);
  ASSERT_TRUE(m.f3db_found);
  EXPECT_NEAR(m.f3db, 1e6, 0.02e6);
}

TEST(MeasureExtra, NonMonotonicDipBeforePeakIgnored) {
  // A dip below the -3 dB level BEFORE the peak is not the bandwidth edge;
  // the search starts at the peak.
  std::vector<AcPoint> sweep;
  const double freqs[] = {1e3, 1e4, 1e5, 1e6, 1e7, 1e8};
  const double mags[] = {8.0, 2.0, 9.0, 10.0, 9.0, 0.5};
  for (int i = 0; i < 6; ++i) {
    sweep.push_back({freqs[i], std::complex<double>(mags[i], 0.0)});
  }
  const auto m = measure_ac(sweep);
  ASSERT_TRUE(m.f3db_found);
  // Peak 10 at 1e6; level 7.07; crossing between 1e7 (9.0) and 1e8 (0.5),
  // NOT at the early 8.0 -> 2.0 dip.
  EXPECT_GT(m.f3db, 1e7);
  EXPECT_LT(m.f3db, 1e8);
}

TEST(MeasureExtra, CrossingInterpolatesFlatInLogSegments) {
  // Exactly flat segment at the level: no unique crossing exists; the
  // geometric midpoint is the unbiased answer (the old code snapped to the
  // left endpoint).
  std::vector<AcPoint> flat{{1e6, {1.0, 0.0}}, {1e8, {1.0, 0.0}}};
  EXPECT_DOUBLE_EQ(ac_crossing_freq(flat, 0, 1.0), 1e7);

  // Magnitudes indistinguishable after the log clamp (both under 1e-30):
  // linear-in-magnitude interpolation must still land between the samples
  // according to the level, not at the left endpoint.
  std::vector<AcPoint> tiny{{1e6, {8e-31, 0.0}}, {1e8, {2e-31, 0.0}}};
  const double f = ac_crossing_freq(tiny, 0, 5e-31);
  EXPECT_GT(f, 1e6);
  EXPECT_LT(f, 1e8);
  EXPECT_NEAR(std::log10(f), 7.0, 1.0);
}

// ---- environment observation normalization ------------------------------

TEST(ObsNormalization, MatchesLookupFormula) {
  auto prob = std::make_shared<const circuits::SizingProblem>(
      test_support::make_synthetic_problem(2, 11));
  env::SizingEnv sizing_env(prob, env::EnvConfig{});
  sizing_env.set_target({10.5, 4.8, 1.4});
  const auto obs = sizing_env.reset();

  const auto& specs = prob->specs;
  const auto cur = sizing_env.cur_specs();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_NEAR(obs[i], circuits::lookup_norm(cur[i], specs[i].norm_const),
                1e-12);
    EXPECT_NEAR(obs[specs.size() + i],
                circuits::lookup_norm(sizing_env.target()[i],
                                      specs[i].norm_const),
                1e-12);
  }
}

TEST(ObsNormalization, ParamBlockSpansMinusOneToOne) {
  auto prob = std::make_shared<const circuits::SizingProblem>(
      test_support::make_synthetic_problem(2, 11));
  env::SizingEnv sizing_env(prob, env::EnvConfig{});
  sizing_env.reset();
  // Drive both params to the bottom, then the top.
  for (int i = 0; i < 12; ++i) sizing_env.step({0, 0});
  auto obs = sizing_env.step({1, 1}).obs;
  EXPECT_NEAR(obs[obs.size() - 2], -1.0, 1e-12);
  EXPECT_NEAR(obs[obs.size() - 1], -1.0, 1e-12);
}

// ---- boundary robustness of the real problems ---------------------------

TEST(BoundaryRobustness, TiaGridCornersEvaluate) {
  const auto prob = circuits::make_tia_problem();
  circuits::ParamVector lo, hi;
  for (const auto& def : prob.params) {
    lo.push_back(0);
    hi.push_back(def.grid_size() - 1);
  }
  EXPECT_TRUE(prob.evaluate(lo).ok());
  EXPECT_TRUE(prob.evaluate(hi).ok());
}

TEST(BoundaryRobustness, TwoStageGridCornersEvaluate) {
  const auto prob = circuits::make_two_stage_problem();
  circuits::ParamVector lo, hi;
  for (const auto& def : prob.params) {
    lo.push_back(0);
    hi.push_back(def.grid_size() - 1);
  }
  // Corner designs may be terrible circuits, but evaluation must either
  // succeed or fail explicitly — never crash or hang.
  auto a = prob.evaluate(lo);
  auto b = prob.evaluate(hi);
  if (a.ok()) {
    for (double v : *a) EXPECT_TRUE(std::isfinite(v));
  }
  if (b.ok()) {
    for (double v : *b) EXPECT_TRUE(std::isfinite(v));
  }
}

TEST(BoundaryRobustness, NgmGridCornersEvaluate) {
  const auto prob = circuits::make_ngm_problem();
  circuits::ParamVector lo, hi;
  for (const auto& def : prob.params) {
    lo.push_back(0);
    hi.push_back(def.grid_size() - 1);
  }
  auto a = prob.evaluate(lo);
  auto b = prob.evaluate(hi);
  if (a.ok()) {
    for (double v : *a) EXPECT_TRUE(std::isfinite(v));
  }
  if (b.ok()) {
    for (double v : *b) EXPECT_TRUE(std::isfinite(v));
  }
}
