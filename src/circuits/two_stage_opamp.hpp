#pragma once
// Two-stage Miller-compensated operational amplifier (paper Fig. 6) in the
// ptm45-like planar card.
//
// Stage 1: NMOS differential pair (M1/M2) with PMOS mirror load (M3/M4) and
// NMOS tail source (M5). Stage 2: PMOS common-source (M6) with NMOS current
// sink (M7). Bias: NMOS diode (M8) fed from a supply resistor; M5/M7 mirror
// it. Miller capacitor Cc couples the stages; fixed load capacitance.
//
// Paper action space: every transistor width in [1, 100, 1] * 0.5 um and
// Cc in [0.1, 10.0, 0.1] pF — 10^14 combinations with the six independent
// widths (pairs share a width). Specs: gain, UGBW, phase margin >= 60 deg,
// and bias current (minimized power proxy).
//
// Open-loop biasing uses the standard simulation servo: a huge RC feedback
// (1 GOhm / 10 uF) from output to the inverting input centers the DC
// operating point while leaving the AC response open-loop above ~1 Hz —
// exactly the practice an analog designer uses in Spectre.
//
// Evaluation runs through the shared lane pipeline (circuits/pipeline.hpp):
// DC, then AC; the specs are read off the AC measurements and the supply
// branch current.

#include "circuits/sizing_problem.hpp"
#include "pex/parasitics.hpp"
#include "spice/circuit.hpp"
#include "util/expected.hpp"

namespace autockt::circuits {

struct TwoStageParams {
  double w12 = 10e-6;  // input pair width (m)
  double w34 = 10e-6;  // mirror load width
  double w5 = 10e-6;   // tail width
  double w6 = 20e-6;   // second-stage PMOS width
  double w7 = 10e-6;   // output sink width
  double w8 = 5e-6;    // bias diode width
  double cc = 2e-12;   // Miller compensation (F)
};

struct OpampBuildOptions {
  const pex::ParasiticModel* parasitics = nullptr;
};

spice::Circuit build_two_stage(const TwoStageParams& params,
                               const spice::TechCard& card,
                               const OpampBuildOptions& options = {});

/// Characterizes K design points as lanes of one pipeline call (DC, then
/// AC). Each lane's specs are, in make_two_stage_problem() order, {gain
/// (V/V), UGBW (Hz), phase margin (deg), supply current (A)}; UGBW and
/// phase margin read 0 when the gain never crosses unity. Results do not
/// depend on K. `hints` may be empty or hold one (possibly null)
/// warm-start slot per design.
std::vector<util::Expected<SpecVector>> simulate_two_stage(
    const std::vector<TwoStageParams>& params, const spice::TechCard& card,
    const OpampBuildOptions& options = {},
    const std::vector<eval::OpHint*>& hints = {});

TwoStageParams two_stage_params_from_grid(const std::vector<ParamDef>& defs,
                                          const ParamVector& idx);

}  // namespace autockt::circuits
