#pragma once
// The one circuit-evaluation pipeline. Every problem leaf (the TIA,
// two-stage and NGM simulators and the deck-compiled evaluator)
// instantiates K design points of one topology and hands them here, and
// each lane runs
//
//   warm start -> DC -> AC -> noise -> finish
//
// through one per-(thread, topology) workspace and the batched kernels
// (solve_op_batch / ac_sweep_batch / noise_sweep_batch), one lane
// included. Those kernels are bitwise serial-exact (docs/DESIGN.md
// section 12), so the lane count changes throughput, never a result.
//
// Warm starts follow the eval::OpHint contract: a valid hint is the DC
// Newton stage-0 guess; a converged lane refreshes its hint, a failed one
// leaves it untouched so the next evaluation warm-starts from the last
// good operating point.

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "circuits/sizing_problem.hpp"
#include "eval/types.hpp"
#include "spice/ac.hpp"
#include "spice/circuit.hpp"
#include "spice/measure.hpp"
#include "spice/noise.hpp"
#include "spice/workspace.hpp"
#include "util/expected.hpp"

namespace autockt::circuits {

/// One instantiated design point: its circuit (owned by the caller) and
/// the DC Newton initial node voltages.
struct SimLane {
  const spice::Circuit* circuit = nullptr;
  std::vector<double> initial_node_v;
};

/// The analyses every lane of one call runs after DC. Probes are measured
/// against ground.
struct SimPlan {
  std::string workspace_key;  // spice::workspace_for topology key
  std::optional<spice::AcOptions> ac;
  spice::NodeId ac_probe = spice::kGround;
  std::optional<spice::NoiseOptions> noise;
  spice::NodeId noise_probe = spice::kGround;
};

/// What a lane that passed DC and every planned sweep hands to `finish`.
struct LaneMeasurements {
  const spice::OpPoint& op;
  const spice::AcMeasurements& ac;  // default-constructed without plan.ac
  double noise_vrms;                // 0 without plan.noise
  spice::SimWorkspace& ws;          // for lane-local follow-up analyses
};

/// Turns one lane's measurements into its spec vector (problem order).
using LaneFinish = std::function<util::Expected<SpecVector>(
    std::size_t lane, const LaneMeasurements&)>;

/// Runs the pipeline over `lanes`. A lane that failed to instantiate, or
/// fails DC, AC or noise, keeps that error and skips the later stages; the
/// rest reach `finish`. `hints` may be empty or hold one (possibly null)
/// warm-start slot per lane.
std::vector<util::Expected<SpecVector>> simulate_lanes(
    const std::vector<util::Expected<SimLane>>& lanes, const SimPlan& plan,
    const std::vector<eval::OpHint*>& hints, const LaneFinish& finish);

}  // namespace autockt::circuits
