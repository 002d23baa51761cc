#include "circuits/pipeline.hpp"

#include "spice/dc.hpp"

namespace autockt::circuits {

std::vector<util::Expected<SpecVector>> simulate_lanes(
    const std::vector<util::Expected<SimLane>>& lanes, const SimPlan& plan,
    const std::vector<eval::OpHint*>& hints, const LaneFinish& finish) {
  using namespace spice;
  const std::size_t K = lanes.size();
  std::vector<util::Expected<SpecVector>> results(K, SpecVector{});
  const auto hint_of = [&](std::size_t l) -> eval::OpHint* {
    return l < hints.size() ? hints[l] : nullptr;
  };

  std::vector<std::size_t> live;  // lane index per DC slot
  std::vector<const Circuit*> ckts;
  for (std::size_t l = 0; l < K; ++l) {
    if (!lanes[l].ok()) {
      results[l] = lanes[l].error();
      continue;
    }
    live.push_back(l);
    ckts.push_back(lanes[l]->circuit);
  }
  if (live.empty()) return results;
  SimWorkspace& ws = workspace_for(*ckts.front(), plan.workspace_key);

  // ---- warm start + DC ----------------------------------------------------
  std::vector<DcOptions> dc_opts(live.size());
  std::vector<OpPoint> warm(live.size());  // must outlive the solves
  for (std::size_t s = 0; s < live.size(); ++s) {
    const eval::OpHint* hint = hint_of(live[s]);
    dc_opts[s].initial_node_v = lanes[live[s]]->initial_node_v;
    if (hint != nullptr && hint->valid) {
      warm[s].node_v = hint->node_v;
      warm[s].branch_i = hint->branch_i;
      dc_opts[s].warm_start = &warm[s];
    }
  }
  const std::vector<util::Expected<OpPoint>> ops =
      solve_op_batch(ckts, dc_opts, ws);

  // Lanes that fail DC keep their error and take no AC/noise lane.
  std::vector<std::size_t> ok;  // lane index per sweep slot
  std::vector<const Circuit*> ok_ckts;
  std::vector<const OpPoint*> ok_ops;
  for (std::size_t s = 0; s < live.size(); ++s) {
    const std::size_t l = live[s];
    if (!ops[s].ok()) {
      results[l] = ops[s].error();
      continue;
    }
    if (eval::OpHint* hint = hint_of(l); hint != nullptr) {
      hint->node_v = ops[s]->node_v;
      hint->branch_i = ops[s]->branch_i;
      hint->valid = true;
    }
    ok.push_back(l);
    ok_ckts.push_back(ckts[s]);
    ok_ops.push_back(&*ops[s]);
  }
  if (ok.empty()) return results;

  // ---- AC and noise sweeps ------------------------------------------------
  std::vector<util::Expected<std::vector<AcPoint>>> sweeps;
  if (plan.ac) {
    sweeps =
        ac_sweep_batch(ok_ckts, ok_ops, plan.ac_probe, kGround, *plan.ac, ws);
  }
  std::vector<util::Expected<NoiseResult>> noises;
  if (plan.noise) {
    noises = noise_sweep_batch(ok_ckts, ok_ops, plan.noise_probe, kGround,
                               *plan.noise, ws);
  }

  // ---- finish -------------------------------------------------------------
  for (std::size_t s = 0; s < ok.size(); ++s) {
    const std::size_t l = ok[s];
    AcMeasurements acm;
    if (plan.ac) {
      if (!sweeps[s].ok()) {
        results[l] = sweeps[s].error();
        continue;
      }
      acm = measure_ac(*sweeps[s]);
    }
    double noise_vrms = 0.0;
    if (plan.noise) {
      if (!noises[s].ok()) {
        results[l] = noises[s].error();
        continue;
      }
      noise_vrms = noises[s]->total_output_vrms();
    }
    results[l] = finish(l, LaneMeasurements{*ok_ops[s], acm, noise_vrms, ws});
  }
  return results;
}

}  // namespace autockt::circuits
