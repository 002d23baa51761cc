#include "circuits/tia.hpp"

#include <algorithm>
#include <cmath>

#include "circuits/pipeline.hpp"
#include "spice/measure.hpp"
#include "spice/transient.hpp"
#include "spice/units.hpp"

namespace autockt::circuits {

namespace {
constexpr double kPhotodiodeCap = 50e-15;  // F
constexpr double kLoadCap = 15e-15;        // F
constexpr double kStepCurrent = 5e-6;      // A input step for settling
constexpr double kChannelLengthFactor = 2.0;  // drawn L = 2 * l_min
// Settling reported when the transient window ends before the output
// demonstrably settles. Equal to the maximum window (and the spec's fail
// value), so a still-ringing design can never out-score one that settled.
constexpr double kUnsettledPenalty = 3e-8;  // s

// AC sweep stop frequency; also the cutoff reported when no -3 dB point
// falls inside the sweep.
constexpr double kAcStop = 1e11;  // Hz

std::vector<double> tia_initial_node_v(const spice::Circuit& ckt,
                                       const spice::TechCard& card) {
  std::vector<double> v(ckt.num_nodes(), 0.0);
  v[ckt.node("vdd")] = card.vdd;
  v[ckt.node("in")] = card.vdd / 2.0;
  v[ckt.node("out")] = card.vdd / 2.0;
  return v;
}

/// One lane's specs: cutoff and input noise from the AC and noise sweeps,
/// then the transient step-response settling measurement around the
/// converged op point, its window scaled from the lane's own small-signal
/// bandwidth (which is why this stage runs per lane).
util::Expected<SpecVector> tia_specs(const TiaParams& params,
                                     const spice::TechCard& card,
                                     const TiaBuildOptions& options,
                                     const LaneMeasurements& m) {
  using namespace spice;
  const double cutoff_freq = m.ac.f3db_found ? m.ac.f3db : kAcStop;
  // Input-referred current noise times the feedback resistance gives the
  // paper's Vrms-equivalent input noise figure (1 A AC stimulus, so the DC
  // gain is the transimpedance in Ohms).
  const double z_dc = std::max(m.ac.dc_gain, 1.0);
  const double noise_in = m.noise_vrms * params.feedback_resistance() / z_dc;

  // Window scaled from the small-signal bandwidth so slow and fast designs
  // are both resolved with ~0.25% time granularity.
  const double f_bw = std::clamp(cutoff_freq, 1e7, 1e11);
  const double t_window = std::clamp(10.0 / f_bw, 2e-10, 3e-8);
  const double t_edge = 0.1 * t_window;

  // Same netlist rebuilt with the stepped input source (devices are
  // immutable, so the transient stimulus needs its own build). Because it
  // is the same build function, the structure — and hence the workspace's
  // frozen pattern — matches by construction.
  const Waveform step_wave =
      Waveform::step(0.0, kStepCurrent, t_edge, t_window / 2000.0);
  TiaBuildOptions step_options = options;
  step_options.input_stimulus = &step_wave;
  Circuit step_ckt = build_tia(params, card, step_options);

  TranOptions tr_opt;
  tr_opt.workspace = &m.ws;  // step_ckt shares the topology (and pattern)
  tr_opt.t_stop = t_window;
  tr_opt.dt = t_window / 400.0;
  auto tran = transient(step_ckt, m.op, {step_ckt.node("out")}, tr_opt);
  if (!tran.ok()) return tran.error();
  const SettlingResult settle =
      measure_settling(tran->time, tran->waveforms[0], 0.02);
  // The output was still moving at the window end: the measured instant is
  // only a lower bound. Report the penalty instead of crediting the design
  // with a (possibly tiny) truncated window length.
  double settling = kUnsettledPenalty;
  if (settle.settled) settling = std::max(settle.time - t_edge, tr_opt.dt);
  return SpecVector{settling, cutoff_freq, noise_in};
}
}  // namespace

spice::Circuit build_tia(const TiaParams& params, const spice::TechCard& card,
                         const TiaBuildOptions& options) {
  using namespace spice;
  Circuit ckt;
  const NodeId vdd = ckt.add_node("vdd");
  const NodeId in = ckt.add_node("in");
  const NodeId out = ckt.add_node("out");

  ckt.add<VoltageSource>("vsupply", vdd, kGround,
                         Waveform::constant(card.vdd));

  // Photodiode: signal current injected into `in` plus junction capacitance.
  // The default stimulus is DC 0 with unit AC magnitude; the transient
  // settling run passes a step waveform whose edge fires late enough for
  // the window to capture the pre-edge baseline.
  ckt.add<CurrentSource>("iin", kGround, in,
                         options.input_stimulus != nullptr
                             ? *options.input_stimulus
                             : Waveform::constant(0.0),
                         /*ac_mag=*/1.0);
  ckt.add<Capacitor>("cpd", in, kGround, kPhotodiodeCap);

  const double l = kChannelLengthFactor * card.l_min;
  ckt.add<Mosfet>("mn", out, in, kGround, kGround, MosType::Nmos,
                  MosGeom{params.wn, l, params.mn}, card);
  ckt.add<Mosfet>("mp", out, in, vdd, vdd, MosType::Pmos,
                  MosGeom{params.wp, l, params.mp}, card);

  ckt.add<Resistor>("rf", in, out, params.feedback_resistance());
  ckt.add<Capacitor>("cl", out, kGround, kLoadCap);

  if (options.parasitics != nullptr) {
    const pex::ParasiticModel& pm = *options.parasitics;
    const double w_in = params.wn * params.mn + params.wp * params.mp;
    ckt.add<Capacitor>("cpex_in", in, kGround,
                       pm.net_cap(w_in, pex::ParasiticModel::net_key(
                                              "tia", "in")));
    ckt.add<Capacitor>("cpex_out", out, kGround,
                       pm.net_cap(w_in, pex::ParasiticModel::net_key(
                                              "tia", "out")));
  }
  return ckt;
}

std::vector<util::Expected<SpecVector>> simulate_tia(
    const std::vector<TiaParams>& params, const spice::TechCard& card,
    const TiaBuildOptions& options, const std::vector<eval::OpHint*>& hints) {
  using namespace spice;
  std::vector<Circuit> circuits;
  circuits.reserve(params.size());
  std::vector<util::Expected<SimLane>> lanes;
  lanes.reserve(params.size());
  for (const TiaParams& p : params) {
    const Circuit& ckt = circuits.emplace_back(build_tia(p, card, options));
    lanes.push_back(SimLane{&ckt, tia_initial_node_v(ckt, card)});
  }

  // One workspace per (thread, topology), shared by the DC solve, the AC
  // and noise sweeps, and the transient run (whose step-stimulus rebuild
  // has the identical structure).
  SimPlan plan;
  plan.workspace_key = options.parasitics != nullptr ? "tia_pex" : "tia";
  plan.ac.emplace();
  plan.ac->f_start = 1e5;
  plan.ac->f_stop = kAcStop;
  plan.ac->points_per_decade = 10;
  plan.noise.emplace();
  plan.noise->f_start = 1e3;
  plan.noise->f_stop = 1e10;
  plan.noise->points_per_decade = 4;
  if (!circuits.empty()) {
    plan.ac_probe = plan.noise_probe = circuits.front().node("out");
  }

  const auto finish = [&](std::size_t l, const LaneMeasurements& m) {
    return tia_specs(params[l], card, options, m);
  };
  return simulate_lanes(lanes, plan, hints, finish);
}

TiaParams tia_params_from_grid(const std::vector<ParamDef>& defs,
                               const ParamVector& idx) {
  TiaParams p;
  p.wn = defs[0].value(idx[0]) * 1e-6;
  p.mn = static_cast<int>(defs[1].value(idx[1]));
  p.wp = defs[2].value(idx[2]) * 1e-6;
  p.mp = static_cast<int>(defs[3].value(idx[3]));
  p.n_series = static_cast<int>(defs[4].value(idx[4]));
  p.n_parallel = static_cast<int>(defs[5].value(idx[5]));
  return p;
}

}  // namespace autockt::circuits
