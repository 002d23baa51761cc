// Text-deck front end to the simulator: parse a SPICE-dialect netlist and
// run whatever analyses it requests (.op, .ac, .tran, .noise).
//
// Usage: netlist_cli <deck.sp>
//        netlist_cli --demo        (runs a built-in RC + inverter demo deck)
//        netlist_cli <deck.cir> --characterize [--cache <dir>] [--workers N]
//
// --characterize treats a sizing deck (.param/.spec/.measure declarations)
// as a full SizingProblem and evaluates its grid centre through the same
// backend stack the trainer uses — including the persistent on-disk eval
// cache (--cache) and the forked evaluation workers (--workers).

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "circuits/netlist_problem.hpp"
#include "spice/ac.hpp"
#include "spice/dc.hpp"
#include "spice/measure.hpp"
#include "spice/netlist_parser.hpp"
#include "util/cli.hpp"

using namespace autockt;
using namespace autockt::spice;

namespace {

const char* kDemoDeck = R"(
.title demo: ptm45 inverter driving an RC load
.card ptm45
vdd vdd 0 dc 1.2
vin in 0 dc 0.60 ac 1 step 0.2 1.0 1n 0.05n
mn  out in 0   0   nmos w=2u  l=90n
mp  out in vdd vdd pmos w=4u  l=90n
rl  out mid 1k
cl  mid 0 50f
.op
.ac out 1k 100g 10
.tran out 5n 10p
.noise out 1k 1g
.end
)";

}  // namespace

int main(int argc, char** argv) {
  util::CliArgs args(argc, argv);
  std::string text;
  if (args.get_bool("demo") || args.positional().empty()) {
    std::printf("(running built-in demo deck; pass a file path to simulate "
                "your own)\n");
    text = kDemoDeck;
  } else {
    std::ifstream in(args.positional()[0]);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", args.positional()[0].c_str());
      return 1;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    text = buf.str();
  }

  if (args.get_bool("characterize")) {
    circuits::ProblemOptions options;
    options.cache_path = args.get("cache", "");
    options.eval_workers =
        static_cast<std::size_t>(args.get_int("workers", 0));
    const std::string name =
        args.positional().empty()
            ? "demo"
            : std::filesystem::path(args.positional()[0]).stem().string();
    auto prob = circuits::make_netlist_problem_from_text(text, name, options);
    if (!prob.ok()) {
      std::fprintf(stderr, "%s\n", prob.error().message.c_str());
      return 1;
    }
    auto specs = prob->evaluate(prob->center_params());
    if (!specs.ok()) {
      std::fprintf(stderr, "grid-centre evaluation failed: %s\n",
                   specs.error().message.c_str());
      return 1;
    }
    std::printf("%s grid centre:\n", prob->name.c_str());
    for (std::size_t i = 0; i < prob->specs.size(); ++i) {
      std::printf("  %-18s = %.6g\n", prob->specs[i].name.c_str(),
                  (*specs)[i]);
    }
    std::printf("eval stats: %s\n", prob->eval_stats().summary().c_str());
    return 0;
  }

  auto parsed = parse_netlist(text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "parse error: %s\n", parsed.error().message.c_str());
    return 1;
  }
  ParsedNetlist& deck = *parsed;
  if (!deck.title.empty()) std::printf("title: %s\n", deck.title.c_str());
  std::printf("%zu nodes, %zu devices\n\n", deck.circuit.num_nodes() - 1,
              deck.circuit.devices().size());

  DcOptions dc_opt;
  dc_opt.initial_node_v = deck.initial_node_voltages();
  auto op = solve_op(deck.circuit, dc_opt);
  if (!op.ok()) {
    std::fprintf(stderr, "DC failed: %s\n", op.error().message.c_str());
    return 1;
  }
  if (deck.want_op) {
    std::printf(".op results:\n");
    for (NodeId n = 1; n < deck.circuit.num_nodes(); ++n) {
      std::printf("  V(node %zu) = %.6f V\n", n, op->voltage(n));
    }
    for (std::size_t b = 0; b < op->branch_i.size(); ++b) {
      std::printf("  I(branch %zu) = %.6g A\n", b, op->branch_i[b]);
    }
    std::printf("\n");
  }

  for (const auto& req : deck.ac) {
    auto sweep = ac_sweep(deck.circuit, *op, deck.circuit.node(req.probe),
                          kGround, req.options);
    if (!sweep.ok()) {
      std::fprintf(stderr, ".ac failed: %s\n", sweep.error().message.c_str());
      continue;
    }
    const auto m = measure_ac(*sweep);
    std::printf(".ac %s: dc_gain=%.4g", req.probe.c_str(), m.dc_gain);
    if (m.f3db_found) std::printf("  f3db=%.4g Hz", m.f3db);
    if (m.ugbw_found) {
      std::printf("  ugbw=%.4g Hz  pm=%.2f deg", m.ugbw, m.phase_margin_deg);
    }
    std::printf("\n");
  }

  for (const auto& req : deck.tran) {
    auto tran = transient(deck.circuit, *op, {deck.circuit.node(req.probe)},
                          req.options);
    if (!tran.ok()) {
      std::fprintf(stderr, ".tran failed: %s\n", tran.error().message.c_str());
      continue;
    }
    const SettlingResult ts =
        measure_settling(tran->time, tran->waveforms[0]);
    std::printf(".tran %s: %zu points, v(start)=%.4f v(end)=%.4f ",
                req.probe.c_str(), tran->time.size(),
                tran->waveforms[0].front(), tran->waveforms[0].back());
    // A window that ends while the waveform still moves has no settling
    // time: measure_settling's time is then only where the run stopped.
    if (ts.settled) {
      std::printf("settling=%.4g s\n", ts.time);
    } else {
      std::printf("settling=unsettled\n");
    }
  }

  for (const auto& req : deck.noise) {
    auto noise = noise_sweep(deck.circuit, *op,
                             deck.circuit.node(req.probe), kGround,
                             req.options);
    if (!noise.ok()) {
      std::fprintf(stderr, ".noise failed: %s\n",
                   noise.error().message.c_str());
      continue;
    }
    std::printf(".noise %s: integrated output noise %.4g Vrms\n",
                req.probe.c_str(), noise->total_output_vrms());
  }
  return 0;
}
