#pragma once
// Deck-defined sizing problems: compile a SPICE deck carrying .param/.spec/
// .measure sizing declarations (spice/netlist_parser.hpp) into a full
// SizingProblem — ParamDefs from the .param grids, SpecDefs from the .spec
// declarations, and an evaluator that instantiates the deck at each
// visited design point and runs the requested analyses through the shared
// lane pipeline (circuits/pipeline.hpp) with SimHint warm starts, behind
// the standard evaluation-backend stack from ProblemOptions.
//
// This is what turns scenario diversity from a code change into a file
// drop: any .cir deck with sizing declarations trains through the exact
// train_agent/deploy_agent pipeline the hand-written factories use.

#include <memory>
#include <string>

#include "circuits/problems.hpp"
#include "circuits/sizing_problem.hpp"
#include "spice/netlist_parser.hpp"
#include "util/expected.hpp"

namespace autockt::circuits {

/// Compile a parsed deck into a sizing problem. `name` keys the per-thread
/// simulation-workspace registry and names the problem; errors describe the
/// missing/invalid sizing declaration.
util::Expected<SizingProblem> make_netlist_problem(
    const spice::NetlistDeck& deck, const std::string& name,
    const ProblemOptions& options = {});

/// Parse + compile deck text in one step.
util::Expected<SizingProblem> make_netlist_problem_from_text(
    const std::string& deck_text, const std::string& name,
    const ProblemOptions& options = {});

/// Load a deck file; the problem is named after the file stem.
util::Expected<SizingProblem> make_netlist_problem_from_file(
    const std::string& path, const ProblemOptions& options = {});

/// Read and parse a deck file; parse errors are prefixed with the path.
/// Shared by make_netlist_problem_from_file and CircuitRegistry.
util::Expected<spice::NetlistDeck> load_deck(const std::string& path);

/// Scenario name for a deck path: the file stem ("a/b/five_t_ota.cir" ->
/// "five_t_ota").
std::string deck_scenario_name(const std::string& path);

/// Grid ParamDefs derived from a deck's .param declarations. Linear grids
/// carry physical values (start/step/end); log grids expose their integer
/// index space (0..steps-1) and the deck maps index -> physical value inside
/// the evaluator. Exposed for the dialect round-trip tests.
std::vector<ParamDef> netlist_param_defs(const spice::NetlistDeck& deck);

}  // namespace autockt::circuits
