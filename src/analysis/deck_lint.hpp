#pragma once
// Sizing-dialect analyzers over the NetlistDeck AST plus the front door of
// the whole static-analysis subsystem: lint_deck_text() takes raw deck text
// and returns every diagnostic the analyzers can establish without running
// a single Newton iteration.
//
// Deck-level checks (ids from analysis::diagnostic_catalog()):
//   AC001  deck fails even the syntax pass (reported with line/col)
//   AC002  an element or directive line fails to instantiate at the
//          default design point
//   AC003  a `* lint-disable <id>` comment names an unknown id
//   AC201  .param declared but never referenced by any {name} substitution
//   AC202  degenerate grid: steps==1 with lo != hi never reaches hi
//   AC203  log-scale grid with non-positive bounds, or a log grid whose
//          endpoints coincide across steps > 1
//   AC204  .spec sampling interval is a single point (sample_lo==sample_hi)
//   AC205  .measure binding unsatisfiable: undeclared spec, missing
//          .ac/.tran/.noise analysis, or supply_current naming a device
//          that is absent or carries no branch current
//   AC206  .spec with no .measure binding
//   AC207  .param name shadows an element name
//   AC208  design variable referenced in an .ac/.noise line (one batch runs
//          every lane with one lane's analysis settings)
//
// When the deck instantiates, the topology analyzers of circuit_lint.hpp
// (AC101..AC108) run on the resulting circuit with findings attributed back
// to deck lines. `* lint-disable <id>` comments suppress warning/note
// diagnostics deck-wide; error-severity diagnostics are never suppressible.

#include <string>
#include <vector>

#include "analysis/diagnostic.hpp"
#include "spice/netlist_parser.hpp"

namespace autockt::analysis {

/// Lint a parsed deck AST (as produced by spice::parse_deck_syntax or
/// parse_deck): declaration checks, default instantiation, topology checks,
/// then suppression. Diagnostics are deterministic and attributed to deck
/// lines where possible.
std::vector<Diagnostic> lint_deck(const spice::NetlistDeck& deck);

/// Lint raw deck text. Never throws: a deck the syntax pass rejects yields
/// a single AC001 diagnostic carrying the parser's line/column.
std::vector<Diagnostic> lint_deck_text(const std::string& text);

}  // namespace autockt::analysis
