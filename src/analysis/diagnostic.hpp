#pragma once
// Diagnostics engine for the static netlist/circuit analyzers
// (analysis/deck_lint.hpp, analysis/circuit_lint.hpp).
//
// Every finding is a Diagnostic with a STABLE id (e.g. "AC102"): ids are a
// public contract — CI asserts on them, decks suppress them with
// `* lint-disable <id>` comments, and the bad-deck regression corpus under
// tests/decks/bad/ names the id it expects. Renderers produce the
// human-readable text form and a line-oriented JSON form (netlist_lint
// --json, which CI uploads as an artifact and reads back with a standard
// JSON parser).
//
// Severity semantics:
//  * Error   — the deck/circuit would produce garbage (or crash) downstream;
//              registry/problem compilation refuse to proceed.
//  * Warning — suspicious but simulatable; collected and reportable, fatal
//              only under --Werror.
//  * Note    — informational (attached context, catalog hints).

#include <cstddef>
#include <string>
#include <vector>

namespace autockt::analysis {

enum class Severity { Note, Warning, Error };

/// Stable name ("note", "warning", "error").
const char* severity_name(Severity severity);

/// One analyzer finding. `line`/`col` are 1-based positions in the deck
/// text; 0 means "whole deck" (circuit-level findings on decks keep the
/// line of the offending element when known).
struct Diagnostic {
  std::string id;        // stable catalog id, e.g. "AC102"
  Severity severity = Severity::Warning;
  std::size_t line = 0;
  std::size_t col = 0;
  std::string message;   // what is wrong
  std::string note;      // optional: why it matters / how to fix

  friend bool operator==(const Diagnostic& a, const Diagnostic& b) {
    return a.id == b.id && a.severity == b.severity && a.line == b.line &&
           a.col == b.col && a.message == b.message && a.note == b.note;
  }
};

/// Catalog entry: every id the analyzers can emit, with its default
/// severity and a one-line summary (rendered into docs and --help).
struct DiagnosticDef {
  const char* id;
  Severity severity;
  const char* summary;
};

/// The full, ordered diagnostic catalog. Ids are never reused or renumbered.
const std::vector<DiagnosticDef>& diagnostic_catalog();

/// Catalog lookup; nullptr for unknown ids.
const DiagnosticDef* find_diagnostic_def(const std::string& id);

/// True if any diagnostic is Error severity.
bool has_errors(const std::vector<Diagnostic>& diagnostics);

/// Number of diagnostics at exactly `severity`.
std::size_t count_severity(const std::vector<Diagnostic>& diagnostics,
                           Severity severity);

/// Drop diagnostics whose id appears in `suppressed_ids` (deck
/// `* lint-disable <id>` comments). Error-severity diagnostics are NOT
/// suppressible: a deck must not be able to talk its way past the gate.
std::vector<Diagnostic> apply_suppressions(
    std::vector<Diagnostic> diagnostics,
    const std::vector<std::string>& suppressed_ids);

/// Human-readable rendering, one line per diagnostic:
///   <source>:<line>:<col>: <severity>: <id>: <message>
///       note: <note>
std::string render_diagnostics_text(const std::vector<Diagnostic>& diagnostics,
                                    const std::string& source_name);

/// JSON rendering: {"source": "...", "error_count": N, "warning_count": N,
/// "diagnostics": [{...}, ...]} with stable key order. Strings escape '"',
/// '\\', and every byte below 0x20, so any standard JSON parser reads it
/// back.
std::string render_diagnostics_json(const std::vector<Diagnostic>& diagnostics,
                                    const std::string& source_name);

}  // namespace autockt::analysis
