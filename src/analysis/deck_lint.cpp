#include "analysis/deck_lint.hpp"

#include <algorithm>
#include <cctype>
#include <iterator>
#include <utility>

#include "analysis/circuit_lint.hpp"

namespace autockt::analysis {

namespace {

using spice::DeckMeasure;
using spice::DeckParam;
using spice::DeckSpec;
using spice::NetlistDeck;

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

Diagnostic make(const char* id, std::size_t line, std::size_t col,
                std::string message, std::string note = "") {
  const DiagnosticDef* def = find_diagnostic_def(id);
  Diagnostic d;
  d.id = id;
  d.severity = def != nullptr ? def->severity : Severity::Error;
  d.line = line;
  d.col = col;
  d.message = std::move(message);
  d.note = std::move(note);
  return d;
}

/// First raw line whose element name matches (lowercased); {0, 0} if none.
std::pair<std::size_t, std::size_t> element_location(
    const NetlistDeck& deck, const std::string& name) {
  for (const NetlistDeck::RawLine& raw : deck.lines) {
    if (raw.tokens.empty() || raw.tokens[0][0] == '.') continue;
    if (lower(raw.tokens[0]) == name) {
      return {raw.no, raw.cols.empty() ? 0 : raw.cols[0]};
    }
  }
  return {0, 0};
}

bool has_directive(const NetlistDeck& deck, const std::string& head) {
  for (const NetlistDeck::RawLine& raw : deck.lines) {
    if (!raw.tokens.empty() && lower(raw.tokens[0]) == head) return true;
  }
  return false;
}

void check_lint_disables(const NetlistDeck& deck,
                         std::vector<Diagnostic>& out) {
  for (const std::string& id : deck.lint_disables) {
    if (find_diagnostic_def(id) == nullptr) {
      out.push_back(make("AC003", 0, 0,
                         "lint-disable names unknown diagnostic id '" + id +
                             "'",
                         "known ids are listed by `netlist_lint --ids`"));
    }
  }
}

void check_params(const NetlistDeck& deck, std::vector<Diagnostic>& out) {
  for (const DeckParam& p : deck.params) {
    // AC201: never referenced by a {name} substitution in any raw line.
    const std::string ref = "{" + p.name + "}";
    bool used = false;
    for (const NetlistDeck::RawLine& raw : deck.lines) {
      for (const std::string& t : raw.tokens) {
        used = used || lower(t).find(ref) != std::string::npos;
      }
    }
    if (!used) {
      out.push_back(make("AC201", p.line_no, 0,
                         ".param '" + p.name + "' is never referenced",
                         "the RL agent sweeps a design variable that cannot "
                         "change the circuit"));
    }

    // AC208: a batch runs every lane with one set of .ac/.noise settings,
    // so those lines must not vary with the design point (.tran may: each
    // lane's transient reads its own instantiation).
    for (const NetlistDeck::RawLine& raw : deck.lines) {
      const std::string head = raw.tokens.empty() ? "" : lower(raw.tokens[0]);
      if (head != ".ac" && head != ".noise") continue;
      for (std::size_t i = 0; i < raw.tokens.size(); ++i) {
        if (lower(raw.tokens[i]).find(ref) == std::string::npos) continue;
        const std::size_t col = i < raw.cols.size() ? raw.cols[i] : 0;
        out.push_back(make("AC208", raw.no, col,
                           "design variable '" + p.name +
                               "' referenced in an " + head + " line",
                           "a batch evaluates every lane with the analysis "
                           "settings of one; fix the sweep or move the "
                           "variable to an element line"));
        break;
      }
    }

    // AC202: a one-point grid declared with a non-trivial range.
    if (p.steps == 1 && p.lo != p.hi) {
      out.push_back(make("AC202", p.line_no, 0,
                         ".param '" + p.name + "' has steps=1 but lo=" +
                             std::to_string(p.lo) +
                             " != hi=" + std::to_string(p.hi),
                         "the grid holds the variable at lo; hi is "
                         "unreachable"));
    }

    // AC203: log grids need strictly positive bounds to be meaningful, and
    // coincident endpoints make every grid point identical.
    if (p.log_scale && (p.lo <= 0.0 || p.hi <= 0.0)) {
      out.push_back(make("AC203", p.line_no, 0,
                         ".param '" + p.name +
                             "' declares a log grid with non-positive "
                             "bounds",
                         "log spacing interpolates lo*(hi/lo)^f; it is "
                         "undefined for lo <= 0"));
    } else if (p.log_scale && p.steps > 1 && p.lo == p.hi) {
      out.push_back(make("AC203", p.line_no, 0,
                         ".param '" + p.name + "' log grid has lo == hi",
                         "all " + std::to_string(p.steps) +
                             " grid points evaluate to the same value"));
    }

    // AC207: a param named like an element invites "{m1}" vs "m1" confusion.
    const auto [line, col] = element_location(deck, p.name);
    if (line != 0) {
      out.push_back(make("AC207", p.line_no, 0,
                         ".param '" + p.name +
                             "' shadows the element of the same name "
                             "declared at line " +
                             std::to_string(line)));
    }
  }
}

void check_specs_and_measures(const NetlistDeck& deck,
                              std::vector<Diagnostic>& out) {
  for (const DeckSpec& s : deck.specs) {
    // AC204: nothing to sample — every episode trains against one target.
    if (s.sample_lo == s.sample_hi) {
      out.push_back(make("AC204", s.line_no, 0,
                         ".spec '" + s.name +
                             "' sampling interval is a single point",
                         "target sampling drives generalization; widen "
                         "[sample_lo, sample_hi]"));
    }
    // AC206: an unmeasured spec can never be scored.
    bool measured = false;
    for (const DeckMeasure& m : deck.measures) {
      measured = measured || m.spec == s.name;
    }
    if (!measured) {
      out.push_back(make("AC206", s.line_no, 0,
                         ".spec '" + s.name + "' has no .measure binding"));
    }
  }

  for (const DeckMeasure& m : deck.measures) {
    bool declared = false;
    for (const DeckSpec& s : deck.specs) declared = declared || s.name == m.spec;
    if (!declared) {
      out.push_back(make("AC205", m.line_no, 0,
                         ".measure references undeclared spec '" + m.spec +
                             "'"));
      continue;
    }
    switch (m.kind) {
      case DeckMeasure::Kind::Gain:
      case DeckMeasure::Kind::F3db:
      case DeckMeasure::Kind::Ugbw:
      case DeckMeasure::Kind::PhaseMargin:
        if (!has_directive(deck, ".ac")) {
          out.push_back(make("AC205", m.line_no, 0,
                             ".measure '" + m.spec +
                                 "' needs a .ac analysis in the deck"));
        }
        break;
      case DeckMeasure::Kind::Settling:
        if (!has_directive(deck, ".tran")) {
          out.push_back(make("AC205", m.line_no, 0,
                             ".measure '" + m.spec +
                                 "' needs a .tran analysis in the deck"));
        }
        break;
      case DeckMeasure::Kind::Noise:
        if (!has_directive(deck, ".noise")) {
          out.push_back(make("AC205", m.line_no, 0,
                             ".measure '" + m.spec +
                                 "' needs a .noise analysis in the deck"));
        }
        break;
      case DeckMeasure::Kind::SupplyCurrent: {
        const auto [line, col] = element_location(deck, m.source);
        if (line == 0) {
          out.push_back(make("AC205", m.line_no, 0,
                             ".measure supply_current: no device '" +
                                 m.source + "' in the deck"));
        } else {
          const char kind = lower(m.source)[0];
          if (kind != 'v' && kind != 'b') {
            out.push_back(make("AC205", m.line_no, 0,
                               ".measure supply_current: device '" +
                                   m.source + "' carries no branch current",
                               "only V sources and B bias probes add an MNA "
                               "branch whose current can be read"));
          }
        }
        break;
      }
    }
  }
}

}  // namespace

std::vector<Diagnostic> lint_deck(const NetlistDeck& deck) {
  std::vector<Diagnostic> out;
  check_lint_disables(deck, out);
  check_params(deck, out);
  check_specs_and_measures(deck, out);

  // Instantiate at the default design point; topology checks run on the
  // result. Instantiation failure is itself a finding (AC002), not a crash.
  auto inst = deck.instantiate_default();
  if (!inst.ok()) {
    const util::Error& e = inst.error();
    out.push_back(make("AC002", e.line, e.col, e.message,
                       "the deck cannot be simulated at its default design "
                       "point"));
  } else {
    auto circuit_diags = lint_circuit(
        inst->circuit, [&deck](const std::string& device) {
          return element_location(deck, device);
        });
    out.insert(out.end(), std::make_move_iterator(circuit_diags.begin()),
               std::make_move_iterator(circuit_diags.end()));
  }

  // Stable order for renderers and CI assertions: by line, declaration
  // order preserved within a line (and for location-free findings).
  std::stable_sort(out.begin(), out.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     return a.line < b.line;
                   });
  return apply_suppressions(std::move(out), deck.lint_disables);
}

std::vector<Diagnostic> lint_deck_text(const std::string& text) {
  auto parsed = spice::parse_deck_syntax(text);
  if (!parsed.ok()) {
    const util::Error& e = parsed.error();
    return {make("AC001", e.line, e.col, e.message,
                 "fix the syntax error to unlock the remaining checks")};
  }
  return lint_deck(*parsed);
}

}  // namespace autockt::analysis
