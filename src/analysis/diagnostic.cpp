#include "analysis/diagnostic.hpp"

#include <algorithm>
#include <sstream>

namespace autockt::analysis {

const char* severity_name(Severity severity) {
  switch (severity) {
    case Severity::Note:
      return "note";
    case Severity::Warning:
      return "warning";
    case Severity::Error:
      return "error";
  }
  return "unknown";
}

const std::vector<DiagnosticDef>& diagnostic_catalog() {
  // Ids are a public contract (CI assertions, lint-disable comments, the
  // bad-deck corpus). Append-only: never renumber or reuse.
  static const std::vector<DiagnosticDef> kCatalog = {
      {"AC001", Severity::Error, "deck fails to parse (syntax error)"},
      {"AC002", Severity::Error,
       "element or directive line fails to instantiate"},
      {"AC003", Severity::Warning,
       "lint-disable comment names an unknown diagnostic id"},
      {"AC101", Severity::Error, "no element connects to ground (node 0)"},
      {"AC102", Severity::Error,
       "floating node: no DC-conductive path to ground"},
      {"AC103", Severity::Error,
       "voltage-source loop fixes a cycle of node differences"},
      {"AC104", Severity::Error,
       "current-source cutset: node fed only by current sources"},
      {"AC105", Severity::Error,
       "capacitor-only node has no DC connection at all"},
      {"AC106", Severity::Error, "duplicate element name"},
      {"AC107", Severity::Error,
       "out-of-range device parameter (W/L/R/C/mult)"},
      {"AC108", Severity::Error,
       "structurally singular MNA system (no complete pivot sequence)"},
      {"AC201", Severity::Warning,
       "unused .param: declared but never referenced"},
      {"AC202", Severity::Warning,
       "degenerate .param grid: steps==1 cannot reach hi"},
      {"AC203", Severity::Warning,
       "degenerate or invalid log-scale .param grid"},
      {"AC204", Severity::Warning,
       ".spec sampling interval is empty (sample_lo == sample_hi)"},
      {"AC205", Severity::Error,
       ".measure binding cannot be satisfied by the netlist"},
      {"AC206", Severity::Error, ".spec has no .measure binding"},
      {"AC207", Severity::Warning, ".param name shadows an element name"},
      {"AC208", Severity::Error,
       "design variable referenced in an .ac/.noise line"},
  };
  return kCatalog;
}

const DiagnosticDef* find_diagnostic_def(const std::string& id) {
  for (const DiagnosticDef& def : diagnostic_catalog()) {
    if (id == def.id) return &def;
  }
  return nullptr;
}

bool has_errors(const std::vector<Diagnostic>& diagnostics) {
  return std::any_of(diagnostics.begin(), diagnostics.end(),
                     [](const Diagnostic& d) {
                       return d.severity == Severity::Error;
                     });
}

std::size_t count_severity(const std::vector<Diagnostic>& diagnostics,
                           Severity severity) {
  return static_cast<std::size_t>(
      std::count_if(diagnostics.begin(), diagnostics.end(),
                    [severity](const Diagnostic& d) {
                      return d.severity == severity;
                    }));
}

std::vector<Diagnostic> apply_suppressions(
    std::vector<Diagnostic> diagnostics,
    const std::vector<std::string>& suppressed_ids) {
  if (suppressed_ids.empty()) return diagnostics;
  diagnostics.erase(
      std::remove_if(diagnostics.begin(), diagnostics.end(),
                     [&](const Diagnostic& d) {
                       if (d.severity == Severity::Error) return false;
                       return std::find(suppressed_ids.begin(),
                                        suppressed_ids.end(),
                                        d.id) != suppressed_ids.end();
                     }),
      diagnostics.end());
  return diagnostics;
}

std::string render_diagnostics_text(const std::vector<Diagnostic>& diagnostics,
                                    const std::string& source_name) {
  std::ostringstream out;
  for (const Diagnostic& d : diagnostics) {
    out << source_name;
    if (d.line > 0) {
      out << ':' << d.line;
      if (d.col > 0) out << ':' << d.col;
    }
    out << ": " << severity_name(d.severity) << ": " << d.id << ": "
        << d.message << '\n';
    if (!d.note.empty()) out << "    note: " << d.note << '\n';
  }
  return out.str();
}

namespace {

void append_json_string(std::ostringstream& out, const std::string& s) {
  out << '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        out << "\\\"";
        break;
      case '\\':
        out << "\\\\";
        break;
      case '\n':
        out << "\\n";
        break;
      case '\t':
        out << "\\t";
        break;
      case '\r':
        out << "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* hex = "0123456789abcdef";
          out << "\\u00" << hex[(c >> 4) & 0xf] << hex[c & 0xf];
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

}  // namespace

std::string render_diagnostics_json(const std::vector<Diagnostic>& diagnostics,
                                    const std::string& source_name) {
  std::ostringstream out;
  out << "{\n  \"source\": ";
  append_json_string(out, source_name);
  out << ",\n  \"error_count\": " << count_severity(diagnostics,
                                                    Severity::Error);
  out << ",\n  \"warning_count\": "
      << count_severity(diagnostics, Severity::Warning);
  out << ",\n  \"diagnostics\": [";
  for (std::size_t i = 0; i < diagnostics.size(); ++i) {
    const Diagnostic& d = diagnostics[i];
    out << (i == 0 ? "\n" : ",\n") << "    {\"id\": ";
    append_json_string(out, d.id);
    out << ", \"severity\": ";
    append_json_string(out, severity_name(d.severity));
    out << ", \"line\": " << d.line << ", \"col\": " << d.col
        << ", \"message\": ";
    append_json_string(out, d.message);
    out << ", \"note\": ";
    append_json_string(out, d.note);
    out << "}";
  }
  out << (diagnostics.empty() ? "]" : "\n  ]") << "\n}\n";
  return out.str();
}

}  // namespace autockt::analysis
