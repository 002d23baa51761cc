#include "util/csv.hpp"

#include <fstream>
#include <sstream>

#include "util/fmt.hpp"

namespace autockt::util {

namespace {
std::string escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string out = "\"";
  for (char ch : cell) {
    if (ch == '"') out += '"';
    out += ch;
  }
  out += '"';
  return out;
}
}  // namespace

CsvWriter::CsvWriter(std::vector<std::string> header)
    : header_(std::move(header)) {}

void CsvWriter::add_row(const std::vector<double>& values) {
  std::vector<std::string> cells;
  cells.reserve(values.size());
  // %.17g, locale-independent: anything replotting figure data can rely
  // on strtod recovering the exact double from these cells.
  for (double v : values) cells.push_back(format_g17(v));
  rows_.push_back(std::move(cells));
}

void CsvWriter::add_row(const std::vector<std::string>& cells) {
  rows_.push_back(cells);
}

std::string CsvWriter::to_string() const {
  std::ostringstream os;
  for (std::size_t c = 0; c < header_.size(); ++c) {
    if (c) os << ',';
    os << escape(header_[c]);
  }
  os << '\n';
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c) os << ',';
      os << escape(row[c]);
    }
    os << '\n';
  }
  return os.str();
}

bool CsvWriter::save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << to_string();
  return static_cast<bool>(out);
}

}  // namespace autockt::util
