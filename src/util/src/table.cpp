#include "oci/util/table.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace oci::util {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  if (headers_.empty()) throw std::invalid_argument("Table: need at least one column");
}

Table& Table::new_row() {
  if (!rows_.empty() && rows_.back().size() != headers_.size()) {
    throw std::logic_error("Table: previous row is incomplete");
  }
  rows_.emplace_back();
  rows_.back().reserve(headers_.size());
  return *this;
}

Table& Table::add_cell(std::string value) {
  if (rows_.empty()) throw std::logic_error("Table: call new_row() first");
  if (rows_.back().size() >= headers_.size()) {
    throw std::logic_error("Table: row already full");
  }
  rows_.back().push_back(std::move(value));
  return *this;
}

Table& Table::add_cell(double value, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << value;
  return add_cell(os.str());
}

Table& Table::add_cell(std::uint64_t value) { return add_cell(std::to_string(value)); }

Table& Table::add_sci(double value, int precision) {
  std::ostringstream os;
  os << std::scientific << std::setprecision(precision) << value;
  return add_cell(os.str());
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto emit_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      const std::string& text = c < cells.size() ? cells[c] : std::string{};
      os << (c == 0 ? "" : "  ") << std::setw(static_cast<int>(widths[c])) << text;
    }
    os << '\n';
  };
  emit_row(headers_);
  std::size_t rule = 0;
  for (std::size_t c = 0; c < widths.size(); ++c) rule += widths[c] + (c == 0 ? 0 : 2);
  os << std::string(rule, '-') << '\n';
  for (const auto& row : rows_) emit_row(row);
}

std::string si_format(double value, const std::string& unit, int precision) {
  struct Prefix {
    double scale;
    const char* name;
  };
  static constexpr Prefix kPrefixes[] = {
      {1e12, "T"}, {1e9, "G"}, {1e6, "M"}, {1e3, "k"}, {1.0, ""},
      {1e-3, "m"}, {1e-6, "u"}, {1e-9, "n"}, {1e-12, "p"}, {1e-15, "f"},
  };
  if (value == 0.0) return "0 " + unit;
  const double mag = std::fabs(value);
  for (const auto& p : kPrefixes) {
    if (mag >= p.scale) {
      std::ostringstream os;
      os << std::fixed << std::setprecision(precision) << (value / p.scale) << ' ' << p.name
         << unit;
      return os.str();
    }
  }
  std::ostringstream os;
  os << std::scientific << std::setprecision(precision) << value << ' ' << unit;
  return os.str();
}

}  // namespace oci::util
