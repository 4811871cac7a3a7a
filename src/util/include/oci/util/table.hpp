// Console table and CSV emitters used by the benchmark harness so every
// figure/table reproduction prints in a uniform, parseable format.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace oci::util {

/// A simple column-aligned text table. Cells are strings; numeric
/// convenience adders format with a fixed precision.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Starts a new row; subsequent add_cell calls fill it left to right.
  Table& new_row();
  Table& add_cell(std::string value);
  Table& add_cell(double value, int precision = 4);
  Table& add_cell(std::uint64_t value);

  /// Scientific-notation cell, for quantities spanning many decades.
  Table& add_sci(double value, int precision = 3);

  [[nodiscard]] std::size_t rows() const { return rows_.size(); }
  [[nodiscard]] std::size_t columns() const { return headers_.size(); }

  /// Renders with column alignment and a header rule.
  void print(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Format helpers shared by benches: engineering notation with SI prefix.
[[nodiscard]] std::string si_format(double value, const std::string& unit, int precision = 3);

}  // namespace oci::util
