// Fixed-width table printing for the bench harnesses: each experiment
// binary emits the rows of its "paper table" through this type, plus an
// optional CSV mirror for plotting.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <variant>
#include <vector>

namespace tmwia::io {

/// A cell is a string, an integer, or a double (printed with fixed
/// precision chosen per column).
using Cell = std::variant<std::string, long long, double>;

/// Column spec: header text plus formatting for double cells.
struct Column {
  std::string header;
  int precision = 3;  // for double cells
};

/// Accumulates rows, then renders an aligned ASCII table and/or CSV.
class Table {
 public:
  explicit Table(std::string title, std::vector<Column> columns);

  /// Append one row; must have exactly one cell per column.
  void add_row(std::vector<Cell> cells);

  /// Render the aligned table (title, header rule, rows).
  void print(std::ostream& os) const;

  /// Write as CSV (header row then data rows); no title line.
  void write_csv(std::ostream& os) const;

 private:
  [[nodiscard]] std::string format_cell(const Cell& c, std::size_t col) const;

  std::string title_;
  std::vector<Column> columns_;
  std::vector<std::vector<Cell>> rows_;
};

}  // namespace tmwia::io
