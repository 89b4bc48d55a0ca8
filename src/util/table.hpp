#pragma once
/// \file table.hpp
/// Aligned-column table rendering for bench/experiment output, with an
/// optional CSV mode so results can be piped into plotting scripts.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace cxlgraph::util {

/// Collects rows of string cells and renders them with aligned columns.
///
///   TablePrinter t({"alignment [B]", "RAF", "runtime [ms]"});
///   t.add_row({"32", "1.18", "102.4"});
///   t.print(std::cout);
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);

  /// Adds one row; the number of cells must match the header count.
  void add_row(std::vector<std::string> cells);

  std::size_t row_count() const noexcept { return rows_.size(); }
  std::size_t column_count() const noexcept { return headers_.size(); }

  /// Renders with space-padded aligned columns and a rule under the header.
  void print(std::ostream& os) const;

  /// Renders as RFC-4180-ish CSV (quotes cells containing commas/quotes).
  void print_csv(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with fixed precision (helper for table cells).
std::string fmt(double value, int precision = 3);

/// Formats an integer with thousands separators: 4200000 -> "4,200,000".
std::string fmt_count(std::uint64_t value);

}  // namespace cxlgraph::util
