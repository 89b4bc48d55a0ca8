#include "util/table.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <stdexcept>

namespace cxlgraph::util {

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  if (headers_.empty()) {
    throw std::invalid_argument("TablePrinter requires at least one column");
  }
}

void TablePrinter::add_row(std::vector<std::string> cells) {
  if (cells.size() != headers_.size()) {
    throw std::invalid_argument("row has " + std::to_string(cells.size()) +
                                " cells; expected " +
                                std::to_string(headers_.size()));
  }
  rows_.push_back(std::move(cells));
}

void TablePrinter::print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c > 0) os << "  ";
      os << row[c];
      for (std::size_t pad = row[c].size(); pad < widths[c]; ++pad) os << ' ';
    }
    os << '\n';
  };

  emit_row(headers_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < widths.size(); ++c) {
    total += widths[c] + (c > 0 ? 2 : 0);
  }
  for (std::size_t i = 0; i < total; ++i) os << '-';
  os << '\n';
  for (const auto& row : rows_) emit_row(row);
}

namespace {

void emit_csv_cell(std::ostream& os, const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) {
    os << cell;
    return;
  }
  os << '"';
  for (char ch : cell) {
    if (ch == '"') os << '"';
    os << ch;
  }
  os << '"';
}

}  // namespace

void TablePrinter::print_csv(std::ostream& os) const {
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c > 0) os << ',';
      emit_csv_cell(os, row[c]);
    }
    os << '\n';
  };
  emit_row(headers_);
  for (const auto& row : rows_) emit_row(row);
}

std::string fmt(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

std::string fmt_count(std::uint64_t value) {
  std::string digits = std::to_string(value);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3);
  const std::size_t first = digits.size() % 3 == 0 ? 3 : digits.size() % 3;
  for (std::size_t i = 0; i < digits.size(); ++i) {
    if (i != 0 && (i - first) % 3 == 0 && i >= first) out += ',';
    out += digits[i];
  }
  return out;
}

}  // namespace cxlgraph::util
