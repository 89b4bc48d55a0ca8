#pragma once
/// \file cli.hpp
/// A tiny command-line option parser for benches and examples.
///
/// Supports `--key=value`, `--key value`, and boolean `--flag` forms.
/// Unknown options raise an error so typos in experiment sweeps are caught.

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace cxlgraph::util {

class CliParser {
 public:
  /// Registers an option with a help string; call before parse().
  void add_option(const std::string& name, const std::string& help,
                  const std::string& default_value = "");
  void add_flag(const std::string& name, const std::string& help);

  /// Parses argv. Returns false (after printing usage) if --help was given.
  /// Throws std::invalid_argument on unknown options or missing values.
  bool parse(int argc, const char* const* argv);

  std::string get(const std::string& name) const;
  /// A signed integer: throws std::invalid_argument naming the option
  /// unless its whole value is a base-10 integer that fits.
  std::int64_t get_int(const std::string& name) const;
  /// An unsigned count: throws std::invalid_argument naming the option
  /// unless its whole value is an integer in [min, max], so a negative
  /// count is an error instead of wrapping to a huge unsigned one.
  std::uint32_t get_uint(
      const std::string& name, std::uint32_t min = 0,
      std::uint32_t max = std::numeric_limits<std::uint32_t>::max()) const;
  /// A number read whole by parse_double.
  double get_double(const std::string& name) const;
  bool get_bool(const std::string& name) const;

  /// Positional (non-option) arguments in order of appearance.
  const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  void print_usage(const std::string& program) const;

 private:
  struct Option {
    std::string help;
    std::string value;
    bool is_flag = false;
  };

  const Option& require(const std::string& name) const;

  std::map<std::string, Option> options_;
  std::vector<std::string> positional_;
};

/// Parses `text` as a whole base-10 integer in [min, max]: no sign, no
/// blanks, no exponent, no trailing characters. Throws
/// std::invalid_argument naming `what` otherwise, so a negative count or
/// one too wide for its field is an error instead of a wrapped value.
std::uint64_t parse_uint(const std::string& text, const std::string& what,
                         std::uint64_t min, std::uint64_t max);

/// Parses `text` as a whole decimal floating-point number (digits with
/// an optional '-', fraction and exponent; "inf" and "nan" too): no
/// blanks, no '+', no trailing characters. Throws std::invalid_argument
/// naming `what` for empty or malformed input or a value outside the
/// range of double, so "1.5x" or "1e999" is an error instead of 1.5 or
/// an escaping std::out_of_range. Callers check the value's own range.
double parse_double(const std::string& text, const std::string& what);

/// Splits a comma-separated option value ("0.25,0.5,1") into its items.
/// Throws std::invalid_argument on empty input or empty items (",1",
/// "1,,2") so list-valued options fail with a description naming the
/// list, not an item's number parse.
std::vector<std::string> split_csv(const std::string& value);

}  // namespace cxlgraph::util
