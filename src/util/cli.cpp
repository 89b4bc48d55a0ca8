#include "util/cli.hpp"

#include <charconv>
#include <cstdio>
#include <stdexcept>

namespace cxlgraph::util {

void CliParser::add_option(const std::string& name, const std::string& help,
                           const std::string& default_value) {
  options_[name] = Option{help, default_value, /*is_flag=*/false};
}

void CliParser::add_flag(const std::string& name, const std::string& help) {
  options_[name] = Option{help, "false", /*is_flag=*/true};
}

bool CliParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage(argv[0]);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string name = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (const auto eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_value = true;
    }
    auto it = options_.find(name);
    if (it == options_.end()) {
      throw std::invalid_argument("unknown option --" + name);
    }
    Option& opt = it->second;
    if (opt.is_flag) {
      opt.value = has_value ? value : "true";
    } else if (has_value) {
      opt.value = value;
    } else {
      if (i + 1 >= argc) {
        throw std::invalid_argument("option --" + name + " needs a value");
      }
      opt.value = argv[++i];
    }
  }
  return true;
}

const CliParser::Option& CliParser::require(const std::string& name) const {
  auto it = options_.find(name);
  if (it == options_.end()) {
    throw std::invalid_argument("option --" + name + " was never registered");
  }
  return it->second;
}

std::string CliParser::get(const std::string& name) const {
  return require(name).value;
}

std::int64_t CliParser::get_int(const std::string& name) const {
  const std::string& text = require(name).value;
  std::int64_t parsed = 0;
  const char* const end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, parsed);
  if (error != std::errc() || stop != end) {
    throw std::invalid_argument("--" + name +
                                " must be a 64-bit integer (got '" + text +
                                "')");
  }
  return parsed;
}

std::uint32_t CliParser::get_uint(const std::string& name, std::uint32_t min,
                                  std::uint32_t max) const {
  return static_cast<std::uint32_t>(
      parse_uint(require(name).value, "--" + name, min, max));
}

double CliParser::get_double(const std::string& name) const {
  return parse_double(require(name).value, "--" + name);
}

bool CliParser::get_bool(const std::string& name) const {
  const std::string& v = require(name).value;
  return v == "true" || v == "1" || v == "yes" || v == "on";
}

std::uint64_t parse_uint(const std::string& text, const std::string& what,
                         std::uint64_t min, std::uint64_t max) {
  std::uint64_t parsed = 0;
  const char* const end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, parsed);
  if (error != std::errc() || stop != end || parsed < min || parsed > max) {
    throw std::invalid_argument(what + " must be an integer in [" +
                                std::to_string(min) + ", " +
                                std::to_string(max) + "] (got '" + text +
                                "')");
  }
  return parsed;
}

double parse_double(const std::string& text, const std::string& what) {
  double parsed = 0.0;
  const char* const end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, parsed);
  if (error == std::errc::result_out_of_range) {
    throw std::invalid_argument(what +
                                " is outside the range of double (got '" +
                                text + "')");
  }
  if (error != std::errc() || stop != end) {
    throw std::invalid_argument(what + " must be a number (got '" + text +
                                "')");
  }
  return parsed;
}

std::vector<std::string> split_csv(const std::string& value) {
  std::vector<std::string> items;
  std::size_t pos = 0;
  while (true) {
    const std::size_t comma = value.find(',', pos);
    const std::string item =
        value.substr(pos, comma == std::string::npos ? std::string::npos
                                                     : comma - pos);
    if (item.empty()) {
      throw std::invalid_argument(
          "empty item in comma-separated list: '" + value + "'");
    }
    items.push_back(item);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return items;
}

void CliParser::print_usage(const std::string& program) const {
  std::fprintf(stderr, "usage: %s [options]\n", program.c_str());
  for (const auto& [name, opt] : options_) {
    if (opt.is_flag) {
      std::fprintf(stderr, "  --%-24s %s\n", name.c_str(), opt.help.c_str());
    } else {
      std::fprintf(stderr, "  --%-24s %s (default: %s)\n",
                   (name + "=V").c_str(), opt.help.c_str(),
                   opt.value.c_str());
    }
  }
}

}  // namespace cxlgraph::util
