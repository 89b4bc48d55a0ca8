#pragma once
/// Shared boilerplate for the figure/table bench binaries: CLI handling,
/// paper-reference banner, and table emission (pretty or CSV).

#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/experiment_runner.hpp"
#include "graph/datasets.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"

namespace cxlgraph::bench {

struct BenchArgs {
  core::ExperimentOptions options;
  bool csv = false;
};

/// Parses --scale/--seed/--jobs/--csv/--verbose. Returns false if --help
/// was requested (caller should exit 0).
inline bool parse_args(int argc, char** argv, BenchArgs& args,
                       unsigned default_scale = 16) {
  util::CliParser cli;
  cli.add_option("scale", "log2 of dataset vertex count",
                 std::to_string(default_scale));
  cli.add_option("seed", "random seed", "42");
  cli.add_option("jobs",
                 "worker threads for independent sweep configs "
                 "(0 = all cores, 1 = serial; results are identical)",
                 "0");
  cli.add_flag("csv", "emit CSV instead of an aligned table");
  cli.add_flag("verbose", "log per-run progress to stderr");
  if (!cli.parse(argc, argv)) return false;
  args.options.scale = cli.get_uint("scale", 0, graph::kMaxScale);
  args.options.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  args.options.jobs = cli.get_uint("jobs");
  args.options.verbose = cli.get_bool("verbose");
  args.csv = cli.get_bool("csv");
  if (args.options.verbose) {
    util::set_log_level(util::LogLevel::kInfo);
  }
  return true;
}

/// Fans a sweep's independent configurations across options.jobs worker
/// threads; reports come back in insertion order, bit-identical to running
/// the jobs serially. Honors --verbose (one log line per run, in order).
inline std::vector<core::RunReport> run_sweep(
    const core::SystemConfig& config, const core::ExperimentOptions& options,
    const std::vector<core::SweepJob>& jobs) {
  return core::run_sweep(config, options, jobs);
}

/// Standard bench body: banner, run, emit.
inline int run_bench(
    int argc, char** argv, const std::string& title,
    const std::string& paper_expectation,
    const std::function<util::TablePrinter(const core::ExperimentOptions&)>&
        make_table,
    unsigned default_scale = 16) {
  BenchArgs args;
  if (!parse_args(argc, argv, args, default_scale)) return 0;
  if (!args.csv) {
    std::cout << "=== " << title << " ===\n"
              << "scale: 2^" << args.options.scale
              << " vertices, seed: " << args.options.seed << "\n"
              << "paper: " << paper_expectation << "\n\n";
  }
  const util::TablePrinter table = make_table(args.options);
  if (args.csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
    std::cout << "\n";
  }
  return 0;
}

}  // namespace cxlgraph::bench
