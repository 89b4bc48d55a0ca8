/// Reproduces Fig. 3: read amplification factor vs address alignment for
/// BFS and SSSP on all three datasets.
///
/// `--cache-fraction` sets the software-cache capacity as a fraction of the
/// edge-list size (the paper's CPU simulation models BaM's GPU-memory
/// cache; see EXPERIMENTS.md for the calibration discussion).
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace cxlgraph;
  util::CliParser cli;
  cli.add_option("scale", "log2 of dataset vertex count", "15");
  cli.add_option("seed", "random seed", "42");
  cli.add_option("cache-fraction",
                 "software cache capacity / edge-list size", "0.0625");
  cli.add_option("jobs",
                 "worker threads for the per-(algo, dataset) cells "
                 "(0 = all cores, 1 = serial; results are identical)",
                 "0");
  cli.add_flag("csv", "emit CSV instead of an aligned table");
  cli.add_flag("verbose", "log per-run progress to stderr");
  if (!cli.parse(argc, argv)) return 0;

  core::ExperimentOptions options;
  options.scale = cli.get_uint("scale", 0, graph::kMaxScale);
  options.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  options.jobs = cli.get_uint("jobs");
  options.verbose = cli.get_bool("verbose");
  if (options.verbose) util::set_log_level(util::LogLevel::kInfo);
  const double fraction = cli.get_double("cache-fraction");

  if (!cli.get_bool("csv")) {
    std::cout << "=== Fig. 3: read amplification vs alignment ===\n"
              << "scale: 2^" << options.scale << " vertices, seed: "
              << options.seed << ", cache fraction: " << fraction << "\n"
              << "paper: RAF increases with alignment, ~1 at 8-32 B up to "
                 "~4 at 4 kB\n\n";
  }
  const util::TablePrinter table = core::fig3_raf(options, fraction);
  if (cli.get_bool("csv")) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
    std::cout << "\n";
  }
  return 0;
}
