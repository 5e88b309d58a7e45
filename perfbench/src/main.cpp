// rbpeb_perfbench: one workload per process.
//
//   rbpeb_perfbench --workload exact|anytime|serve --seed N
//                   --seconds S --trace 0|1 --work-dir DIR
//                   [--trace-dir DIR] [--rev REV]
//
// Prints a provenance line, the workload's own progress lines, and as its
// last line one JSON object {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
// the per-layer ones, and the spans go to <trace-dir>/<workload>-<seed>.jsonl.
// Exits 1 when any output check failed.
#include <sched.h>

#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>

#include "bench.hpp"

namespace {

/// The seed set aside for checking a claimed gain on inputs the change was
/// not tuned on (choosing-metrics §6.3). Tuning runs use other seeds.
constexpr std::uint64_t kHeldOutSeed = 7919;

const char* const kLayers[] = {"bench",    "instances", "pebble", "solvers",
                               "bigstate", "hda",       "serve"};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "rbpeb_perfbench: " << why
            << "\nusage: rbpeb_perfbench --workload exact|anytime|serve"
               " --seed N --seconds S --trace 0|1 --work-dir DIR"
               " [--trace-dir DIR] [--rev REV]\n";
  std::exit(2);
}

perfbench::RunConfig parse_args(int argc, char** argv) {
  perfbench::RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        config.workload = value;
      } else if (arg == "--seed") {
        config.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        config.seconds = std::stod(value);
      } else if (arg == "--trace") {
        config.trace = value != "0";
      } else if (arg == "--work-dir") {
        config.work_dir = value;
      } else if (arg == "--trace-dir") {
        config.trace_dir = value;
      } else if (arg == "--rev") {
        config.rev = value;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg + ": " + value);
    }
  }
  if (config.workload.empty()) usage("--workload is required");
  if (config.work_dir.empty()) usage("--work-dir is required");
  if (!(config.seconds > 0)) usage("--seconds must be positive");
  return config;
}

int affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 0;
  return CPU_COUNT(&set);
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::RunConfig config = parse_args(argc, argv);
  void (*run)(perfbench::Context&) = nullptr;
  if (config.workload == "exact") run = perfbench::run_exact;
  if (config.workload == "anytime") run = perfbench::run_anytime;
  if (config.workload == "serve") run = perfbench::run_serve;
    if (run == nullptr) usage("unknown workload " + config.workload);

  perfbench::print_provenance(
      config,
      {{"nproc", std::to_string(affinity_cpus())},
       {"held_out_seed", std::to_string(kHeldOutSeed)}});

  perfbench::Context ctx(config);
  std::filesystem::create_directories(config.work_dir);
  try {
    run(ctx);
  } catch (const std::exception& e) {
    ctx.ledger.fail(std::string("workload threw: ") + e.what());
  }
  std::filesystem::remove_all(config.work_dir);

  if (config.trace) {
    const auto self = ctx.spans.self_ms_by_layer();
    for (const char* layer : kLayers) {
      const auto it = self.find(layer);
      ctx.report.set(std::string("layer.") + layer + ".self_ms",
                     it == self.end() ? 0 : it->second, "ms");
    }
    if (!config.trace_dir.empty()) {
      std::filesystem::create_directories(config.trace_dir);
      const std::string path = config.trace_dir + "/" + config.workload + "-" +
                               std::to_string(config.seed) + ".jsonl";
      ctx.spans.write(path);
      std::cout << "spans: " << ctx.spans.size() << " written to " << path
                << "\n";
    }
  } else {
    const double attempted = static_cast<double>(ctx.ledger.attempted());
    const double failed = static_cast<double>(ctx.ledger.failed());
    ctx.report.set("ok_rate",
                   attempted > 0 ? (attempted - failed) / attempted : 0,
                   "ratio");
  }

  std::cout << ctx.report.text();
  const bool correct = ctx.ledger.failed() == 0 && ctx.ledger.attempted() > 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << ctx.ledger.attempted()
            << ", \"failed\": " << ctx.ledger.failed()
            << ", \"metrics\": " << ctx.report.json() << "}" << std::endl;
  return correct ? 0 : 1;
}
