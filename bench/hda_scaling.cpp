// HDA* scaling: wall-clock speedup of the hash-distributed exact search at
// 1/2/4/8 worker threads on the 26–42-node workloads beyond the Dijkstra
// cap, against the sequential exact-astar reference.
//
// Two claims are measured and logged to a bench/report.hpp report (default
// BENCH_hda_astar.json, or argv[1]), one case per exact-astar reference run
// ("<instance>/<model>") and one per thread count ("...@<N>t"):
//  * correctness under concurrency — on every instance and at every thread
//    count the certified cost equals exact-astar's (this is what the exit
//    code enforces; the differential tests prove it on small instances,
//    this proves it on the workloads that matter);
//  * scaling — elapsed wall time per thread count, with the 8-vs-1 speedup
//    summarized per instance. Speedup is machine-dependent: the report
//    records hardware_concurrency so a single-core container's flat curve
//    is not misread as an HDA* defect.
#include <chrono>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench/report.hpp"
#include "src/pebble/bounds.hpp"
#include "src/solvers/exact_astar.hpp"
#include "src/solvers/hda/hda_astar.hpp"
#include "src/support/table.hpp"
#include "src/workloads/chain.hpp"
#include "src/workloads/random_layered.hpp"
#include "src/workloads/stencil.hpp"

namespace {

using namespace rbpeb;

constexpr std::size_t kThreadCounts[] = {1, 2, 4, 8};
constexpr std::size_t kBudget = 12'000'000;

struct Case {
  std::string name;
  Dag dag;
  Model model;
};

struct Run {
  bool solved = false;
  std::string cost = "-";
  std::size_t expanded = 0;
  double ms = 0.0;
};

template <typename Solve>
Run timed(Solve&& solve) {
  Run run;
  const auto start = std::chrono::steady_clock::now();
  std::optional<ExactResult> result = solve();
  run.ms = std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
               .count();
  if (result) {
    run.solved = true;
    run.cost = result->cost.str();
    run.expanded = result->states_expanded;
  }
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_hda_astar.json";

  std::vector<Case> cases;
  cases.push_back({"chain30", make_chain_dag(30), Model::oneshot()});
  cases.push_back({"layered13x2", make_random_layered_dag(
                                      {.layers = 13, .width = 2,
                                       .indegree = 2, .seed = 3}),
                   Model::nodel()});
  cases.push_back({"layered13x2", make_random_layered_dag(
                                      {.layers = 13, .width = 2,
                                       .indegree = 2, .seed = 3}),
                   Model::oneshot()});
  cases.push_back({"stencil3x8", make_stencil1d_dag(3, 8).dag,
                   Model::nodel()});
  cases.push_back({"stencil3x8", make_stencil1d_dag(3, 8).dag,
                   Model::oneshot()});
  cases.push_back({"stencil3x10", make_stencil1d_dag(3, 10).dag,
                   Model::nodel()});

  const unsigned hw = std::thread::hardware_concurrency();
  Table table("HDA* scaling vs sequential exact-astar (budget " +
              std::to_string(kBudget) + " states, " + std::to_string(hw) +
              " hardware threads)");
  table.set_header({"instance", "model", "n", "R", "cost", "astar ms",
                    "hda@1", "hda@2", "hda@4", "hda@8", "8v1"});

  bench::Report report("hda_astar");
  std::size_t mismatches = 0;
  std::size_t unsolved = 0;
  double best_speedup = 0.0;

  for (const Case& c : cases) {
    const std::size_t r = min_red_pebbles(c.dag);
    Engine engine(c.dag, c.model, r);
    Run reference = timed(
        [&] { return try_solve_exact_astar(engine, kBudget); });
    if (!reference.solved) ++unsolved;
    const std::string id = c.name + "/" + c.model.name();
    bench::Case& ref = report.add_case(id);
    if (reference.solved) ref.exact.set("astar_cost", reference.cost);
    ref.falls.set("astar_expanded", reference.expanded);
    ref.timing.set("astar_ms", reference.ms, 1);
    ref.info.set("nodes", c.dag.node_count()).set("r", r);

    std::vector<Run> runs;
    for (std::size_t threads : kThreadCounts) {
      Run run = timed([&] {
        return try_solve_hda_astar(engine, threads, kBudget);
      });
      if (!run.solved) ++unsolved;
      if (run.solved && reference.solved && run.cost != reference.cost) {
        ++mismatches;  // the differential tests make this unreachable
      }
      bench::Case& row =
          report.add_case(id + "@" + std::to_string(threads) + "t");
      row.rises.set("solved", run.solved);
      if (run.solved) row.exact.set("cost", run.cost);
      // Only the single-worker run is deterministic; multi-thread
      // expansion counts depend on incumbent timing.
      (threads == 1 ? row.falls : row.info).set("expanded", run.expanded);
      row.timing.set("ms", run.ms, 1);
      row.info.set("threads", threads);
      runs.push_back(run);
    }
    const double speedup_8v1 =
        runs.back().ms > 0.0 ? runs.front().ms / runs.back().ms : 0.0;
    best_speedup = std::max(best_speedup, speedup_8v1);
    ref.timing.set("speedup_8v1", speedup_8v1, 3);

    table.add_row({c.name, c.model.name(), std::to_string(c.dag.node_count()),
                   std::to_string(r), runs.front().cost,
                   format_double(reference.ms, 0),
                   format_double(runs[0].ms, 0), format_double(runs[1].ms, 0),
                   format_double(runs[2].ms, 0), format_double(runs[3].ms, 0),
                   format_double(speedup_8v1, 2)});
  }

  table.add_note("every instance is beyond the 21-node Dijkstra cap; costs");
  table.add_note("must match sequential exact-astar at every thread count");
  std::cout << table << '\n';
  std::cout << "hardware threads: " << hw
            << ", best 8v1 speedup: " << format_double(best_speedup, 2)
            << ", cost mismatches: " << mismatches << '\n';

  report.exact.set("cost_mismatches", mismatches);
  report.timing.set("best_speedup_8v1", best_speedup, 3);
  report.info.set("budget_states", kBudget);
  report.write(out_path);
  std::cout << "report written to " << out_path << '\n';
  // Exit on correctness, not machine-dependent speedup: a single-core
  // runner must not fail the build for lacking cores.
  return mismatches == 0 && unsolved == 0 ? 0 : 1;
}
