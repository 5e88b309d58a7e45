// Exact-solver scaling: Dijkstra vs A* on the ≤21-node suite, and the
// workloads beyond Dijkstra's cap that only A* can prove optimal.
//
// Two claims are measured and logged to a bench/report.hpp report (default
// BENCH_exact_astar.json, or argv[1]):
//  * on every instance both searches finish, they agree on the optimal cost
//    and A* expands fewer states — the admissible per-state bounds of
//    bounds.hpp are doing real work, not just matching Dijkstra;
//  * A* proves optima on 25+-node workloads where Dijkstra is inapplicable
//    outright (its 64-bit packed-state cap stops at 21 nodes).
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench/report.hpp"
#include "src/instances/spec.hpp"
#include "src/obs/introspect.hpp"
#include "src/pebble/bounds.hpp"
#include "src/solvers/exact.hpp"
#include "src/solvers/exact_astar.hpp"
#include "src/support/table.hpp"

namespace {

using namespace rbpeb;

/// The whole suite arrives through the InstanceSpec grammar — the same
/// strings `rbpeb_cli solve --instance` accepts, so any bench row can be
/// reproduced from a shell one-liner.
Dag dag_of(const std::string& spec) {
  return instances::resolve_instance(spec).dag;
}

struct Instance {
  std::string name;
  Dag dag;
  /// Models to run; empty = all four. The 15-node tree under base/compcost
  /// costs minutes of Dijkstra per run — correctness there is the
  /// differential tests' job, not a bench's.
  std::vector<std::string> models;

  bool runs(const Model& model) const {
    if (models.empty()) return true;
    return std::find(models.begin(), models.end(), model.name()) !=
           models.end();
  }
};

struct RunOutcome {
  bool solved = false;
  std::string cost;  // "-" when unsolved
  std::size_t expanded = 0;
};

/// One search's gated fields under `prefix`: its solved flag and its
/// expansions (sequential, so deterministic even when the budget stops it).
void record(bench::Case& c, const std::string& prefix, const RunOutcome& run) {
  c.rises.set(prefix + "solved", run.solved);
  c.falls.set(prefix + "expanded", run.expanded);
}

// --progress attaches a sink-less sampler to every A* run: the full
// sampling + attribution path executes, nothing is consumed. bench_check.py
// overhead holds this report byte-identical (minus walls) to the plain one —
// the probes must observe the search, never steer it.
bool g_with_progress = false;

RunOutcome run_search(bool astar, const Engine& engine,
                      std::size_t max_states) {
  ExactSearchStats stats;
  std::optional<ExactResult> result;
  if (astar && g_with_progress) {
    obs::SearchProgressSampler sampler({.min_interval_us = 0});
    ExactSearchOptions options;
    options.max_states = max_states;
    options.progress = &sampler;
    result = try_solve_exact_astar(engine, options, &stats);
  } else {
    result = astar ? try_solve_exact_astar(engine, max_states, {}, &stats)
                   : try_solve_exact(engine, max_states, {}, &stats);
  }
  RunOutcome out;
  out.solved = result.has_value();
  out.cost = out.solved ? result->cost.str() : "-";
  out.expanded = out.solved ? result->states_expanded : stats.states_expanded;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_exact_astar.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--progress") {
      g_with_progress = true;
    } else {
      out_path = arg;
    }
  }
  constexpr std::size_t kSuiteBudget = 3'000'000;
  constexpr std::size_t kLargeBudget = 4'000'000;

  std::vector<Instance> suite;
  suite.push_back({"chain16", dag_of("chain:n=16"), {}});
  suite.push_back({"pyramid4", dag_of("pyramid:base=4"), {}});     // 10 nodes
  suite.push_back({"tree8", dag_of("tree:leaves=8"),               // 15 nodes
                   {"oneshot", "nodel"}});
  suite.push_back({"stencil3x4", dag_of("stencil:width=3,steps=4"), {}});
  for (int seed : {1, 2, 3}) {
    suite.push_back({"layered3x3_s" + std::to_string(seed),
                     dag_of("layered:layers=3,width=3,indegree=2,seed=" +
                            std::to_string(seed)),
                     {}});
  }

  bench::Report report("exact_astar");
  Table table("Exact search: Dijkstra vs A* (suite budget " +
              std::to_string(kSuiteBudget) + " states)");
  table.set_header({"instance", "model", "n", "R", "cost", "dijkstra",
                    "astar", "ratio"});
  std::size_t total_dijkstra = 0;
  std::size_t total_astar = 0;
  std::size_t mismatches = 0;
  for (const Instance& instance : suite) {
    const std::size_t r = min_red_pebbles(instance.dag);
    for (const Model& model : all_models()) {
      if (!instance.runs(model)) continue;
      Engine engine(instance.dag, model, r);
      RunOutcome dijkstra = run_search(false, engine, kSuiteBudget);
      RunOutcome astar = run_search(true, engine, kSuiteBudget);
      if (dijkstra.solved && astar.solved && dijkstra.cost != astar.cost) {
        ++mismatches;  // the differential tests make this unreachable
      }
      total_dijkstra += dijkstra.expanded;
      total_astar += astar.expanded;
      table.add_row(
          {instance.name, model.name(),
           std::to_string(instance.dag.node_count()), std::to_string(r),
           astar.cost, std::to_string(dijkstra.expanded),
           std::to_string(astar.expanded),
           dijkstra.expanded > 0
               ? format_double(static_cast<double>(astar.expanded) /
                                   static_cast<double>(dijkstra.expanded),
                               3)
               : "-"});
      bench::Case& row =
          report.add_case(instance.name + "/" + model.name());
      if (astar.solved) row.exact.set("cost", astar.cost);
      record(row, "dijkstra_", dijkstra);
      record(row, "astar_", astar);
      row.info.set("nodes", instance.dag.node_count()).set("r", r);
    }
  }
  std::cout << table << '\n';
  std::cout << "total expansions: dijkstra=" << total_dijkstra
            << " astar=" << total_astar << " (ratio "
            << format_double(static_cast<double>(total_astar) /
                                 static_cast<double>(total_dijkstra),
                             3)
            << ")\n\n";

  // ---- beyond the Dijkstra cap -------------------------------------------
  struct LargeCase {
    std::string name;
    Dag dag;
    Model model;
  };
  std::vector<LargeCase> large;
  large.push_back({"chain30", dag_of("chain:n=30"), Model::oneshot()});
  large.push_back({"chain30", dag_of("chain:n=30"), Model::compcost()});
  large.push_back(
      {"layered13x2", dag_of("layered:layers=13,width=2,indegree=2,seed=3"),
       Model::nodel()});
  large.push_back(
      {"layered13x2", dag_of("layered:layers=13,width=2,indegree=2,seed=3"),
       Model::oneshot()});
  large.push_back(
      {"stencil3x8", dag_of("stencil:width=3,steps=8"), Model::oneshot()});

  Table large_table("Beyond the 21-node Dijkstra cap (A* only, budget " +
                    std::to_string(kLargeBudget) + " states)");
  large_table.set_header({"instance", "model", "n", "R", "status", "cost",
                          "expanded"});
  std::size_t large_solved = 0;
  for (const LargeCase& c : large) {
    const std::size_t r = min_red_pebbles(c.dag);
    Engine engine(c.dag, c.model, r);
    RunOutcome astar = run_search(true, engine, kLargeBudget);
    if (astar.solved) ++large_solved;
    large_table.add_row({c.name, c.model.name(),
                         std::to_string(c.dag.node_count()),
                         std::to_string(r),
                         astar.solved ? "optimal" : "budget-exhausted",
                         astar.cost, std::to_string(astar.expanded)});
    bench::Case& row = report.add_case(c.name + "/" + c.model.name());
    if (astar.solved) row.exact.set("cost", astar.cost);
    record(row, "", astar);
    row.info.set("nodes", c.dag.node_count()).set("r", r);
  }
  large_table.add_note("every instance here is inapplicable to --solver");
  large_table.add_note("exact: its packed state caps at 21 nodes");
  std::cout << large_table << '\n';

  report.exact.set("cost_mismatches", mismatches);
  report.falls.set("astar_expanded", total_astar);
  report.info.set("dijkstra_expanded", total_dijkstra)
      .set("suite_budget_states", kSuiteBudget)
      .set("large_budget_states", kLargeBudget);
  report.write(out_path);
  std::cout << "report written to " << out_path << '\n';
  return mismatches == 0 && large_solved > 0 ? 0 : 1;
}
