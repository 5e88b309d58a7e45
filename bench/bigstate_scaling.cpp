// Bigstate scaling: how far past the old 42-node fixed-width cap the exact
// layer now proves optima, and at what price — in RAM, and spilling.
//
// PR-2 (exact-astar) and PR-3 (hda-astar) capped at 42 nodes — 3 bits per
// node exhausts a two-word key. This bench drives both searches, on the
// bigstate subsystem (runtime-width keys, additive pattern databases,
// greedy-seeded incumbents, memory-budgeted closed tables), across 42–56
// node workloads under a stated memory budget, and logs to a JSON report
// (default BENCH_bigstate.json, or argv[1]):
//
//  * nodes-proved-optimal — the largest instance both searches certified,
//    the headline the PR-2/PR-3 baselines cap at 42;
//  * expansions and wall time per search per instance, comparable against
//    BENCH_exact_astar.json / BENCH_hda_astar.json on the shared 42-node
//    boundary case;
//  * peak closed-table bytes against the budget, plus hardware_concurrency
//    (HDA* wall clock is machine-dependent; a single-core container's
//    numbers must not be misread);
//  * the external-memory story: every case re-runs both searches under a
//    tight 32 MiB budget (disk-backed, --budget-disk-equivalent 2 GiB).
//    Before the spill subsystem those runs died as MemoryBudget dead-ends
//    wherever the table outgrew 32 MiB; now they solve, with identical
//    costs and (for the sequential search) identical expansion counts, and
//    the report records spilled_states / spill_bytes / merge_passes.
//
// The exit code enforces correctness only: both searches must certify the
// same cost on every instance they both solve. Unsolved instances (budget)
// are reported as data, not failures — runners differ.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/pebble/bounds.hpp"
#include "src/solvers/exact_astar.hpp"
#include "src/solvers/hda/hda_astar.hpp"
#include "src/support/table.hpp"
#include "src/workloads/chain.hpp"
#include "src/workloads/stencil.hpp"

namespace {

using namespace rbpeb;

constexpr std::size_t kBudgetStates = 12'000'000;
constexpr std::size_t kBudgetBytes = std::size_t{512} << 20;  // 512 MiB
// The external-memory runs: a budget the bigger stencils genuinely exceed
// in RAM, backed by a disk allowance no run comes close to.
constexpr std::size_t kTightBudgetBytes = std::size_t{32} << 20;  // 32 MiB
constexpr std::size_t kTightDiskBytes = std::size_t{2} << 30;     // 2 GiB

struct Case {
  std::string name;
  Dag dag;
  Model model;
};

struct Run {
  bool solved = false;
  std::string cost = "-";
  std::size_t expanded = 0;
  std::size_t table_bytes = 0;
  std::size_t spilled_states = 0;
  std::size_t spill_bytes = 0;
  std::size_t merge_passes = 0;
  double ms = 0.0;
};

template <typename Solve>
Run timed(Solve&& solve) {
  Run run;
  ExactSearchStats stats;
  const auto start = std::chrono::steady_clock::now();
  std::optional<ExactResult> result = solve(stats);
  run.ms = std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
               .count();
  run.expanded = stats.states_expanded;
  run.table_bytes = stats.table_bytes;
  run.spilled_states = stats.spilled_states;
  run.spill_bytes = stats.spill_bytes;
  run.merge_passes = stats.merge_passes;
  if (result) {
    run.solved = true;
    run.cost = result->cost.str();
    run.expanded = result->states_expanded;
  }
  return run;
}

std::string json_str(const std::string& s) { return "\"" + s + "\""; }

std::string json_run(const std::string& solver, const Run& run) {
  std::ostringstream os;
  os << "{\"solver\": " << json_str(solver)
     << ", \"solved\": " << (run.solved ? "true" : "false")
     << ", \"cost\": " << json_str(run.cost)
     << ", \"expanded\": " << run.expanded
     << ", \"table_bytes\": " << run.table_bytes
     << ", \"spilled_states\": " << run.spilled_states
     << ", \"spill_bytes\": " << run.spill_bytes
     << ", \"merge_passes\": " << run.merge_passes
     << ", \"ms\": " << format_double(run.ms, 1) << "}";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_bigstate.json";

  std::vector<Case> cases;
  // 42 nodes: the boundary case the PR-2/PR-3 fixed-width searches can
  // still touch — the comparison anchor against their bench reports.
  cases.push_back({"stencil2x20", make_stencil1d_dag(2, 20).dag,
                   Model::nodel()});
  cases.push_back({"chain44", make_chain_dag(44), Model::oneshot()});
  cases.push_back({"stencil2x22", make_stencil1d_dag(2, 22).dag,
                   Model::nodel()});
  cases.push_back({"stencil2x24", make_stencil1d_dag(2, 24).dag,
                   Model::nodel()});
  cases.push_back({"stencil2x26", make_stencil1d_dag(2, 26).dag,
                   Model::nodel()});
  cases.push_back({"chain56", make_chain_dag(56), Model::oneshot()});

  const unsigned hw = std::thread::hardware_concurrency();
  Table table("Bigstate exact search, 42-56 nodes (budget " +
              std::to_string(kBudgetStates) + " states / " +
              std::to_string(kBudgetBytes >> 20) + " MiB, " +
              std::to_string(hw) + " hardware threads)");
  table.set_header({"instance", "model", "n", "R", "cost", "astar ms",
                    "astar exp", "hda ms", "hda exp", "table MiB",
                    "spill@32m ms", "spill MiB"});

  std::ostringstream cases_json;
  bool first_case = true;
  std::size_t mismatches = 0;
  std::size_t unsolved = 0;
  std::size_t nodes_proved_optimal = 0;
  std::size_t peak_table_bytes = 0;
  std::size_t tight_solved = 0;
  std::size_t tight_spilled = 0;

  for (const Case& c : cases) {
    const std::size_t r = min_red_pebbles(c.dag);
    Engine engine(c.dag, c.model, r);
    ExactSearchOptions options;
    options.max_states = kBudgetStates;
    options.max_memory_bytes = kBudgetBytes;

    Run astar = timed([&](ExactSearchStats& stats) {
      return try_solve_exact_astar(engine, options, &stats);
    });
    Run hda = timed([&](ExactSearchStats& stats) {
      return try_solve_hda_astar(engine, 0, options, &stats);
    });
    // The same instances under the tight budget: pre-spill these were
    // MemoryBudget dead-ends wherever the table outgrew 32 MiB.
    ExactSearchOptions tight = options;
    tight.max_memory_bytes = kTightBudgetBytes;
    tight.max_disk_bytes = kTightDiskBytes;
    Run astar_spill = timed([&](ExactSearchStats& stats) {
      return try_solve_exact_astar(engine, tight, &stats);
    });
    Run hda_spill = timed([&](ExactSearchStats& stats) {
      return try_solve_hda_astar(engine, 0, tight, &stats);
    });
    if (!astar.solved) ++unsolved;
    if (!hda.solved) ++unsolved;
    if (astar_spill.solved) ++tight_solved;
    if (hda_spill.solved) ++tight_solved;
    tight_spilled += astar_spill.spilled_states + hda_spill.spilled_states;
    if (astar.solved && hda.solved) {
      if (astar.cost != hda.cost) {
        ++mismatches;  // the differential tests make this unreachable
      } else {
        nodes_proved_optimal =
            std::max(nodes_proved_optimal, c.dag.node_count());
      }
    }
    // Spilled costs must agree with the in-RAM optimum — the whole point.
    if (astar_spill.solved && astar.solved && astar_spill.cost != astar.cost) {
      ++mismatches;
    }
    if (hda_spill.solved && astar.solved && hda_spill.cost != astar.cost) {
      ++mismatches;
    }
    peak_table_bytes = std::max({peak_table_bytes, astar.table_bytes,
                                 hda.table_bytes});

    table.add_row({c.name, c.model.name(), std::to_string(c.dag.node_count()),
                   std::to_string(r), astar.cost,
                   format_double(astar.ms, 0), std::to_string(astar.expanded),
                   format_double(hda.ms, 0), std::to_string(hda.expanded),
                   format_double(static_cast<double>(std::max(
                                     astar.table_bytes, hda.table_bytes)) /
                                     (1024.0 * 1024.0),
                                 1),
                   format_double(astar_spill.ms, 0),
                   format_double(static_cast<double>(std::max(
                                     astar_spill.spill_bytes,
                                     hda_spill.spill_bytes)) /
                                     (1024.0 * 1024.0),
                                 1)});
    if (!first_case) cases_json << ",\n";
    first_case = false;
    cases_json << "    {\"instance\": " << json_str(c.name)
               << ", \"model\": " << json_str(c.model.name())
               << ", \"nodes\": " << c.dag.node_count() << ", \"r\": " << r
               << ",\n      \"runs\": [\n        "
               << json_run("exact-astar", astar) << ",\n        "
               << json_run("hda-astar", hda) << ",\n        "
               << json_run("exact-astar@32m", astar_spill) << ",\n        "
               << json_run("hda-astar@32m", hda_spill) << "\n      ]}";
  }

  table.add_note("every instance beyond 42 nodes was unreachable for the");
  table.add_note("PR-2/PR-3 fixed-width searches; costs must match across");
  table.add_note("both searches and the spill@32m runs (exit enforces it);");
  table.add_note("spill@32m re-proves each optimum in 32 MiB of RAM via");
  table.add_note("external-memory duplicate detection");
  std::cout << table << '\n';
  std::cout << "hardware threads: " << hw
            << ", nodes proved optimal: " << nodes_proved_optimal
            << ", cost mismatches: " << mismatches
            << ", unsolved: " << unsolved
            << ", spill@32m solved: " << tight_solved
            << " (spilled " << tight_spilled << " states)" << '\n';

  std::ofstream out(out_path);
  out << "{\n  \"bench\": \"bigstate\",\n"
      << "  \"budget_states\": " << kBudgetStates << ",\n"
      << "  \"budget_memory_bytes\": " << kBudgetBytes << ",\n"
      << "  \"tight_budget_memory_bytes\": " << kTightBudgetBytes << ",\n"
      << "  \"tight_budget_disk_bytes\": " << kTightDiskBytes << ",\n"
      << "  \"tight_solved\": " << tight_solved << ",\n"
      << "  \"tight_spilled_states\": " << tight_spilled << ",\n"
      << "  \"hardware_concurrency\": " << hw << ",\n"
      << "  \"nodes_proved_optimal\": " << nodes_proved_optimal << ",\n"
      << "  \"peak_table_bytes\": " << peak_table_bytes << ",\n"
      << "  \"cost_mismatches\": " << mismatches << ",\n"
      << "  \"unsolved\": " << unsolved << ",\n"
      << "  \"cases\": [\n" << cases_json.str() << "\n  ]\n}\n";
  std::cout << "report written to " << out_path << '\n';
  // Exit on correctness, not wall clock: a small or single-core runner must
  // not fail the build for being slow.
  return mismatches == 0 ? 0 : 1;
}
