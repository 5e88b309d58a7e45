// Deadline / cancellation propagation audit (the serve layer's liveness
// story): a SolveBudget's cancel flag and deadline must reach every stage a
// solve can be in — including the pattern-database build that runs BEFORE
// the first search-loop poll, and the disk-spilling closed table — and must
// do so under concurrent solves, because a served request that cannot be
// shed pins a worker forever.
//
// The PDB gap is the regression this file pins down: PatternDatabase
// construction used to be un-interruptible, so a cancelled bigstate solve
// (>42 nodes, pdb=on) kept building 6^|P| tables after its caller had
// given up.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <utility>

#include "src/obs/metrics.hpp"
#include "src/solvers/api.hpp"
#include "src/solvers/bigstate/pdb.hpp"
#include "src/solvers/portfolio.hpp"
#include "src/workloads/matmul.hpp"
#include "src/workloads/stencil.hpp"
#include "src/workloads/tree_reduction.hpp"

namespace rbpeb {
namespace {

using std::chrono::steady_clock;

/// Wall-clock guard: the operation must come back well before `limit_ms`
/// of slack runs out — generous enough for slow CI, far below the
/// uncancelled runtime.
template <typename Fn>
auto finishes_within_ms(std::int64_t limit_ms, Fn&& fn) {
  const auto start = steady_clock::now();
  auto result = fn();
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           steady_clock::now() - start)
                           .count();
  EXPECT_LT(elapsed, limit_ms) << "cancellation did not propagate promptly";
  return result;
}

TEST(BudgetPropagation, PdbBuildHonorsTheStopPredicate) {
  // 63 nodes: comfortably past the fixed-width cap, where Auto turns PDBs
  // on and the build is the expensive pre-search stage.
  const TreeReductionDag tree = make_tree_reduction_dag(32);

  // The build metrics count completed builds only: the gauge starts each
  // check at a value no build sets.
  auto& registry = obs::MetricsRegistry::instance();
  obs::Counter& builds = registry.counter("pdb.builds");
  obs::Gauge& table_bytes = registry.gauge("pdb.table_bytes");

  // Oneshot plays the six-digit game; at width 6 its 6^|P| tables stay
  // small, and the poll cadence under test is the same at every size.
  // Compcost plays the color game and broadcasts it into 6^8-entry tables,
  // which must poll too.
  for (const auto& [model, width] :
       {std::pair{Model::oneshot(), std::size_t{6}},
        std::pair{Model::compcost(), std::size_t{8}}}) {
    SCOPED_TRACE(model.name());
    const Engine engine(tree.dag, model, 4);
    table_bytes.set(-1);
    const std::uint64_t builds_before = builds.value();

    // An already-raised stop flag must abort the build almost immediately.
    // The discarded tables count as no build.
    const PatternDatabase aborted(engine, width, [] { return true; });
    EXPECT_TRUE(aborted.build_aborted());
    EXPECT_EQ(builds.value(), builds_before);
    EXPECT_EQ(table_bytes.value(), -1);

    // Without one, the same build runs to completion and is recorded.
    std::size_t polls = 0;
    const PatternDatabase built(engine, width, [&] {
      ++polls;
      return false;
    });
    EXPECT_FALSE(built.build_aborted());
    EXPECT_EQ(builds.value(), builds_before + 1);
    EXPECT_EQ(table_bytes.value(),
              static_cast<std::int64_t>(built.table_bytes()));
    EXPECT_GT(built.table_bytes(), 0u);
    // Every entry is written by a loop that polls once per 4096 steps: the
    // goal sweep, the Dijkstra or the broadcast.
    EXPECT_GE(polls, built.table_bytes() / sizeof(std::int32_t) / 4096);

    // A flag raised at the build's last poll still aborts it. A table's
    // last phase polls last, so in compcost this lands in the broadcast.
    table_bytes.set(-1);
    std::size_t seen = 0;
    const PatternDatabase late(engine, width, [&] { return ++seen == polls; });
    EXPECT_TRUE(late.build_aborted());
    EXPECT_EQ(seen, polls);
    EXPECT_EQ(builds.value(), builds_before + 1);
    EXPECT_EQ(table_bytes.value(), -1);
  }
}

TEST(BudgetPropagation, CancelledExactAstarStopsDuringThePdbBuild) {
  const TreeReductionDag tree = make_tree_reduction_dag(32);
  const Engine engine(tree.dag, Model::oneshot(), 4);
  std::atomic<bool> cancel{true};  // cancelled before the solve starts
  SolveRequest request;
  request.engine = &engine;
  request.options = {{"pdb", "on"}, {"pdb-pattern", "6"}};
  request.budget.cancel = &cancel;
  for (const char* name : {"exact-astar", "hda-astar"}) {
    const SolveResult result = finishes_within_ms(30'000, [&] {
      return SolverRegistry::instance().at(name).run(request);
    });
    EXPECT_EQ(result.status, SolveStatus::BudgetExhausted) << name;
    EXPECT_FALSE(result.has_trace()) << name;
  }
}

TEST(BudgetPropagation, DeadlineReachesTheSpillingSearch) {
  // A memory budget tight enough to force the external-memory closed table,
  // plus an expired deadline: the spill machinery must not outlive it.
  const MatMulDag mm = make_matmul_dag(3);
  const Engine engine(mm.dag, Model::oneshot(), 5);
  SolveRequest request;
  request.engine = &engine;
  request.options = {{"spill", "auto"}};
  request.budget.max_memory_bytes = 1 << 20;  // 1 MiB
  request.budget.deadline = steady_clock::now() + std::chrono::milliseconds(50);
  const SolveResult result = finishes_within_ms(30'000, [&] {
    return SolverRegistry::instance().at("exact-astar").run(request);
  });
  // Either the deadline tripped (BudgetExhausted) or the instance solved
  // inside 50ms — both are legal; hanging past the guard is not.
  if (!result.ok()) {
    EXPECT_EQ(result.status, SolveStatus::BudgetExhausted);
  }
}

TEST(BudgetPropagation, CallerCancelReachesConcurrentPortfolios) {
  // The serve shape: several portfolio solves in flight at once, all
  // cancelled mid-run. Every one must come back promptly — no worker may
  // stay pinned behind a search that ignored its flag.
  const TreeReductionDag tree = make_tree_reduction_dag(32);
  const Engine engine(tree.dag, Model::oneshot(), 4);

  std::atomic<bool> cancel{false};
  constexpr std::size_t kSolves = 3;
  std::vector<PortfolioResult> results(kSolves);
  std::vector<std::thread> threads;
  threads.reserve(kSolves);
  const auto start = steady_clock::now();
  for (std::size_t i = 0; i < kSolves; ++i) {
    threads.emplace_back([&engine, &cancel, &results, i] {
      SolveRequest request;
      request.engine = &engine;
      // Exercise the PDB path too (small tables; the poll is the point).
      request.options = {{"pdb", "on"}, {"pdb-pattern", "6"}};
      request.budget.cancel = &cancel;
      request.budget.max_states = 100'000'000;  // cancel, not the counter
      PortfolioOptions options;
      options.solvers = {"exact-astar", "hda-astar", "greedy"};
      results[i] = solve_portfolio(request, options);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  cancel.store(true);
  for (std::thread& thread : threads) thread.join();
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           steady_clock::now() - start)
                           .count();
  EXPECT_LT(elapsed, 60'000) << "a cancelled concurrent solve hung";

  for (const PortfolioResult& portfolio : results) {
    // The exact racers must NOT claim optimality after a cancel; the greedy
    // racer may still have landed its heuristic trace.
    for (const SolveResult& result : portfolio.results) {
      if (result.solver == "greedy") continue;
      EXPECT_NE(result.status, SolveStatus::Optimal) << result.solver;
    }
  }
}

TEST(BudgetPropagation, FlattenPortfolioKeepsTheWinnerAndExplainsFailure) {
  const TreeReductionDag tree = make_tree_reduction_dag(8);
  const Engine engine(tree.dag, Model::oneshot(), 3);
  SolveRequest request;
  request.engine = &engine;
  PortfolioOptions options;
  options.solvers = {"greedy", "topo"};
  SolveResult flat = flatten_portfolio(solve_portfolio(request, options));
  EXPECT_TRUE(flat.ok());
  ASSERT_TRUE(flat.has_trace());
  EXPECT_EQ(flat.stats.at("portfolio_solvers"), "2");
  EXPECT_FALSE(flat.stats.at("portfolio_winner").empty());

  // All-failure collapse: solvers that need structured views the request
  // does not carry leave no trace anywhere, and the flattened result must
  // say so rather than crash on best().
  SolveRequest bad;
  bad.engine = &engine;
  PortfolioOptions inapplicable;
  inapplicable.solvers = {"held-karp", "chain"};
  SolveResult failed =
      flatten_portfolio(solve_portfolio(bad, inapplicable));
  EXPECT_FALSE(failed.ok());
  EXPECT_FALSE(failed.has_trace());
  EXPECT_FALSE(failed.detail.empty());
}

}  // namespace
}  // namespace rbpeb
