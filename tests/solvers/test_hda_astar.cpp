// The hda-astar differential harness: hash-distributed A* must return the
// same provably optimal cost as the sequential searches at *any* thread
// count — 1, 2, and 8 workers are exercised on every fuzzed instance across
// the four models and both pebbling conventions. Plus cooperative-budget
// coverage: cancellation mid-search joins every worker and still aggregates
// exact expansion totals through the shared atomic.
#include "src/solvers/hda/hda_astar.hpp"

#include <atomic>
#include <chrono>
#include <thread>

#include <gtest/gtest.h>

#include "src/graph/dag_builder.hpp"
#include "src/pebble/bounds.hpp"
#include "src/pebble/verifier.hpp"
#include "src/solvers/api.hpp"
#include "src/solvers/exact.hpp"
#include "src/solvers/exact_astar.hpp"
#include "src/solvers/packed_state.hpp"
#include "src/solvers/portfolio.hpp"
#include "src/support/check.hpp"
#include "src/workloads/chain.hpp"
#include "src/workloads/random_layered.hpp"
#include "src/workloads/tree_reduction.hpp"

namespace rbpeb {
namespace {

constexpr std::size_t kThreadCounts[] = {1, 2, 8};

// Dijkstra is ground truth; exact-astar is the sequential informed search
// hda-astar must reproduce; each worker count is an independent claim.
void expect_same_optimum_at_every_thread_count(const Engine& engine,
                                               const std::string& label) {
  auto dijkstra = try_solve_exact(engine, 6'000'000);
  auto astar = try_solve_exact_astar(engine, 6'000'000);
  ASSERT_TRUE(dijkstra.has_value()) << label;
  ASSERT_TRUE(astar.has_value()) << label;
  ASSERT_EQ(dijkstra->cost, astar->cost) << label;
  for (std::size_t threads : kThreadCounts) {
    ExactSearchStats stats;
    auto hda = try_solve_hda_astar(engine, threads, 6'000'000, {}, &stats);
    const std::string at = label + " threads=" + std::to_string(threads);
    ASSERT_TRUE(hda.has_value()) << at;
    EXPECT_EQ(hda->cost, dijkstra->cost) << at;
    EXPECT_EQ(stats.termination, ExactTermination::Solved) << at;
    // The trace replays to the reported cost under the strict engine.
    EXPECT_EQ(verify_or_throw(engine, hda->trace).total, hda->cost) << at;
  }
}

class HdaMatchesSequential : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Fuzz, HdaMatchesSequential,
                         ::testing::Values<std::uint64_t>(1, 2, 3));

TEST_P(HdaMatchesSequential, OnRandomLayeredDagsAcrossAllModels) {
  const std::uint64_t seed = GetParam();
  for (const RandomLayeredSpec& spec :
       {RandomLayeredSpec{.layers = 3, .width = 3, .indegree = 2, .seed = 0},
        RandomLayeredSpec{.layers = 4, .width = 2, .indegree = 2, .seed = 0}}) {
    RandomLayeredSpec seeded = spec;
    seeded.seed = seed;
    Dag dag = make_random_layered_dag(seeded);
    const std::size_t r = min_red_pebbles(dag);
    for (const Model& model : all_models()) {
      Engine engine(dag, model, r);
      expect_same_optimum_at_every_thread_count(
          engine, model.name() + " seed=" + std::to_string(seed));
    }
  }
}

TEST(HdaMatchesSequential, UnderBothHongKungConventions) {
  Dag dag = make_tree_reduction_dag(4).dag;  // 7 nodes
  for (const Model& model : all_models()) {
    for (bool sources_blue : {false, true}) {
      for (bool sinks_blue : {false, true}) {
        Engine engine(dag, model, 3,
                      PebblingConvention{.sources_start_blue = sources_blue,
                                         .sinks_end_blue = sinks_blue});
        expect_same_optimum_at_every_thread_count(
            engine, model.name() + " sources_blue=" +
                        std::to_string(sources_blue) + " sinks_blue=" +
                        std::to_string(sinks_blue));
      }
    }
  }
}

TEST(HdaMatchesSequential, RepeatedRunsAreDeterministicInCost) {
  // Expansion order varies run to run under real concurrency; the certified
  // optimum must not.
  Dag dag = make_random_layered_dag({.layers = 3, .width = 3, .indegree = 2,
                                     .seed = 9});
  Engine engine(dag, Model::oneshot(), min_red_pebbles(dag));
  const ExactResult reference = solve_hda_astar(engine, 1);
  for (int run = 0; run < 3; ++run) {
    EXPECT_EQ(solve_hda_astar(engine, 8).cost, reference.cost) << run;
  }
}

// ---- beyond the sequential Dijkstra cap ----------------------------------

TEST(HdaScale, SolvesAChainDijkstraCannotTouch) {
  Dag dag = make_chain_dag(30);  // well past the 21-node Dijkstra cap
  Engine engine(dag, Model::oneshot(), 2);
  EXPECT_THROW(solve_exact(engine), PreconditionError);
  ExactResult result = solve_hda_astar(engine, 4);
  // A 2-pebble sliding window computes the chain with no transfers at all.
  EXPECT_EQ(result.cost, Rational(0));
  EXPECT_TRUE(verify(engine, result.trace).ok());
}

TEST(HdaScale, MatchesExactAstarOnA26NodeLayeredDagInNodel) {
  Dag dag = make_random_layered_dag({.layers = 13, .width = 2, .indegree = 2,
                                     .seed = 3});  // 26 nodes: wide path only
  ASSERT_GT(dag.node_count(), PackedKey<1>::max_nodes());
  Engine engine(dag, Model::nodel(), min_red_pebbles(dag));
  ExactResult sequential = solve_exact_astar(engine, 4'000'000);
  ExactResult parallel = solve_hda_astar(engine, 8, 4'000'000);
  EXPECT_EQ(parallel.cost, sequential.cost);
}

TEST(HdaScale, RejectsDagsBeyondTheBigstateCap) {
  DagBuilder b;
  b.add_nodes(kHdaAstarMaxNodes + 1);
  Dag dag = b.build();
  Engine engine(dag, Model::oneshot(), 1);
  EXPECT_THROW(solve_hda_astar(engine), PreconditionError);
  SolveRequest request;
  request.engine = &engine;
  SolveResult result = SolverRegistry::instance().at("hda-astar").run(request);
  EXPECT_EQ(result.status, SolveStatus::Inapplicable);
}

TEST(HdaScale, SerialInstancesFallBackToOneWorker) {
  // A chain's search frontier is one state; hash-sharding it across workers
  // is all hand-off latency. The search must detect level width 1 and run
  // sequentially no matter how many threads were granted.
  Dag dag = make_chain_dag(30);
  Engine engine(dag, Model::oneshot(), 2);
  ExactSearchStats stats;
  auto result = try_solve_hda_astar(engine, 8, 2'000'000, {}, &stats);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->cost, Rational(0));
  EXPECT_EQ(stats.threads_used, 1u);
  // A branching instance keeps its grant.
  Dag tree = make_tree_reduction_dag(4).dag;
  Engine tree_engine(tree, Model::oneshot(), 3);
  ASSERT_TRUE(try_solve_hda_astar(tree_engine, 2, 2'000'000, {}, &stats)
                  .has_value());
  EXPECT_EQ(stats.threads_used, 2u);
}

TEST(HdaScale, ChainAtEightThreadsStaysWithin5xOfOneThread) {
  // ROADMAP regression: chain30 solved in ~1 ms sequentially but took
  // hundreds of ms at 8 threads before the serial fallback existed. With
  // the fallback both land on the same code path, so 5x (plus a floor
  // absorbing timer noise on millisecond runs) is generous.
  Dag dag = make_chain_dag(30);
  Engine engine(dag, Model::oneshot(), 2);
  auto best_of = [&](std::size_t threads) {
    double best_ms = 1e100;
    for (int run = 0; run < 3; ++run) {
      const auto start = std::chrono::steady_clock::now();
      ExactResult result = solve_hda_astar(engine, threads);
      const double ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start)
                            .count();
      EXPECT_EQ(result.cost, Rational(0)) << threads;
      best_ms = std::min(best_ms, ms);
    }
    return best_ms;
  };
  const double one = best_of(1);
  const double eight = best_of(8);
  EXPECT_LE(eight, std::max(5.0 * one, 50.0));
}

TEST(HdaScale, RejectsAbsurdThreadCounts) {
  EXPECT_THROW(hda_resolve_threads(kHdaAstarMaxThreads + 1),
               PreconditionError);
  EXPECT_GE(hda_resolve_threads(0), 1u);  // 0 = hardware concurrency
  EXPECT_EQ(hda_resolve_threads(5), 5u);
}

// ---- budgets, cancellation, and stats aggregation ------------------------

TEST(HdaBudget, StateBudgetLandsOnTheExactTotalAtAnyThreadCount) {
  Dag dag = make_random_layered_dag({.layers = 3, .width = 4, .indegree = 2,
                                     .seed = 6});
  Engine engine(dag, Model::oneshot(), min_red_pebbles(dag));
  for (std::size_t threads : kThreadCounts) {
    ExactSearchStats stats;
    EXPECT_EQ(try_solve_hda_astar(engine, threads, 10, {}, &stats),
              std::nullopt)
        << threads;
    EXPECT_EQ(stats.termination, ExactTermination::StateBudget) << threads;
    // Workers reserve expansion tickets from one shared atomic, so the
    // budget bites at exactly 10 no matter how many raced.
    EXPECT_EQ(stats.states_expanded, 10u) << threads;
  }
}

TEST(HdaBudget, ExpiredDeadlineStopsEveryWorkerBeforeAnyExpansion) {
  Dag dag = make_random_layered_dag({.layers = 3, .width = 4, .indegree = 2,
                                     .seed = 6});
  Engine engine(dag, Model::oneshot(), min_red_pebbles(dag));
  ExactSearchStats stats;
  auto already_expired = [] { return true; };
  EXPECT_EQ(try_solve_hda_astar(engine, 8, 2'000'000, already_expired, &stats),
            std::nullopt);
  EXPECT_EQ(stats.termination, ExactTermination::Stopped);
  EXPECT_EQ(stats.states_expanded, 0u);
}

TEST(HdaBudget, CancellationMidSearchJoinsAllWorkersAndAggregatesStats) {
  // A 42-node compcost instance keeps 8 workers busy far longer than the
  // cancellation delay; the flag must stop every worker (the call returning
  // at all proves they joined) with the partial expansion total intact.
  Dag dag = make_random_layered_dag({.layers = 14, .width = 3, .indegree = 2,
                                     .seed = 2});
  ASSERT_EQ(dag.node_count(), 42u);
  Engine engine(dag, Model::compcost(), min_red_pebbles(dag));
  std::atomic<bool> cancel{false};
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    cancel.store(true);
  });
  ExactSearchStats stats;
  auto result = try_solve_hda_astar(
      engine, 8, 500'000'000, [&] { return cancel.load(); }, &stats);
  canceller.join();
  EXPECT_EQ(result, std::nullopt);
  EXPECT_EQ(stats.termination, ExactTermination::Stopped);
  EXPECT_GT(stats.states_expanded, 0u);
}

TEST(HdaApi, BudgetExhaustionReportsPartialStatsAndThreads) {
  Dag dag = make_random_layered_dag({.layers = 3, .width = 4, .indegree = 2,
                                     .seed = 6});
  Engine engine(dag, Model::oneshot(), min_red_pebbles(dag));
  SolveRequest request;
  request.engine = &engine;
  request.budget.max_states = 10;
  request.budget.threads = 2;
  SolveResult result = SolverRegistry::instance().at("hda-astar").run(request);
  EXPECT_EQ(result.status, SolveStatus::BudgetExhausted);
  EXPECT_EQ(result.stats.at("states_expanded"), "10");
  EXPECT_EQ(result.stats.at("max_states"), "10");
  EXPECT_EQ(result.stats.at("threads"), "2");
}

TEST(HdaApi, ThreadsOptionOverridesTheBudgetField) {
  Dag dag = make_chain_dag(6);
  Engine engine(dag, Model::oneshot(), 2);
  SolveRequest request;
  request.engine = &engine;
  request.budget.threads = 1;
  request.options["threads"] = "3";
  SolveResult result = SolverRegistry::instance().at("hda-astar").run(request);
  ASSERT_EQ(result.status, SolveStatus::Optimal);
  EXPECT_EQ(result.stats.at("threads"), "3");
  EXPECT_EQ(result.cost, verify_or_throw(engine, *result.trace).total);
}

TEST(HdaApi, MalformedThreadsOptionFailsLoudly) {
  Dag dag = make_chain_dag(4);
  Engine engine(dag, Model::oneshot(), 2);
  SolveRequest request;
  request.engine = &engine;
  request.options["threads"] = "many";
  EXPECT_THROW(SolverRegistry::instance().at("hda-astar").run(request),
               PreconditionError);
}

TEST(HdaApi, PortfolioGrantsTheCoreBudgetInsteadOfOneRacingSlot) {
  // budget.threads unset: the portfolio must hand its whole thread cap to
  // the thread-aware solver rather than leaving it one racing slot.
  Dag dag = make_tree_reduction_dag(4).dag;
  Engine engine(dag, Model::oneshot(), 3);
  SolveRequest request;
  request.engine = &engine;
  PortfolioOptions options;
  options.solvers = {"hda-astar", "greedy"};
  options.max_threads = 3;
  PortfolioResult portfolio = solve_portfolio(request, options);
  ASSERT_EQ(portfolio.results.size(), 2u);
  const SolveResult& hda = portfolio.results[0];
  ASSERT_EQ(hda.solver, "hda-astar");
  ASSERT_EQ(hda.status, SolveStatus::Optimal);
  EXPECT_EQ(hda.stats.at("threads"), "3");
  ASSERT_TRUE(portfolio.has_best());
  EXPECT_EQ(portfolio.best().cost, hda.cost);
}

TEST(HdaApi, PortfolioClampsAnAbsurdJobsCountToTheSolverThreadCap) {
  // --jobs sizes the racing pool; it must not knock hda-astar out of the
  // race by granting more workers than the solver accepts.
  Dag dag = make_tree_reduction_dag(4).dag;
  Engine engine(dag, Model::oneshot(), 3);
  SolveRequest request;
  request.engine = &engine;
  PortfolioOptions options;
  options.solvers = {"hda-astar"};
  options.max_threads = kHdaAstarMaxThreads + 44;
  PortfolioResult portfolio = solve_portfolio(request, options);
  ASSERT_EQ(portfolio.results[0].status, SolveStatus::Optimal);
  EXPECT_EQ(portfolio.results[0].stats.at("threads"),
            std::to_string(kHdaAstarMaxThreads));
}

TEST(HdaApi, CallerSetBudgetThreadsSurvivesThePortfolio) {
  Dag dag = make_tree_reduction_dag(4).dag;
  Engine engine(dag, Model::oneshot(), 3);
  SolveRequest request;
  request.engine = &engine;
  request.budget.threads = 2;  // explicit caller choice wins
  PortfolioOptions options;
  options.solvers = {"hda-astar"};
  options.max_threads = 6;
  PortfolioResult portfolio = solve_portfolio(request, options);
  ASSERT_EQ(portfolio.results[0].status, SolveStatus::Optimal);
  EXPECT_EQ(portfolio.results[0].stats.at("threads"), "2");
}

}  // namespace
}  // namespace rbpeb
