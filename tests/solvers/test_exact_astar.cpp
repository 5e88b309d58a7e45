// The exact-astar differential harness: on every instance the Dijkstra
// ground truth can handle, A* must return the same optimal cost — across all
// four models, red budgets, and both pebbling conventions — before its
// lifted 42-node cap may be trusted. Plus unit coverage for the packed-state
// abstraction and the budget/stats plumbing through the solver API.
#include "src/solvers/exact_astar.hpp"

#include <gtest/gtest.h>

#include "src/graph/dag_builder.hpp"
#include "src/pebble/bounds.hpp"
#include "src/pebble/verifier.hpp"
#include "src/solvers/api.hpp"
#include "src/solvers/exact.hpp"
#include "src/solvers/packed_state.hpp"
#include "src/support/check.hpp"
#include "src/support/rng.hpp"
#include "src/workloads/chain.hpp"
#include "src/workloads/pyramid.hpp"
#include "src/workloads/random_layered.hpp"
#include "src/workloads/tree_reduction.hpp"
#include "tests/support/legal_moves.hpp"

namespace rbpeb {
namespace {

// ---- PackedState ---------------------------------------------------------

template <typename Word>
void roundtrip_along_random_walk(const Engine& engine, std::uint64_t seed) {
  using Packed = BasicPackedState<Word>;
  const std::size_t n = engine.dag().node_count();
  ASSERT_LE(n, Packed::max_nodes());
  Rng rng(seed);
  GameState state = engine.initial_state();
  Packed packed = Packed::from_state(state);
  for (int step = 0; step < 200; ++step) {
    // Every field reads back, and the incremental key equals a re-encode.
    ASSERT_TRUE(test_support::same_fields(packed, state));
    ASSERT_EQ(packed, Packed::from_state(state));
    // Take a random legal move; the incremental update must agree with the
    // Engine's full transition.
    const std::vector<Move> legal = test_support::legal_moves(engine, state);
    if (legal.empty()) break;
    const Move move = legal[rng.next_below(legal.size())];
    Cost cost;
    engine.apply(state, move, cost);
    packed = packed.apply(move);
  }
}

TEST(PackedState, IncrementalUpdatesMatchEngineTransitions64) {
  Dag dag = make_random_layered_dag({.layers = 3, .width = 3, .indegree = 2,
                                     .seed = 11});
  for (const Model& model : all_models()) {
    Engine engine(dag, model, min_red_pebbles(dag));
    roundtrip_along_random_walk<std::uint64_t>(engine, 7);
  }
}

TEST(PackedState, IncrementalUpdatesMatchEngineTransitions128) {
  Dag dag = make_random_layered_dag({.layers = 6, .width = 5, .indegree = 2,
                                     .seed = 12});  // 30 nodes: wide path only
  ASSERT_GT(dag.node_count(), PackedState64::max_nodes());
  Engine engine(dag, Model::oneshot(), min_red_pebbles(dag));
  roundtrip_along_random_walk<unsigned __int128>(engine, 9);
}

TEST(PackedState, WidthCapsMatchTheDocumentedLimits) {
  EXPECT_EQ(PackedState64::max_nodes(), 21u);
  EXPECT_EQ(PackedState128::max_nodes(), 42u);
  EXPECT_EQ(kExactAstarFixedMaxNodes, 42u);
  // Past the fixed-width words the variable-width bigstate path carries the
  // search over two-word masks to 128 nodes and runtime-width masks beyond.
  EXPECT_EQ(StateBoundEvaluator::kWideMaskMaxNodes, 128u);
  EXPECT_EQ(kExactAstarMaxNodes, 1024u);
  EXPECT_EQ(kExactAstarMaxNodes, StateBoundEvaluator::kVecMaskMaxNodes);
}

// ---- differential harness ------------------------------------------------

void expect_same_optimum(const Engine& engine, const std::string& label) {
  ExactSearchStats dijkstra_stats, astar_stats;
  auto dijkstra = try_solve_exact(engine, 6'000'000, {}, &dijkstra_stats);
  auto astar = try_solve_exact_astar(engine, 6'000'000, {}, &astar_stats);
  ASSERT_TRUE(dijkstra.has_value()) << label;
  ASSERT_TRUE(astar.has_value()) << label;
  EXPECT_EQ(dijkstra->cost, astar->cost) << label;
  // Both traces replay to their reported costs under the strict engine.
  EXPECT_EQ(verify_or_throw(engine, astar->trace).total, astar->cost) << label;
}

class AstarMatchesDijkstra
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::size_t>> {
};

INSTANTIATE_TEST_SUITE_P(
    Fuzz, AstarMatchesDijkstra,
    ::testing::Combine(::testing::Values<std::uint64_t>(1, 2, 3, 4, 5),
                       ::testing::Values<std::size_t>(0, 1)));

TEST_P(AstarMatchesDijkstra, OnRandomLayeredDagsAcrossAllModels) {
  auto [seed, extra_r] = GetParam();
  for (const RandomLayeredSpec& spec :
       {RandomLayeredSpec{.layers = 3, .width = 3, .indegree = 2, .seed = 0},
        RandomLayeredSpec{.layers = 4, .width = 2, .indegree = 2, .seed = 0},
        RandomLayeredSpec{.layers = 2, .width = 4, .indegree = 3, .seed = 0}}) {
    RandomLayeredSpec seeded = spec;
    seeded.seed = seed;
    Dag dag = make_random_layered_dag(seeded);
    const std::size_t r = min_red_pebbles(dag) + extra_r;
    for (const Model& model : all_models()) {
      Engine engine(dag, model, r);
      expect_same_optimum(engine,
                          model.name() + " seed=" + std::to_string(seed));
    }
  }
}

TEST(AstarMatchesDijkstra, UnderBothHongKungConventions) {
  Dag dag = make_tree_reduction_dag(4).dag;  // 7 nodes
  for (const Model& model : all_models()) {
    for (bool sources_blue : {false, true}) {
      for (bool sinks_blue : {false, true}) {
        Engine engine(dag, model, 3,
                      PebblingConvention{.sources_start_blue = sources_blue,
                                         .sinks_end_blue = sinks_blue});
        expect_same_optimum(engine, model.name() +
                                        " sources_blue=" +
                                        std::to_string(sources_blue) +
                                        " sinks_blue=" +
                                        std::to_string(sinks_blue));
      }
    }
  }
}

TEST(AstarMatchesDijkstra, OnThePyramid) {
  Dag dag = make_pyramid_dag(3).dag;  // 6 nodes
  for (const Model& model : all_models()) {
    for (std::size_t r = min_red_pebbles(dag); r <= 4; ++r) {
      Engine engine(dag, model, r);
      expect_same_optimum(engine, model.name() + " R=" + std::to_string(r));
    }
  }
}

// The informed search must not just match — it must be cheaper. The oneshot
// model is where pruning bites hardest: Dijkstra wades through states whose
// needed values were computed and deleted (dead forever), A* drops them.
TEST(AstarExpansions, StrictlyFewerThanDijkstraOnOneshot) {
  Dag dag = make_random_layered_dag({.layers = 3, .width = 3, .indegree = 2,
                                     .seed = 5});
  Engine engine(dag, Model::oneshot(), min_red_pebbles(dag));
  ExactResult dijkstra = solve_exact(engine);
  ExactResult astar = solve_exact_astar(engine);
  EXPECT_EQ(dijkstra.cost, astar.cost);
  EXPECT_LT(astar.states_expanded, dijkstra.states_expanded);
}

TEST(AstarExpansions, StrictlyFewerThanDijkstraOnNodel) {
  Dag dag = make_random_layered_dag({.layers = 3, .width = 3, .indegree = 2,
                                     .seed = 5});
  Engine engine(dag, Model::nodel(), min_red_pebbles(dag));
  ExactResult dijkstra = solve_exact(engine);
  ExactResult astar = solve_exact_astar(engine);
  EXPECT_EQ(dijkstra.cost, astar.cost);
  EXPECT_LT(astar.states_expanded, dijkstra.states_expanded);
}

// ---- beyond the Dijkstra cap ---------------------------------------------

TEST(AstarScale, SolvesAChainDijkstraCannotTouch) {
  Dag dag = make_chain_dag(30);  // well past the 21-node Dijkstra cap
  Engine engine(dag, Model::oneshot(), 2);
  EXPECT_THROW(solve_exact(engine), PreconditionError);
  ExactResult result = solve_exact_astar(engine);
  // A 2-pebble sliding window computes the chain with no transfers at all.
  EXPECT_EQ(result.cost, Rational(0));
  EXPECT_TRUE(verify(engine, result.trace).ok());
}

TEST(AstarScale, SolvesA26NodeLayeredDagInNodel) {
  Dag dag = make_random_layered_dag({.layers = 13, .width = 2, .indegree = 2,
                                     .seed = 3});  // 26 nodes
  const std::size_t r = min_red_pebbles(dag);
  Engine engine(dag, Model::nodel(), r);
  ExactResult result = solve_exact_astar(engine, 4'000'000);
  EXPECT_TRUE(verify(engine, result.trace).ok());
  EXPECT_GE(result.cost, cost_lower_bound(dag, Model::nodel(), r));
}

TEST(AstarScale, RejectsDagsBeyondTheBigstateCap) {
  DagBuilder b;
  b.add_nodes(kExactAstarMaxNodes + 1);
  Dag dag = b.build();
  Engine engine(dag, Model::oneshot(), 1);
  EXPECT_THROW(solve_exact_astar(engine), PreconditionError);
}

// ---- budget and stats plumbing through the API ---------------------------

TEST(AstarApi, BudgetExhaustionReportsPartialStats) {
  Dag dag = make_random_layered_dag({.layers = 3, .width = 4, .indegree = 2,
                                     .seed = 6});
  Engine engine(dag, Model::oneshot(), min_red_pebbles(dag));
  SolveRequest request;
  request.engine = &engine;
  request.budget.max_states = 10;
  for (const char* name : {"exact", "exact-astar"}) {
    SolveResult result = SolverRegistry::instance().at(name).run(request);
    EXPECT_EQ(result.status, SolveStatus::BudgetExhausted) << name;
    ASSERT_TRUE(result.stats.contains("states_expanded")) << name;
    // The partial count reports exactly how far the search got before the
    // 10-state budget tripped.
    EXPECT_EQ(result.stats.at("states_expanded"), "10") << name;
    EXPECT_EQ(result.stats.at("max_states"), "10") << name;
  }
}

TEST(AstarApi, TrySolveFillsStatsOnBudgetExhaustion) {
  Dag dag = make_random_layered_dag({.layers = 3, .width = 4, .indegree = 2,
                                     .seed = 6});
  Engine engine(dag, Model::oneshot(), min_red_pebbles(dag));
  ExactSearchStats stats;
  EXPECT_EQ(try_solve_exact_astar(engine, 10, {}, &stats), std::nullopt);
  EXPECT_EQ(stats.termination, ExactTermination::StateBudget);
  EXPECT_EQ(stats.states_expanded, 10u);
  EXPECT_EQ(try_solve_exact(engine, 10, {}, &stats), std::nullopt);
  EXPECT_EQ(stats.termination, ExactTermination::StateBudget);
  EXPECT_EQ(stats.states_expanded, 10u);
}

// "When stats is non-null it is always filled" means filled fresh: a reused
// struct must not accumulate, or a second identical solve starts its budget
// check pre-spent and falsely reports BudgetExhausted.
TEST(AstarApi, ReusedStatsStructDoesNotAccumulateAcrossCalls) {
  Dag dag = make_chain_dag(8);
  Engine engine(dag, Model::oneshot(), 2);
  ExactSearchStats stats;
  auto first = try_solve_exact_astar(engine, 2'000'000, {}, &stats);
  ASSERT_TRUE(first.has_value());
  const std::size_t once = stats.states_expanded;
  // A budget the first solve fits must fit the second identical solve too.
  ASSERT_TRUE(try_solve_exact_astar(engine, once + 1, {}, &stats).has_value());
  EXPECT_EQ(stats.states_expanded, once);
  auto dijkstra = try_solve_exact(engine, 2'000'000, {}, &stats);
  ASSERT_TRUE(dijkstra.has_value());
  const std::size_t dijkstra_once = stats.states_expanded;
  ASSERT_TRUE(try_solve_exact(engine, dijkstra_once + 1, {}, &stats).has_value());
  EXPECT_EQ(stats.states_expanded, dijkstra_once);
}

TEST(AstarApi, ExpiredDeadlineStopsBeforeAnyExpansion) {
  Dag dag = make_random_layered_dag({.layers = 3, .width = 4, .indegree = 2,
                                     .seed = 6});
  Engine engine(dag, Model::oneshot(), min_red_pebbles(dag));
  ExactSearchStats stats;
  auto already_expired = [] { return true; };
  EXPECT_EQ(try_solve_exact_astar(engine, 2'000'000, already_expired, &stats),
            std::nullopt);
  EXPECT_EQ(stats.termination, ExactTermination::Stopped);
  EXPECT_EQ(stats.states_expanded, 0u);
  EXPECT_EQ(try_solve_exact(engine, 2'000'000, already_expired, &stats),
            std::nullopt);
  EXPECT_EQ(stats.termination, ExactTermination::Stopped);
  EXPECT_EQ(stats.states_expanded, 0u);
}

TEST(AstarApi, OptimalRunReportsExpansionStats) {
  Dag dag = make_chain_dag(6);
  Engine engine(dag, Model::oneshot(), 2);
  SolveRequest request;
  request.engine = &engine;
  SolveResult result = SolverRegistry::instance().at("exact-astar").run(request);
  ASSERT_EQ(result.status, SolveStatus::Optimal);
  EXPECT_TRUE(result.stats.contains("states_expanded"));
  EXPECT_EQ(result.cost, verify_or_throw(engine, *result.trace).total);
}

TEST(AstarApi, AgreesWithExactThroughThePortfolioRegistry) {
  Dag dag = make_tree_reduction_dag(4).dag;
  Engine engine(dag, Model::compcost(), 3);
  SolveRequest request;
  request.engine = &engine;
  SolveResult a = SolverRegistry::instance().at("exact").run(request);
  SolveResult b = SolverRegistry::instance().at("exact-astar").run(request);
  ASSERT_EQ(a.status, SolveStatus::Optimal);
  ASSERT_EQ(b.status, SolveStatus::Optimal);
  EXPECT_EQ(a.cost, b.cost);
}

TEST(AstarApi, UnknownOptionKeyListsAcceptedKeys) {
  Dag dag = make_chain_dag(4);
  Engine engine(dag, Model::oneshot(), 2);
  SolveRequest request;
  request.engine = &engine;
  request.options["max-statez"] = "10";
  try {
    SolverRegistry::instance().at("exact-astar").run(request);
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("max-states"), std::string::npos);
  }
}

}  // namespace
}  // namespace rbpeb
