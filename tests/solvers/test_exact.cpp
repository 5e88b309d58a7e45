#include "src/solvers/exact.hpp"

#include <gtest/gtest.h>

#include "src/graph/dag_builder.hpp"
#include "src/pebble/bounds.hpp"
#include "src/solvers/greedy.hpp"
#include "src/support/check.hpp"
#include "src/workloads/chain.hpp"
#include "src/workloads/pyramid.hpp"
#include "src/workloads/random_layered.hpp"

namespace rbpeb {
namespace {

TEST(Exact, ChainCostsZeroTransfers) {
  for (const Model& model : all_models()) {
    Dag dag = make_chain_dag(5);
    Engine engine(dag, model, 2);
    ExactResult result = solve_exact(engine);
    VerifyResult vr = verify_or_throw(engine, result.trace);
    EXPECT_EQ(vr.total, result.cost) << model.name();
    if (model.kind() == ModelKind::Compcost) {
      // Five computations at eps = 1/100 each; no transfers needed.
      EXPECT_EQ(result.cost, Rational(5, 100));
    } else if (model.kind() == ModelKind::Nodel) {
      // Pebbles cannot be deleted; n - R = 3 stores are forced.
      EXPECT_EQ(result.cost, Rational(3));
    } else {
      EXPECT_EQ(result.cost, Rational(0));
    }
  }
}

TEST(Exact, ForcedSpillOnIndependentSources) {
  // Three sources, one budget of 2: sinks are the sources themselves, so
  // all three get computed; one must be stored... actually all fit as two
  // red + one stored.
  DagBuilder b;
  b.add_nodes(3);
  Dag dag = b.build();
  Engine engine(dag, Model::oneshot(), 2);
  ExactResult result = solve_exact(engine);
  EXPECT_EQ(result.cost, Rational(1));
  EXPECT_TRUE(verify(engine, result.trace).ok());
}

TEST(Exact, DiamondNeedsNoTransfersWithThreePebbles) {
  DagBuilder b;
  b.add_nodes(4);
  b.add_edge(0, 1);
  b.add_edge(0, 2);
  b.add_edge(1, 3);
  b.add_edge(2, 3);
  Dag dag = b.build();
  Engine engine(dag, Model::oneshot(), 3);
  EXPECT_EQ(solve_exact(engine).cost, Rational(0));
}

TEST(Exact, ReportedCostMatchesReplayEverywhere) {
  Dag dag = make_random_layered_dag({.layers = 3, .width = 3, .indegree = 2,
                                     .seed = 5});
  for (const Model& model : all_models()) {
    Engine engine(dag, model, min_red_pebbles(dag));
    ExactResult result = solve_exact(engine);
    VerifyResult vr = verify_or_throw(engine, result.trace);
    EXPECT_EQ(vr.total, result.cost) << model.name();
  }
}

TEST(Exact, LowerBoundsRespected) {
  Dag dag = make_random_layered_dag({.layers = 3, .width = 3, .indegree = 2,
                                     .seed = 8});
  for (const Model& model : all_models()) {
    std::size_t r = min_red_pebbles(dag);
    Engine engine(dag, model, r);
    ExactResult result = solve_exact(engine);
    EXPECT_GE(result.cost, cost_lower_bound(dag, model, r)) << model.name();
  }
}

// Property: no heuristic ever beats the exact optimum.
class ExactDominates
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::size_t>> {};

INSTANTIATE_TEST_SUITE_P(TinyDags, ExactDominates,
                         ::testing::Combine(::testing::Values<std::uint64_t>(
                                                1, 2, 3, 4, 5),
                                            ::testing::Values<std::size_t>(0, 1)));

TEST_P(ExactDominates, GreedyAndBaselineAreUpperBounds) {
  auto [seed, extra_r] = GetParam();
  Dag dag = make_random_layered_dag({.layers = 3, .width = 3, .indegree = 2,
                                     .seed = seed});
  std::size_t r = min_red_pebbles(dag) + extra_r;
  for (const Model& model : all_models()) {
    Engine engine(dag, model, r);
    ExactResult exact = solve_exact(engine);
    Rational greedy_cost =
        verify_or_throw(engine, solve_greedy(engine)).total;
    Rational baseline_cost =
        verify_or_throw(engine, solve_topo_baseline(engine)).total;
    EXPECT_LE(exact.cost, greedy_cost) << model.name();
    EXPECT_LE(exact.cost, baseline_cost) << model.name();
  }
}

TEST(Exact, MoreRedPebblesNeverIncreaseOptimum) {
  Dag dag = make_pyramid_dag(3).dag;  // 6 nodes
  Rational prev = Rational(1'000'000);
  for (std::size_t r = min_red_pebbles(dag); r <= 5; ++r) {
    Engine engine(dag, Model::oneshot(), r);
    Rational cost = solve_exact(engine).cost;
    EXPECT_LE(cost, prev) << "R=" << r;
    prev = cost;
  }
}

TEST(Exact, OptDropsByAtMostTwoNPerPebble) {
  // Section 5: opt(R-1) <= opt(R) + 2n in oneshot.
  Dag dag = make_pyramid_dag(3).dag;
  std::int64_t n = static_cast<std::int64_t>(dag.node_count());
  std::optional<Rational> prev;  // opt at R+1 relative to current
  for (std::size_t r = 5; r >= min_red_pebbles(dag); --r) {
    Engine engine(dag, Model::oneshot(), r);
    Rational cost = solve_exact(engine).cost;
    if (prev) {
      EXPECT_LE(cost, *prev + Rational(2 * n));
    }
    prev = cost;
  }
}

TEST(Exact, RejectsOversizedDag) {
  DagBuilder b;
  b.add_nodes(22);
  Dag dag = b.build();
  Engine engine(dag, Model::oneshot(), 1);
  EXPECT_THROW(solve_exact(engine), PreconditionError);
}

TEST(Exact, StateBudgetExhaustionReported) {
  Dag dag = make_random_layered_dag({.layers = 3, .width = 4, .indegree = 2,
                                     .seed = 6});
  Engine engine(dag, Model::oneshot(), min_red_pebbles(dag));
  EXPECT_EQ(try_solve_exact(engine, 1), std::nullopt);
  EXPECT_THROW(solve_exact(engine, 1), InvariantError);
}

}  // namespace
}  // namespace rbpeb
