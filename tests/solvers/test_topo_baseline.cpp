#include "src/solvers/greedy.hpp"

#include <gtest/gtest.h>

#include "src/graph/dag_algorithms.hpp"
#include "src/graph/dag_builder.hpp"
#include "src/pebble/bounds.hpp"
#include "src/pebble/verifier.hpp"
#include "src/support/check.hpp"
#include "src/workloads/random_layered.hpp"

namespace rbpeb {
namespace {

TEST(TopoBaseline, RejectsNonTopologicalOrder) {
  DagBuilder b;
  b.add_nodes(2);
  b.add_edge(0, 1);
  Dag dag = b.build();
  Engine engine(dag, Model::oneshot(), 2);
  EXPECT_THROW(pebble_in_order(engine, {1, 0}), PreconditionError);
}

TEST(TopoBaseline, MinimalBudgetChain) {
  DagBuilder b;
  b.add_nodes(6);
  for (NodeId v = 0; v + 1 < 6; ++v) b.add_edge(v, v + 1);
  Dag dag = b.build();
  Engine engine(dag, Model::oneshot(), 2);
  VerifyResult vr = verify_or_throw(engine, solve_topo_baseline(engine));
  EXPECT_EQ(vr.total, Rational(0));
  EXPECT_LE(vr.max_red, 2u);
}

class BaselineSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::size_t, std::size_t>> {};

INSTANTIATE_TEST_SUITE_P(
    RandomDags, BaselineSweep,
    ::testing::Combine(::testing::Values<std::uint64_t>(10, 11, 12, 13),
                       ::testing::Values<std::size_t>(2, 3),
                       ::testing::Values<std::size_t>(0, 3)));

// The paper's universal guarantee: any topological order can be pebbled at
// transfer cost <= (2Δ+1)·n with the minimum budget, in every model.
TEST_P(BaselineSweep, UniversalBoundHolds) {
  auto [seed, indeg, extra_r] = GetParam();
  Dag dag = make_random_layered_dag({.layers = 4, .width = 5, .indegree = indeg,
                                     .seed = seed});
  const std::size_t r = min_red_pebbles(dag) + extra_r;
  const std::int64_t n = static_cast<std::int64_t>(dag.node_count());
  const std::int64_t delta = static_cast<std::int64_t>(dag.max_indegree());
  for (const Model& model : all_models()) {
    Engine engine(dag, model, r);
    Trace trace = solve_topo_baseline(engine);
    VerifyResult vr = verify(engine, trace);
    ASSERT_TRUE(vr.ok()) << model.name() << ": " << vr.error;
    EXPECT_LE(Rational(vr.cost.transfers()), Rational((2 * delta + 1) * n))
        << model.name();
    EXPECT_LE(vr.max_red, r);
  }
}

TEST(TopoBaseline, ArbitraryTopologicalOrderAccepted) {
  Dag dag = make_random_layered_dag({.layers = 3, .width = 4, .indegree = 2,
                                     .seed = 77});
  // Reverse-of-Kahn variants: any valid topological order must work.
  auto order = topological_order(dag);
  Engine engine(dag, Model::nodel(), min_red_pebbles(dag));
  EXPECT_TRUE(verify(engine, pebble_in_order(engine, order)).ok());
}

TEST(TopoBaseline, NodelCostAtLeastNMinusR) {
  Dag dag = make_random_layered_dag({.layers = 5, .width = 5, .indegree = 2,
                                     .seed = 21});
  std::size_t r = min_red_pebbles(dag);
  Engine engine(dag, Model::nodel(), r);
  VerifyResult vr = verify_or_throw(engine, solve_topo_baseline(engine));
  EXPECT_GE(vr.total,
            Rational(static_cast<std::int64_t>(dag.node_count() - r)));
}

}  // namespace
}  // namespace rbpeb
