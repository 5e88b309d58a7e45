// The multi-level memory hierarchy extension.
#include "src/multilevel/ml_solver.hpp"

#include <gtest/gtest.h>

#include "src/graph/dag_builder.hpp"
#include "src/pebble/bounds.hpp"
#include "src/pebble/verifier.hpp"
#include "src/solvers/greedy.hpp"
#include "src/support/check.hpp"
#include "src/workloads/fft.hpp"
#include "src/workloads/matmul.hpp"
#include "src/workloads/tree_reduction.hpp"

namespace rbpeb {
namespace {

Dag edge_dag() {
  DagBuilder b;
  b.add_nodes(2);
  b.add_edge(0, 1);
  return b.build();
}

TEST(Hierarchy, Validation) {
  EXPECT_NO_THROW(validate(Hierarchy::two_level(4)));
  EXPECT_NO_THROW(validate(Hierarchy::three_level(4, 16)));
  EXPECT_THROW(validate(Hierarchy{{}, {}}), PreconditionError);
  EXPECT_THROW(validate(Hierarchy{{4}, {}}), PreconditionError);
  EXPECT_THROW(validate(Hierarchy{{0}, {1}}), PreconditionError);
  EXPECT_THROW(validate(Hierarchy{{4}, {-1}}), PreconditionError);
  EXPECT_EQ(Hierarchy::three_level(4, 16).levels(), 3u);
}

TEST(MlEngine, ComputeNeedsInputsAtLevelZero) {
  Dag dag = edge_dag();
  MlEngine engine(dag, Hierarchy::three_level(2, 4));
  MlState state = engine.initial_state();
  EXPECT_FALSE(engine.is_legal(state, {MlMoveType::Compute, 1}));
  engine.apply(state, {MlMoveType::Compute, 0});
  EXPECT_TRUE(engine.is_legal(state, {MlMoveType::Compute, 1}));
  engine.apply(state, {MlMoveType::Demote, 0});
  // Input at level 1 is not good enough.
  EXPECT_FALSE(engine.is_legal(state, {MlMoveType::Compute, 1}));
}

TEST(MlEngine, CapacitiesEnforcedPerLevel) {
  DagBuilder b;
  b.add_nodes(5);
  Dag dag = b.build();
  MlEngine engine(dag, Hierarchy{{2, 1}, {1, 5}});
  MlState state = engine.initial_state();
  engine.apply(state, {MlMoveType::Compute, 0});
  engine.apply(state, {MlMoveType::Compute, 1});
  EXPECT_FALSE(engine.is_legal(state, {MlMoveType::Compute, 2}));  // L0 full
  engine.apply(state, {MlMoveType::Demote, 0});
  engine.apply(state, {MlMoveType::Compute, 2});
  // Level 1 (capacity 1) is now full; demoting from level 0 must fail.
  EXPECT_FALSE(engine.is_legal(state, {MlMoveType::Demote, 1}));
  // But the bottom level is unbounded.
  engine.apply(state, {MlMoveType::Demote, 0});  // 0: level 1 -> 2
  EXPECT_TRUE(engine.is_legal(state, {MlMoveType::Demote, 1}));
}

TEST(MlEngine, PromoteDemoteBoundaries) {
  Dag dag = edge_dag();
  MlEngine engine(dag, Hierarchy::three_level(2, 4));
  MlState state = engine.initial_state();
  engine.apply(state, {MlMoveType::Compute, 0});
  EXPECT_FALSE(engine.is_legal(state, {MlMoveType::Promote, 0}));  // at top
  engine.apply(state, {MlMoveType::Demote, 0});
  engine.apply(state, {MlMoveType::Demote, 0});
  EXPECT_FALSE(engine.is_legal(state, {MlMoveType::Demote, 0}));  // at bottom
  EXPECT_FALSE(engine.is_legal(state, {MlMoveType::Promote, 1}));  // absent
}

TEST(MlEngine, TransferCostsPerBoundary) {
  Dag dag = edge_dag();
  MlEngine engine(dag, Hierarchy::three_level(2, 4, 1, 10));
  MlState state = engine.initial_state();
  engine.apply(state, {MlMoveType::Compute, 0});
  EXPECT_EQ(engine.apply(state, {MlMoveType::Demote, 0}), 1);   // L0 -> L1
  EXPECT_EQ(engine.apply(state, {MlMoveType::Demote, 0}), 10);  // L1 -> L2
  EXPECT_EQ(engine.apply(state, {MlMoveType::Promote, 0}), 10);
  EXPECT_EQ(engine.apply(state, {MlMoveType::Promote, 0}), 1);
}

TEST(MlEngine, OneshotRuleEnforced) {
  Dag dag = edge_dag();
  MlEngine engine(dag, Hierarchy::two_level(2));
  MlState state = engine.initial_state();
  engine.apply(state, {MlMoveType::Compute, 0});
  engine.apply(state, {MlMoveType::Delete, 0});
  EXPECT_FALSE(engine.is_legal(state, {MlMoveType::Compute, 0}));
}

TEST(MlSolver, HugeCapacityIsFree) {
  Dag dag = make_tree_reduction_dag(32).dag;
  MlEngine engine(dag, Hierarchy{{1024, 1024}, {1, 10}});
  MlVerifyResult vr = ml_verify(engine, solve_ml_topo(engine));
  ASSERT_TRUE(vr.ok()) << vr.error;
  EXPECT_EQ(vr.total_cost, 0);
}

TEST(MlSolver, ValidOnWorkloads) {
  std::vector<Dag> dags;
  dags.push_back(make_matmul_dag(4).dag);
  dags.push_back(make_fft_dag(16).dag);
  dags.push_back(make_tree_reduction_dag(20).dag);
  for (const Dag& dag : dags) {
    for (Hierarchy h :
         {Hierarchy::two_level(6), Hierarchy::three_level(4, 12),
          Hierarchy{{3, 6, 12}, {1, 4, 16}}}) {
      MlEngine engine(dag, h);
      MlVerifyResult vr = ml_verify(engine, solve_ml_topo(engine));
      ASSERT_TRUE(vr.ok()) << vr.error;
      // Peak occupancy respects every bounded level.
      for (std::size_t l = 0; l + 1 < h.levels(); ++l) {
        EXPECT_LE(vr.peak_occupancy[l], h.capacities[l]);
      }
    }
  }
}

TEST(MlSolver, CostMonotoneInTopLevelCapacity) {
  Dag dag = make_matmul_dag(5).dag;
  std::int64_t prev = -1;
  for (std::size_t l0 : {3u, 6u, 12u, 24u}) {
    MlEngine engine(dag, Hierarchy::three_level(l0, 64));
    MlVerifyResult vr = ml_verify(engine, solve_ml_topo(engine));
    ASSERT_TRUE(vr.ok());
    if (prev >= 0) EXPECT_LE(vr.total_cost, prev);
    prev = vr.total_cost;
  }
}

TEST(MlSolver, TwoLevelMatchesClassicBaselineCost) {
  // With levels() == 2 the game degenerates to classic oneshot pebbling;
  // the multi-level baseline and the classic ordered pebbler implement the
  // same strategy, so audited costs must agree exactly.
  for (std::size_t r : {3u, 5u, 9u}) {
    Dag dag = make_fft_dag(16).dag;
    MlEngine ml_engine(dag, Hierarchy::two_level(r));
    MlVerifyResult ml = ml_verify(ml_engine, solve_ml_topo(ml_engine));
    ASSERT_TRUE(ml.ok()) << ml.error;

    Engine engine(dag, Model::oneshot(), r);
    VerifyResult classic = verify_or_throw(engine, solve_topo_baseline(engine));
    EXPECT_EQ(ml.total_cost, classic.total.num()) << "R=" << r;
  }
}

TEST(MlSolver, BigSlowBoundaryDominatesCost) {
  // With a 10x cost on the lower boundary, most of the bill should come
  // from level-1 <-> level-2 traffic when level 1 is small.
  Dag dag = make_matmul_dag(5).dag;
  MlEngine engine(dag, Hierarchy::three_level(4, 8, 1, 10));
  MlVerifyResult vr = ml_verify(engine, solve_ml_topo(engine));
  ASSERT_TRUE(vr.ok());
  ASSERT_EQ(vr.boundary_transfers.size(), 2u);
  EXPECT_GT(vr.boundary_transfers[0], 0);
  // A bigger mid-level cache suppresses slow-memory traffic.
  MlEngine big(dag, Hierarchy::three_level(4, 512, 1, 10));
  MlVerifyResult vr_big = ml_verify(big, solve_ml_topo(big));
  ASSERT_TRUE(vr_big.ok());
  EXPECT_LT(vr_big.boundary_transfers[1], vr.boundary_transfers[1]);
}

TEST(MlVerify, ReportsIllegalMove) {
  Dag dag = edge_dag();
  MlEngine engine(dag, Hierarchy::two_level(2));
  MlTrace trace;
  trace.push({MlMoveType::Compute, 1});  // input not at level 0
  MlVerifyResult vr = ml_verify(engine, trace);
  EXPECT_FALSE(vr.legal);
  EXPECT_EQ(vr.failed_at, 0u);
  EXPECT_NE(vr.error.find("compute"), std::string::npos);
}

TEST(MlEngine, RejectsTooSmallTopLevel) {
  DagBuilder b;
  b.add_nodes(4);
  b.add_edge(0, 3);
  b.add_edge(1, 3);
  b.add_edge(2, 3);
  Dag dag = b.build();  // Δ = 3
  EXPECT_THROW(MlEngine(dag, Hierarchy::two_level(3)), PreconditionError);
  EXPECT_NO_THROW(MlEngine(dag, Hierarchy::two_level(4)));
}

}  // namespace
}  // namespace rbpeb
