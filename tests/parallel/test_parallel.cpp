// Parallel ("shades of red") pebbling extension.
#include "src/parallel/par_engine.hpp"

#include <gtest/gtest.h>

#include "src/graph/dag_builder.hpp"
#include "src/pebble/bounds.hpp"
#include "src/pebble/verifier.hpp"
#include "src/solvers/greedy.hpp"
#include "src/support/check.hpp"
#include "src/workloads/fft.hpp"
#include "src/workloads/matmul.hpp"
#include "src/workloads/stencil.hpp"

namespace rbpeb {
namespace {

Dag edge_dag() {
  DagBuilder b;
  b.add_nodes(2);
  b.add_edge(0, 1);
  return b.build();
}

TEST(ParEngine, ComputeNeedsLocalInputs) {
  Dag dag = edge_dag();
  ParEngine engine(dag, 2, 2);
  ParState state = engine.initial_state();
  engine.apply(state, {ParMove::Type::Compute, 0, 0});
  // Processor 1 cannot compute node 1: input lives in processor 0's memory.
  EXPECT_FALSE(engine.is_legal(state, {ParMove::Type::Compute, 1, 1}));
  EXPECT_TRUE(engine.is_legal(state, {ParMove::Type::Compute, 0, 1}));
  // Publish and fetch: now processor 1 can compute.
  engine.apply(state, {ParMove::Type::Store, 0, 0});
  engine.apply(state, {ParMove::Type::Load, 1, 0});
  EXPECT_TRUE(engine.is_legal(state, {ParMove::Type::Compute, 1, 1}));
}

TEST(ParEngine, CopiesCoexistAndCapacitiesArePerProcessor) {
  DagBuilder b;
  b.add_nodes(3);
  Dag dag = b.build();
  ParEngine engine(dag, 2, 2);
  ParState state = engine.initial_state();
  engine.apply(state, {ParMove::Type::Compute, 0, 0});
  engine.apply(state, {ParMove::Type::Store, 0, 0});
  engine.apply(state, {ParMove::Type::Load, 1, 0});
  EXPECT_TRUE(state.red_at(0, 0));
  EXPECT_TRUE(state.red_at(1, 0));  // both processors hold copies
  EXPECT_TRUE(state.blue(0));
  // Fill processor 0; processor 1 still has room.
  engine.apply(state, {ParMove::Type::Compute, 0, 1});
  EXPECT_FALSE(engine.is_legal(state, {ParMove::Type::Compute, 0, 2}));
  EXPECT_TRUE(engine.is_legal(state, {ParMove::Type::Compute, 1, 2}));
}

TEST(ParEngine, OneshotIsGlobal) {
  Dag dag = edge_dag();
  ParEngine engine(dag, 2, 2);
  ParState state = engine.initial_state();
  engine.apply(state, {ParMove::Type::Compute, 0, 0});
  // No other processor may recompute node 0.
  EXPECT_FALSE(engine.is_legal(state, {ParMove::Type::Compute, 1, 0}));
}

TEST(ParEngine, StoreIdempotenceRejected) {
  Dag dag = edge_dag();
  ParEngine engine(dag, 1, 2);
  ParState state = engine.initial_state();
  engine.apply(state, {ParMove::Type::Compute, 0, 0});
  engine.apply(state, {ParMove::Type::Store, 0, 0});
  EXPECT_FALSE(engine.is_legal(state, {ParMove::Type::Store, 0, 0}));
  EXPECT_THROW(engine.apply(state, {ParMove::Type::Store, 0, 0}),
               PreconditionError);
}

TEST(ParScheduler, ValidOnWorkloads) {
  std::vector<Dag> dags;
  dags.push_back(make_matmul_dag(4).dag);
  dags.push_back(make_fft_dag(16).dag);
  dags.push_back(make_stencil1d_dag(12, 6).dag);
  for (const Dag& dag : dags) {
    for (std::size_t procs : {1u, 2u, 4u}) {
      ParEngine engine(dag, procs, min_red_pebbles(dag) + 3);
      auto schedule = solve_par_owner_computes(engine);
      ParVerifyResult vr = par_verify(engine, schedule);
      ASSERT_TRUE(vr.ok()) << "procs=" << procs << ": " << vr.error;
      // Every node computed exactly once, somewhere.
      std::int64_t computes = 0;
      for (std::int64_t c : vr.computes_per_proc) computes += c;
      EXPECT_EQ(computes, static_cast<std::int64_t>(dag.node_count()));
    }
  }
}

TEST(ParScheduler, SingleProcessorMatchesSequentialShape) {
  // P = 1 degenerates to classic oneshot pebbling; communication volume
  // should be comparable to the sequential baseline's transfers.
  Dag dag = make_fft_dag(16).dag;
  std::size_t r = 6;
  ParEngine par(dag, 1, r);
  ParVerifyResult pv = par_verify(par, solve_par_owner_computes(par));
  ASSERT_TRUE(pv.ok());

  Engine seq(dag, Model::oneshot(), r);
  VerifyResult sv = verify_or_throw(seq, solve_topo_baseline(seq));
  // The parallel store/load protocol persists blue copies, so it can only
  // differ from the sequential count by bounded bookkeeping.
  EXPECT_LE(pv.transfers(), 2 * sv.cost.transfers() + 4);
}

TEST(ParScheduler, BoundaryExchangesGrowWithProcessorCount) {
  // With fast memories large enough that capacity never evicts, all
  // communication is publish/fetch across ownership boundaries — zero for
  // one processor, and monotone in P for block-partitioned stencils.
  Dag dag = make_stencil1d_dag(32, 8).dag;
  const std::size_t big_r = dag.node_count() + 1;
  std::int64_t prev = -1;
  for (std::size_t procs : {1u, 2u, 4u, 8u}) {
    ParEngine engine(dag, procs, big_r);
    ParVerifyResult vr = par_verify(engine, solve_par_owner_computes(engine));
    ASSERT_TRUE(vr.ok());
    if (procs == 1) EXPECT_EQ(vr.transfers(), 0);
    if (prev >= 0) EXPECT_GT(vr.transfers(), prev);
    prev = vr.transfers();
  }
}

TEST(ParScheduler, FragmentingFixedCapacityCostsCommunication) {
  // Same aggregate fast capacity, split across more processors: the
  // fragmentation plus boundary traffic cannot beat the single big cache.
  Dag dag = make_stencil1d_dag(32, 8).dag;
  ParEngine one(dag, 1, 16);
  ParEngine four(dag, 4, 4);
  std::int64_t single =
      par_verify(one, solve_par_owner_computes(one)).transfers();
  std::int64_t split =
      par_verify(four, solve_par_owner_computes(four)).transfers();
  EXPECT_GT(split, single / 4);
}

TEST(ParScheduler, WorkBalancedAcrossProcessors) {
  Dag dag = make_stencil1d_dag(40, 10).dag;
  ParEngine engine(dag, 4, 12);
  ParVerifyResult vr = par_verify(engine, solve_par_owner_computes(engine));
  ASSERT_TRUE(vr.ok());
  std::int64_t total = 0;
  for (std::int64_t c : vr.computes_per_proc) total += c;
  for (std::int64_t c : vr.computes_per_proc) {
    EXPECT_GT(c, total / 8);  // no processor does less than half its share
  }
  // The makespan proxy beats serial execution.
  EXPECT_LT(vr.makespan, total);
}

TEST(ParVerify, ReportsIllegalMoves) {
  Dag dag = edge_dag();
  ParEngine engine(dag, 2, 2);
  std::vector<ParMove> bad = {{ParMove::Type::Load, 0, 0}};
  ParVerifyResult vr = par_verify(engine, bad);
  EXPECT_FALSE(vr.legal);
  EXPECT_EQ(vr.failed_at, 0u);
}

}  // namespace
}  // namespace rbpeb
