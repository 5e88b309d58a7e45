#include "src/solvers/peephole.hpp"

#include <gtest/gtest.h>

#include "src/graph/dag_builder.hpp"
#include "src/pebble/bounds.hpp"
#include "src/pebble/verifier.hpp"
#include "src/solvers/greedy.hpp"
#include "src/support/check.hpp"
#include "src/workloads/fft.hpp"
#include "src/workloads/matmul.hpp"

namespace rbpeb {
namespace {

TEST(Peephole, RemovesAPointlessSpill) {
  DagBuilder b;
  b.add_nodes(2);
  b.add_edge(0, 1);
  Dag dag = b.build();
  Engine engine(dag, Model::oneshot(), 2);
  // A wasteful schedule: spill and reload for no reason.
  Trace wasteful;
  wasteful.push_compute(0);
  wasteful.push_store(0);
  wasteful.push_load(0);
  wasteful.push_compute(1);
  ASSERT_EQ(verify(engine, wasteful).total, Rational(2));

  PeepholeStats stats;
  Trace optimized = peephole_optimize(engine, wasteful, &stats);
  VerifyResult vr = verify(engine, optimized);
  EXPECT_TRUE(vr.ok());
  EXPECT_EQ(vr.total, Rational(0));
  EXPECT_EQ(stats.saved, Rational(2));
  EXPECT_EQ(stats.removed_moves, 2u);
}

TEST(Peephole, RemovesDanglingStore) {
  DagBuilder b;
  b.add_nodes(2);
  b.add_edge(0, 1);
  Dag dag = b.build();
  Engine engine(dag, Model::oneshot(), 2);
  Trace trace;
  trace.push_compute(0);
  trace.push_compute(1);
  trace.push_store(0);  // 0 is dead; the store buys nothing
  Trace optimized = peephole_optimize(engine, trace);
  EXPECT_EQ(verify(engine, optimized).total, Rational(0));
}

TEST(Peephole, NeverWorseAndAlwaysValid) {
  std::vector<Dag> dags;
  dags.push_back(make_matmul_dag(3).dag);
  dags.push_back(make_fft_dag(8).dag);
  for (const Dag& dag : dags) {
    for (const Model& model : all_models()) {
      Engine engine(dag, model, min_red_pebbles(dag) + 1);
      for (const Trace& trace :
           {solve_greedy(engine), solve_topo_baseline(engine)}) {
        Rational before = verify_or_throw(engine, trace).total;
        Trace optimized = peephole_optimize(engine, trace);
        VerifyResult vr = verify(engine, optimized);
        ASSERT_TRUE(vr.ok()) << model.name();
        EXPECT_LE(vr.total, before) << model.name();
      }
    }
  }
}

TEST(Peephole, KeepsNecessarySpills) {
  // Three independent sinks, two slots: one spill is unavoidable.
  DagBuilder b;
  b.add_nodes(3);
  Dag dag = b.build();
  Engine engine(dag, Model::oneshot(), 2);
  Trace trace;
  trace.push_compute(0);
  trace.push_compute(1);
  trace.push_store(0);
  trace.push_compute(2);
  Trace optimized = peephole_optimize(engine, trace);
  EXPECT_EQ(verify(engine, optimized).total, Rational(1));
}

TEST(Peephole, RejectsInvalidInput) {
  DagBuilder b;
  b.add_nodes(1);
  Dag dag = b.build();
  Engine engine(dag, Model::oneshot(), 1);
  EXPECT_THROW(peephole_optimize(engine, Trace{}), PreconditionError);
}

}  // namespace
}  // namespace rbpeb
