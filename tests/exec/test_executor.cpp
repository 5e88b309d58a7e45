// Data-level validation: pebbling traces are executable schedules.
#include "src/exec/executor.hpp"

#include <gtest/gtest.h>

#include "src/graph/dag_builder.hpp"
#include "src/pebble/bounds.hpp"
#include "src/pebble/verifier.hpp"
#include "src/solvers/exact.hpp"
#include "src/solvers/greedy.hpp"
#include "src/support/check.hpp"
#include "src/workloads/fft.hpp"
#include "src/workloads/matmul.hpp"
#include "src/workloads/stencil.hpp"

namespace rbpeb {
namespace {

TEST(Executor, ReferenceEvaluationSumsAlongPaths) {
  DagBuilder b;
  NodeId x = b.add_node();  // value 1
  NodeId y = b.add_node();  // value 2
  NodeId z = b.add_node();  // x + y = 3
  b.add_edge(x, z);
  b.add_edge(y, z);
  Dag dag = b.build();
  auto values = reference_evaluation(dag);
  EXPECT_DOUBLE_EQ(values[x], 1.0);
  EXPECT_DOUBLE_EQ(values[y], 2.0);
  EXPECT_DOUBLE_EQ(values[z], 3.0);
}

// Property: every solver's schedule computes exactly the reference values,
// and its data movement agrees with the verifier's accounting.
class ExecutorSolvers : public ::testing::TestWithParam<std::size_t> {
 protected:
  const Model& model() const { return all_models()[GetParam()]; }
};

INSTANTIATE_TEST_SUITE_P(Models, ExecutorSolvers,
                         ::testing::Range<std::size_t>(0, 4),
                         [](const auto& info) {
                           return std::string(all_models()[info.param].name());
                         });

TEST_P(ExecutorSolvers, SchedulesComputeCorrectValues) {
  std::vector<Dag> dags;
  dags.push_back(make_matmul_dag(3).dag);
  dags.push_back(make_fft_dag(8).dag);
  dags.push_back(make_stencil1d_dag(6, 3).dag);
  for (const Dag& dag : dags) {
    Engine engine(dag, model(), min_red_pebbles(dag) + 1);
    for (const Trace& trace :
         {solve_greedy(engine), solve_topo_baseline(engine)}) {
      VerifyResult vr = verify(engine, trace);
      ASSERT_TRUE(vr.ok()) << model().name() << ": " << vr.error;
      ExecutionResult exec = execute_trace(engine, trace);
      auto reference = reference_evaluation(dag);
      for (std::size_t v = 0; v < dag.node_count(); ++v) {
        if (exec.values[v].has_value()) {
          EXPECT_DOUBLE_EQ(*exec.values[v], reference[v]);
        }
      }
      // Every sink was computed with the right value.
      for (NodeId sink : dag.sinks()) {
        ASSERT_TRUE(exec.values[sink].has_value());
      }
      // Data movement agrees with the verifier's move counts.
      EXPECT_EQ(exec.loads, vr.cost.loads);
      EXPECT_EQ(exec.stores, vr.cost.stores);
      // The schedule never exceeded the red-pebble budget at the data level.
      EXPECT_LE(exec.peak_fast_slots, engine.red_limit());
      EXPECT_EQ(exec.peak_fast_slots, vr.max_red);
    }
  }
}

TEST(Executor, ExactSolverScheduleExecutes) {
  Dag dag = make_matmul_dag(2).dag;
  Engine engine(dag, Model::oneshot(), 4);
  Trace trace = solve_greedy(engine);
  ExecutionResult exec = execute_trace(engine, trace);
  auto reference = reference_evaluation(dag);
  for (NodeId sink : dag.sinks()) {
    ASSERT_TRUE(exec.values[sink].has_value());
    EXPECT_DOUBLE_EQ(*exec.values[sink], reference[sink]);
  }
}

TEST(Executor, CustomOpSemantics) {
  DagBuilder b;
  NodeId x = b.add_node();
  NodeId y = b.add_node();
  b.add_edge(x, y);
  Dag dag = b.build();
  Engine engine(dag, Model::oneshot(), 2);
  Trace trace;
  trace.push_compute(x);
  trace.push_compute(y);
  NodeOp doubler = [](NodeId v, std::span<const double> inputs) {
    if (inputs.empty()) return 5.0 + v;
    return inputs[0] * 2.0;
  };
  ExecutionResult exec = execute_trace(engine, trace, doubler);
  EXPECT_DOUBLE_EQ(*exec.values[y], 10.0);
}

TEST(Executor, DetectsCorruptSchedules) {
  DagBuilder b;
  b.add_nodes(2);
  b.add_edge(0, 1);
  Dag dag = b.build();
  Engine engine(dag, Model::base(), 2);
  // Hand-build a move list that the executor must reject at the data level
  // (it is also illegal for the engine, but the executor checks run first
  // on raw traces).
  Trace bad;
  bad.push_load(0);  // nothing in slow memory yet
  EXPECT_THROW(execute_trace(engine, bad), InvariantError);
}

TEST(Executor, RecomputationReproducesTheSameValue) {
  DagBuilder b;
  b.add_nodes(1);
  Dag dag = b.build();
  Engine engine(dag, Model::base(), 1);
  Trace trace;
  trace.push_compute(0);
  trace.push_delete(0);
  trace.push_compute(0);
  ExecutionResult exec = execute_trace(engine, trace);
  EXPECT_DOUBLE_EQ(*exec.values[0], 1.0);
}

}  // namespace
}  // namespace rbpeb
