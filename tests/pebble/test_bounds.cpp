// Section 3 / Lemma 1 bounds as executable checks.
#include "src/pebble/bounds.hpp"

#include <gtest/gtest.h>

#include "src/graph/dag_builder.hpp"
#include "src/pebble/verifier.hpp"
#include "src/solvers/exact.hpp"
#include "src/solvers/topo_baseline.hpp"
#include "src/support/rng.hpp"
#include "src/workloads/random_layered.hpp"
#include "tests/support/legal_moves.hpp"

namespace rbpeb {
namespace {

TEST(Bounds, MinRedPebbles) {
  DagBuilder b;
  b.add_nodes(4);
  b.add_edge(0, 3);
  b.add_edge(1, 3);
  b.add_edge(2, 3);
  EXPECT_EQ(min_red_pebbles(b.build()), 4u);  // Δ+1 = 4

  DagBuilder empty;
  EXPECT_EQ(min_red_pebbles(empty.build()), 0u);

  DagBuilder edgeless;
  edgeless.add_nodes(3);
  EXPECT_EQ(min_red_pebbles(edgeless.build()), 1u);
}

TEST(Bounds, UniversalUpperBoundForms) {
  Dag dag = make_random_layered_dag({.layers = 3, .width = 4, .indegree = 2,
                                     .seed = 2});
  std::int64_t n = static_cast<std::int64_t>(dag.node_count());
  std::int64_t delta = static_cast<std::int64_t>(dag.max_indegree());
  EXPECT_EQ(universal_cost_upper_bound(dag, Model::oneshot()),
            Rational((2 * delta + 1) * n));
  EXPECT_EQ(universal_cost_upper_bound(dag, Model::compcost()),
            Rational((2 * delta + 1) * n) + Rational(n, 100));
}

TEST(Bounds, LowerBoundsPerModel) {
  Dag dag = make_random_layered_dag({.layers = 4, .width = 5, .indegree = 2,
                                     .seed = 3});
  std::int64_t n = static_cast<std::int64_t>(dag.node_count());
  std::int64_t sources = static_cast<std::int64_t>(dag.sources().size());
  EXPECT_EQ(cost_lower_bound(dag, Model::base(), 3), Rational(0));
  EXPECT_EQ(cost_lower_bound(dag, Model::oneshot(), 3), Rational(0));
  EXPECT_EQ(cost_lower_bound(dag, Model::nodel(), 3), Rational(n - 3));
  EXPECT_EQ(cost_lower_bound(dag, Model::compcost(), 3),
            Rational(n - sources, 100));
  // nodel bound clamps at zero when R >= n.
  EXPECT_EQ(cost_lower_bound(dag, Model::nodel(), dag.node_count() + 5),
            Rational(0));
}

class BoundsHoldOnRandomDags
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::size_t>> {};

INSTANTIATE_TEST_SUITE_P(
    Sweep, BoundsHoldOnRandomDags,
    ::testing::Combine(::testing::Values<std::uint64_t>(1, 2, 3),
                       ::testing::Values<std::size_t>(0, 2, 5)));

// Property: the topo-order baseline respects the universal cost bound and
// the Lemma 1 length bound in every model, for any budget >= Δ+1.
TEST_P(BoundsHoldOnRandomDags, BaselineWithinUniversalBounds) {
  auto [seed, extra_r] = GetParam();
  Dag dag = make_random_layered_dag({.layers = 5, .width = 6, .indegree = 3,
                                     .seed = seed});
  std::size_t r = min_red_pebbles(dag) + extra_r;
  for (const Model& model : all_models()) {
    Engine engine(dag, model, r);
    Trace trace = solve_topo_baseline(engine);
    VerifyResult vr = verify(engine, trace);
    ASSERT_TRUE(vr.ok()) << model.name() << ": " << vr.error;
    EXPECT_LE(vr.total, universal_cost_upper_bound(dag, model))
        << model.name();
    EXPECT_GE(vr.total, cost_lower_bound(dag, model, r)) << model.name();
    std::size_t length_bound = optimal_length_upper_bound(dag, model);
    EXPECT_LE(trace.size(), length_bound) << model.name();
  }
}

// ---- per-state bounds (the exact-astar heuristic) ------------------------

// The defining property of an admissible heuristic: along an *optimal*
// trace, the bound at every intermediate state never exceeds the true
// remaining cost (total optimum minus cost already paid).
TEST(StateBounds, AdmissibleAlongOptimalTraces) {
  Dag dag = make_random_layered_dag({.layers = 3, .width = 3, .indegree = 2,
                                     .seed = 4});
  for (const Model& model : all_models()) {
    const std::size_t r = min_red_pebbles(dag);
    Engine engine(dag, model, r);
    ExactResult optimal = solve_exact(engine);
    GameState state = engine.initial_state();
    Cost paid;
    for (const Move& move : optimal.trace) {
      std::optional<Rational> bound = state_cost_lower_bound(engine, state);
      ASSERT_TRUE(bound.has_value()) << model.name();
      EXPECT_LE(*bound, optimal.cost - model.total(paid)) << model.name();
      engine.apply(state, move, paid);
    }
    EXPECT_EQ(state_cost_lower_bound(engine, state), Rational(0))
        << model.name() << ": nonzero bound at a complete state";
  }
}

// At the empty start the per-state bound dominates the whole-instance bound
// of cost_lower_bound (it sees the same counting arguments and more).
TEST(StateBounds, AtLeastTheGlobalLowerBoundAtTheStart) {
  Dag dag = make_random_layered_dag({.layers = 4, .width = 4, .indegree = 2,
                                     .seed = 7});
  for (const Model& model : all_models()) {
    const std::size_t r = min_red_pebbles(dag);
    Engine engine(dag, model, r);
    std::optional<Rational> bound =
        state_cost_lower_bound(engine, engine.initial_state());
    ASSERT_TRUE(bound.has_value()) << model.name();
    EXPECT_GE(*bound, cost_lower_bound(dag, model, r)) << model.name();
  }
}

// Oneshot dead ends are detected: compute a needed value, delete it, and no
// completion exists any more — the evaluator reports infeasibility.
TEST(StateBounds, DetectsValuesLostForeverInOneshot) {
  DagBuilder b;
  b.add_nodes(2);
  b.add_edge(0, 1);
  Dag dag = b.build();
  Engine engine(dag, Model::oneshot(), 2);
  GameState state = engine.initial_state();
  Cost cost;
  engine.apply(state, compute(0), cost);
  engine.apply(state, erase(0), cost);
  EXPECT_EQ(state_cost_lower_bound(engine, state), std::nullopt);
  // The same configuration is perfectly recoverable in the base model.
  Engine base_engine(dag, Model::base(), 2);
  EXPECT_TRUE(state_cost_lower_bound(base_engine, state).has_value());
}

// An empty Hong–Kung source is unloadable and uncomputable.
TEST(StateBounds, DetectsDeletedBlueSourcesUnderHongKung) {
  DagBuilder b;
  b.add_nodes(2);
  b.add_edge(0, 1);
  Dag dag = b.build();
  Engine engine(dag, Model::base(), 2,
                PebblingConvention{.sources_start_blue = true});
  GameState state = engine.initial_state();
  Cost cost;
  engine.apply(state, erase(0), cost);
  EXPECT_EQ(state_cost_lower_bound(engine, state), std::nullopt);
}

TEST(StateBounds, CountsBlueInputLoadsOwedUnderHongKung) {
  // Two blue sources feeding one sink: each must be loaded (sources are not
  // computable under the convention), and the sink computed.
  DagBuilder b;
  b.add_nodes(3);
  b.add_edge(0, 2);
  b.add_edge(1, 2);
  Dag dag = b.build();
  Engine engine(dag, Model::compcost(), 3,
                PebblingConvention{.sources_start_blue = true});
  std::optional<Rational> bound =
      state_cost_lower_bound(engine, engine.initial_state());
  ASSERT_TRUE(bound.has_value());
  EXPECT_EQ(*bound, Rational(2) + Rational(1, 100));
}

// The memoized mask path (cached per-node cones composed per state) must
// price every reachable configuration exactly like the original walk it
// replaced — dead-state verdicts included. Random walks visit states with
// arbitrary pebble mixtures, where the cone-jump shortcut can and cannot
// fire.
TEST(StateBounds, MaskCompositionMatchesTheGenericWalk) {
  Dag dag = make_random_layered_dag({.layers = 4, .width = 4, .indegree = 2,
                                     .seed = 13});
  for (const Model& model : all_models()) {
    for (bool sources_blue : {false, true}) {
      for (bool sinks_blue : {false, true}) {
        Engine engine(dag, model, min_red_pebbles(dag),
                      PebblingConvention{.sources_start_blue = sources_blue,
                                         .sinks_end_blue = sinks_blue});
        StateBoundEvaluator evaluator(engine);
        Rng rng(17);
        GameState state = engine.initial_state();
        Cost cost;
        for (int step = 0; step < 150; ++step) {
          const auto masks = StateBoundEvaluator::StateMasks::from(
              state, dag.node_count());
          EXPECT_EQ(evaluator.lower_bound_scaled(masks),
                    evaluator.lower_bound_generic(state))
              << model.name() << " step " << step;
          const std::vector<Move> legal =
              test_support::legal_moves(engine, state);
          if (legal.empty()) break;
          engine.apply(state, legal[rng.next_below(legal.size())], cost);
        }
      }
    }
  }
}

// The two-word wide-mask path (65–128-node DAGs, and the variable-width
// searches at any size) must price exactly like the generic walk too —
// including states whose closure spans both words — and, on DAGs the
// one-word path also covers, like the one-word path.
TEST(StateBounds, WideMaskCompositionMatchesTheGenericWalk) {
  Dag big = make_random_layered_dag({.layers = 20, .width = 4, .indegree = 2,
                                     .seed = 21});  // 80 nodes: wide only
  ASSERT_GT(big.node_count(), StateBoundEvaluator::kMaskMaxNodes);
  ASSERT_LE(big.node_count(), StateBoundEvaluator::kWideMaskMaxNodes);
  Dag small = make_random_layered_dag({.layers = 4, .width = 4, .indegree = 2,
                                       .seed = 13});  // 16 nodes: both paths
  for (const Dag* dag : {&big, &small}) {
    const std::size_t n = dag->node_count();
    for (const Model& model : all_models()) {
      for (bool sources_blue : {false, true}) {
        for (bool sinks_blue : {false, true}) {
          Engine engine(*dag, model, min_red_pebbles(*dag),
                        PebblingConvention{.sources_start_blue = sources_blue,
                                           .sinks_end_blue = sinks_blue});
          StateBoundEvaluator evaluator(engine);
          Rng rng(19);
          GameState state = engine.initial_state();
          auto wide = StateBoundEvaluator::WideStateMasks::from(state, n);
          Cost cost;
          for (int step = 0; step < 100; ++step) {
            // The incrementally applied masks must equal a fresh re-encode.
            const auto fresh =
                StateBoundEvaluator::WideStateMasks::from(state, n);
            ASSERT_EQ(wide.red, fresh.red) << step;
            ASSERT_EQ(wide.blue, fresh.blue) << step;
            ASSERT_EQ(wide.computed, fresh.computed) << step;
            EXPECT_EQ(evaluator.lower_bound_scaled(wide),
                      evaluator.lower_bound_generic(state))
                << model.name() << " n=" << n << " step " << step;
            if (n <= StateBoundEvaluator::kMaskMaxNodes) {
              const auto narrow =
                  StateBoundEvaluator::StateMasks::from(state, n);
              EXPECT_EQ(evaluator.lower_bound_scaled(wide),
                        evaluator.lower_bound_scaled(narrow))
                  << model.name() << " step " << step;
            }
            const std::vector<Move> legal =
                test_support::legal_moves(engine, state);
            if (legal.empty()) break;
            const Move move = legal[rng.next_below(legal.size())];
            engine.apply(state, move, cost);
            wide.apply(move);
          }
        }
      }
    }
  }
}

TEST(Bounds, BaseModelHasNoLengthBound) {
  DagBuilder b;
  b.add_nodes(2);
  b.add_edge(0, 1);
  Dag dag = b.build();
  EXPECT_EQ(optimal_length_upper_bound(dag, Model::base()),
            std::numeric_limits<std::size_t>::max());
  EXPECT_LT(optimal_length_upper_bound(dag, Model::oneshot()),
            std::numeric_limits<std::size_t>::max());
}

}  // namespace
}  // namespace rbpeb
