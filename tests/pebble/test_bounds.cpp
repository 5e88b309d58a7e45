// Section 3 / Lemma 1 bounds as executable checks.
#include "src/pebble/bounds.hpp"

#include <gtest/gtest.h>

#include <string>

#include "src/graph/dag_builder.hpp"
#include "src/pebble/verifier.hpp"
#include "src/solvers/exact.hpp"
#include "src/solvers/topo_baseline.hpp"
#include "src/support/check.hpp"
#include "src/support/rng.hpp"
#include "src/workloads/random_layered.hpp"
#include "tests/support/bound_oracle.hpp"
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
// price every reachable configuration exactly like the mark-and-walk
// oracle, dead-state verdicts included, at every mask width. Random walks
// visit states with arbitrary pebble mixtures, where the cone-jump shortcut
// can and cannot fire; masks are applied move by move and must equal a
// fresh encode.
template <std::size_t W>
void bound_walk(const Dag& dag, std::uint64_t seed, int steps) {
  const std::size_t n = dag.node_count();
  for (const Model& model : all_models()) {
    for (bool sources_blue : {false, true}) {
      for (bool sinks_blue : {false, true}) {
        const PebblingConvention convention{
            .sources_start_blue = sources_blue, .sinks_end_blue = sinks_blue};
        const Engine engine(dag, model, min_red_pebbles(dag), convention);
        StateBoundEvaluator evaluator(engine);
        Rng rng(++seed);
        GameState state = engine.initial_state();
        Masks<W> masks = Masks<W>::from(state, n);
        Cost cost;
        for (int step = 0; step < steps; ++step) {
          const std::string where = model.name() + " n=" + std::to_string(n) +
                                    " W=" + std::to_string(W) + " step " +
                                    std::to_string(step);
          ASSERT_EQ(masks, Masks<W>::from(state, n)) << where;
          ASSERT_EQ(masks.words(), mask_words(n)) << where;
          EXPECT_EQ(evaluator.lower_bound_scaled(masks),
                    test_support::lower_bound_generic(engine, state))
              << where;
          const std::vector<Move> legal =
              test_support::legal_moves(engine, state);
          if (legal.empty()) break;
          const Move move = legal[rng.next_below(legal.size())];
          engine.apply(state, move, cost);
          masks.apply(move);
        }
      }
    }
  }
}

Dag layered(std::size_t layers, std::size_t width, std::uint64_t seed) {
  return make_random_layered_dag(
      {.layers = layers, .width = width, .indegree = 2, .seed = seed});
}

TEST(StateBounds, MaskCompositionMatchesTheGenericWalkAtEveryWidth) {
  const Dag small = layered(4, 4, 13);  // 16 nodes: one word
  bound_walk<1>(small, 100, 150);
  bound_walk<0>(small, 200, 150);
  const Dag wide = layered(20, 4, 21);  // 80 nodes: two words
  ASSERT_GT(wide.node_count(), StateBoundEvaluator::kMaskMaxNodes);
  ASSERT_LE(wide.node_count(), StateBoundEvaluator::kWideMaskMaxNodes);
  bound_walk<2>(wide, 300, 100);
  bound_walk<0>(wide, 400, 100);
  // Past two words only the runtime width exists: 129 nodes (one bit into a
  // third word), 192 (exactly three words), 256 (exactly four).
  struct Shape {
    std::size_t layers, width, nodes;
  };
  std::uint64_t seed = 500;
  for (const Shape& s :
       {Shape{43, 3, 129}, Shape{24, 8, 192}, Shape{32, 8, 256}}) {
    const Dag dag = layered(s.layers, s.width, ++seed);
    ASSERT_EQ(dag.node_count(), s.nodes);
    bound_walk<0>(dag, seed * 100, 60);
  }
}

// A mask width that does not match the DAG is a caller bug, caught before
// any plane is read: one word cannot hold 80 nodes, two words are not the
// width of a 16-node DAG, and nothing prices past 1024 nodes.
TEST(StateBounds, RejectsMasksOfTheWrongWidth) {
  const Dag small = layered(4, 4, 13);
  const Dag wide = layered(20, 4, 21);
  const Engine small_engine(small, Model::base(), min_red_pebbles(small));
  const Engine wide_engine(wide, Model::base(), min_red_pebbles(wide));
  StateBoundEvaluator small_eval(small_engine);
  StateBoundEvaluator wide_eval(wide_engine);
  const GameState small_state = small_engine.initial_state();
  const GameState wide_state = wide_engine.initial_state();

  // Too narrow.
  EXPECT_THROW(Masks<1>::from(wide_state, wide.node_count()),
               PreconditionError);
  EXPECT_THROW(wide_eval.lower_bound_scaled(Masks<1>()), PreconditionError);
  const auto small_runtime = Masks<0>::from(small_state, small.node_count());
  EXPECT_THROW(wide_eval.lower_bound_scaled(small_runtime), PreconditionError);
  // Too wide.
  EXPECT_THROW(Masks<2>::from(small_state, small.node_count()),
               PreconditionError);
  EXPECT_THROW(small_eval.lower_bound_scaled(Masks<2>()), PreconditionError);
  const auto wide_runtime = Masks<0>::from(wide_state, wide.node_count());
  EXPECT_THROW(small_eval.lower_bound_scaled(wide_runtime), PreconditionError);
  // Past the cap: no caches, no masks, no bound.
  DagBuilder chain;
  chain.add_nodes(1025);
  for (NodeId v = 1; v < 1025; ++v) chain.add_edge(v - 1, v);
  const Dag big = chain.build();
  const Engine big_engine(big, Model::base(), 2);
  StateBoundEvaluator big_eval(big_engine);
  const GameState big_state = big_engine.initial_state();
  EXPECT_EQ(big_eval.caches().words, 0u);
  EXPECT_THROW(Masks<0>::from(big_state, big.node_count()), PreconditionError);
  EXPECT_THROW(Masks<0>(big.node_count()), PreconditionError);
  EXPECT_THROW(big_eval.lower_bound_scaled(Masks<0>(1024)), PreconditionError);
  EXPECT_THROW(big_eval.lower_bound_scaled(big_state), PreconditionError);
  EXPECT_THROW(state_cost_lower_bound(big_engine, big_state),
               PreconditionError);
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
