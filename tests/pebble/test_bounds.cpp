// Section 3 / Lemma 1 bounds as executable checks.
#include "src/pebble/bounds.hpp"

#include <gtest/gtest.h>

#include <string>

#include "src/graph/dag_builder.hpp"
#include "src/pebble/verifier.hpp"
#include "src/solvers/bigstate/pdb.hpp"
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

// ---- successor pricing as a delta from the parent ------------------------
//
// One case per delta rule of StateBoundEvaluator::successor_bound, on a
// five-node DAG (0,1 → 2; 2 → 3; 2,1 → 4; sinks 3 and 4), in every model
// that allows the rule: the parent's planes must place the moved node where
// the rule says, and the delta price must equal lower_bound_scaled of the
// successor and the mark-and-walk oracle — with no pattern database, a
// width-2 one and a whole-DAG width-5 one, at a fixed and at the runtime
// mask width.

Dag delta_dag() {
  DagBuilder b;
  b.add_nodes(5);
  b.add_edge(0, 2);
  b.add_edge(1, 2);
  b.add_edge(2, 3);
  b.add_edge(2, 4);
  b.add_edge(1, 4);
  return b.build();
}

/// Where the moved node sits in the parent, as the rules read it.
enum class Where { Sink, Input, Elsewhere, InClosure, OutsideClosure, Any };

struct DeltaCase {
  const char* rule;
  std::vector<Move> setup;  ///< from the empty start to the parent
  Move move;
  Where where;
};

/// The parent all but two cases use: 0 red, 1 blue, 2 red — closure
/// {3, 4}, PU {1, 2}.
std::vector<Move> delta_parent() {
  return {compute(0), compute(1), compute(2), store(1)};
}

template <std::size_t W>
void check_delta(const Engine& engine, const PatternDatabase* pdb,
                 const DeltaCase& c) {
  const std::size_t n = engine.dag().node_count();
  SCOPED_TRACE(::testing::Message()
               << c.rule << " " << engine.model().name() << " W=" << W
               << (pdb != nullptr ? " pdb" : ""));
  GameState parent = engine.initial_state();
  Cost cost;
  for (const Move& move : c.setup) engine.apply(parent, move, cost);
  ASSERT_TRUE(engine.is_legal(parent, c.move));
  GameState child = parent;
  engine.apply(child, c.move, cost);

  StateBoundEvaluator delta(engine);
  StateBoundEvaluator reference(engine);
  delta.attach_pdb(pdb);
  reference.attach_pdb(pdb);
  ParentBound<W> ctx(delta.caches().words,
                     pdb != nullptr ? pdb->term_count() : 0);
  delta.enter_parent(Masks<W>::from(parent, n), ctx);

  const std::uint64_t bit = std::uint64_t{1} << c.move.node;
  const bool sink = engine.dag().is_sink(c.move.node);
  const bool in_closure = (ctx.closure.nodes()[0] & bit) != 0;
  const bool in_inputs = (ctx.closure.inputs()[0] & bit) != 0;
  switch (c.where) {
    case Where::Sink: EXPECT_TRUE(sink); break;
    case Where::Input: EXPECT_TRUE(in_inputs && !sink); break;
    case Where::Elsewhere: EXPECT_TRUE(!in_inputs && !sink); break;
    case Where::InClosure: EXPECT_TRUE(in_closure); break;
    case Where::OutsideClosure: EXPECT_FALSE(in_closure); break;
    case Where::Any: break;
  }

  const auto child_masks = Masks<W>::from(child, n);
  const std::optional<std::int64_t> got =
      delta.successor_bound(ctx, c.move, child_masks);
  EXPECT_EQ(got, reference.lower_bound_scaled(child_masks));
  if (pdb == nullptr) {
    EXPECT_EQ(got, test_support::lower_bound_generic(engine, child));
  }
}

TEST(StateBounds, SuccessorDeltaMatchesTheReferenceForEveryRule) {
  const Dag dag = delta_dag();
  const std::vector<DeltaCase> cases = {
      {"delete of a sink",
       {compute(0), compute(1), compute(2), compute(3)},
       erase(3),
       Where::Sink},
      {"delete of a closure predecessor", delta_parent(), erase(2),
       Where::Input},
      {"delete elsewhere", delta_parent(), erase(0), Where::Elsewhere},
      {"compute inside the closure", delta_parent(), compute(3),
       Where::InClosure},
      {"compute of a sink", {compute(0), compute(1), compute(2)}, compute(4),
       Where::InClosure},
      {"compute of an empty node outside the closure",
       {compute(0), compute(1), compute(2), compute(3), compute(4), erase(2)},
       compute(2),
       Where::OutsideClosure},
      {"compute of a blue node", delta_parent(), compute(1),
       Where::OutsideClosure},
      {"load", delta_parent(), load(1), Where::Any},
      {"store", delta_parent(), store(2), Where::Any},
  };
  for (const Model& model : all_models()) {
    const Engine engine(dag, model, 5);
    // Width 2 splits the DAG into three patterns; width 5 is one whole-DAG
    // term, so its patch runs at every weight up to 6^4.
    const PatternDatabase narrow(engine, 2);
    const PatternDatabase whole(engine, 5);
    ASSERT_EQ(whole.term_count(), 1u);
    const PatternDatabase* none = nullptr;
    std::size_t checked = 0;
    bool top_weight_moved = false;
    for (const DeltaCase& c : cases) {
      // Skip a rule the model forbids (deletes in nodel, recomputes in
      // oneshot), in the setup or in the move itself.
      GameState state = engine.initial_state();
      Cost cost;
      bool legal = true;
      for (const Move& move : c.setup) {
        legal = legal && engine.is_legal(state, move);
        if (legal) engine.apply(state, move, cost);
      }
      if (!legal || !engine.is_legal(state, c.move)) continue;
      ++checked;
      top_weight_moved |= whole.node_term(c.move.node).weight == 6 * 6 * 6 * 6;
      for (const PatternDatabase* attached : {none, &narrow, &whole}) {
        check_delta<1>(engine, attached, c);
        check_delta<0>(engine, attached, c);
      }
    }
    EXPECT_GE(checked, 4u) << model.name();
    EXPECT_TRUE(top_weight_moved) << model.name();
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
