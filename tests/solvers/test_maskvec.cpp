// The runtime-width MaskVec bound path must be invisible wherever the
// fixed-width mask paths exist: same lower bounds state-for-state, and —
// through the forced-search hook — the same costs AND expansion counts on
// every model and convention. Past 128 nodes it is the only mask path, so
// the word-boundary widths (129, 192, 256) are differentially checked
// against the generic mark-and-walk evaluation, and a 129-node instance is
// solved end to end on it.
#include "src/pebble/bounds.hpp"

#include <gtest/gtest.h>

#include "src/graph/dag_builder.hpp"
#include "src/pebble/verifier.hpp"
#include "src/solvers/exact.hpp"
#include "src/solvers/exact_astar.hpp"
#include "src/solvers/hda/hda_astar.hpp"
#include "src/support/rng.hpp"
#include "src/workloads/chain.hpp"
#include "src/workloads/random_layered.hpp"
#include "src/workloads/tree_reduction.hpp"
#include "tests/support/legal_moves.hpp"

namespace rbpeb {
namespace {

using test_support::legal_moves;

// ---- the evaluator: MaskVec vs the fixed-width fast paths ----------------

/// Walk random legal moves; at every state the runtime-width bound must
/// equal the bound of whichever path the instance size dispatches to by
/// default (one-word masks ≤ 64, two-word ≤ 128) and the generic walk.
void differential_bound_walk(const Engine& engine, std::uint64_t seed,
                             int steps = 160) {
  using Masks = StateBoundEvaluator::StateMasks;
  using WideMasks = StateBoundEvaluator::WideStateMasks;
  using MaskVec = StateBoundEvaluator::MaskVec;
  const std::size_t n = engine.dag().node_count();
  StateBoundEvaluator eval(engine);
  Rng rng(seed);
  GameState state = engine.initial_state();
  for (int step = 0; step < steps; ++step) {
    const auto vec = eval.lower_bound_scaled(MaskVec::from(state, n));
    const auto generic = eval.lower_bound_generic(state);
    ASSERT_EQ(vec, generic) << "n=" << n << " step=" << step;
    if (n <= StateBoundEvaluator::kMaskMaxNodes) {
      ASSERT_EQ(vec, eval.lower_bound_scaled(Masks::from(state, n)))
          << "n=" << n << " step=" << step;
    } else if (n <= StateBoundEvaluator::kWideMaskMaxNodes) {
      ASSERT_EQ(vec, eval.lower_bound_scaled(WideMasks::from(state, n)))
          << "n=" << n << " step=" << step;
    }
    std::vector<Move> legal = legal_moves(engine, state);
    if (legal.empty()) break;
    Cost cost;
    engine.apply(state, legal[rng.next_below(legal.size())], cost);
  }
}

TEST(MaskVecBound, MatchesFixedWidthPathsOnEveryModelAndConvention) {
  Dag small = make_random_layered_dag({.layers = 4, .width = 4, .indegree = 2,
                                       .seed = 21});  // 16 nodes: one word
  Dag wide = make_random_layered_dag({.layers = 10, .width = 8, .indegree = 3,
                                      .seed = 22});  // 80 nodes: two words
  ASSERT_GT(wide.node_count(), StateBoundEvaluator::kMaskMaxNodes);
  ASSERT_LE(wide.node_count(), StateBoundEvaluator::kWideMaskMaxNodes);
  std::uint64_t seed = 100;
  for (const Model& model : all_models()) {
    for (bool sources_blue : {false, true}) {
      for (bool sinks_blue : {false, true}) {
        const PebblingConvention convention{
            .sources_start_blue = sources_blue, .sinks_end_blue = sinks_blue};
        for (const Dag* dag : {&small, &wide}) {
          Engine engine(*dag, model, min_red_pebbles(*dag), convention);
          differential_bound_walk(engine, ++seed);
        }
      }
    }
  }
}

/// The word-boundary widths: 129 (first width past the two-word path; one
/// bit spills into a third word), 192 (exactly three words), 256 (exactly
/// four). Past 128 nodes the only reference is the generic walk.
TEST(MaskVecBound, AgreesWithGenericWalkAtWordBoundaryWidths) {
  struct Boundary {
    std::size_t layers, width;
  };
  // 43*3=129, 24*8=192, 32*8=256 nodes.
  const Boundary cases[] = {{43, 3}, {24, 8}, {32, 8}};
  std::uint64_t seed = 300;
  for (const Boundary& b : cases) {
    Dag dag = make_random_layered_dag(
        {.layers = b.layers, .width = b.width, .indegree = 2, .seed = ++seed});
    ASSERT_GT(dag.node_count(), StateBoundEvaluator::kWideMaskMaxNodes);
    for (const Model& model : all_models()) {
      Engine engine(dag, model, min_red_pebbles(dag));
      differential_bound_walk(engine, ++seed, 80);
    }
  }
  // An exact word-count check: 129 nodes need 3 words, 192 need 3, 256
  // need 4 — the constructor rounds up.
  EXPECT_EQ(StateBoundEvaluator::MaskVec(129).words(), 3u);
  EXPECT_EQ(StateBoundEvaluator::MaskVec(192).words(), 3u);
  EXPECT_EQ(StateBoundEvaluator::MaskVec(256).words(), 4u);
}

// ---- the searches on the forced MaskVec path -----------------------------

/// Forcing the runtime-width mask path on instances the fixed-width paths
/// cover must change nothing observable: same cost, same expansion count.
TEST(MaskVecSearch, ForcedMaskVecMatchesFixedWidthCostsAndExpansions) {
  Dag tiny = make_random_layered_dag({.layers = 3, .width = 3, .indegree = 2,
                                      .seed = 41});  // 9 nodes
  Dag mid = make_random_layered_dag({.layers = 13, .width = 2, .indegree = 2,
                                     .seed = 42});  // 26 nodes
  for (const Model& model : all_models()) {
    for (bool sinks_blue : {false, true}) {
      const PebblingConvention convention{.sources_start_blue = false,
                                          .sinks_end_blue = sinks_blue};
      for (const Dag* dag : {&tiny, &mid}) {
        // Only nodel keeps the 26-node search small enough for a test.
        if (dag == &mid && model.kind() != ModelKind::Nodel) continue;
        Engine engine(*dag, model, min_red_pebbles(*dag), convention);
        ExactSearchOptions fixed_options;
        fixed_options.max_states = 4'000'000;
        ExactSearchOptions vec_options = fixed_options;
        vec_options.force_mask_vec = true;
        ExactSearchStats fixed_stats, vec_stats;
        auto fixed = try_solve_exact_astar(engine, fixed_options, &fixed_stats);
        auto vec = try_solve_exact_astar(engine, vec_options, &vec_stats);
        ASSERT_TRUE(fixed.has_value()) << model.name();
        ASSERT_TRUE(vec.has_value()) << model.name();
        EXPECT_EQ(fixed->cost, vec->cost) << model.name();
        EXPECT_EQ(fixed_stats.states_expanded, vec_stats.states_expanded)
            << model.name();
        EXPECT_EQ(verify_or_throw(engine, vec->trace).total, vec->cost)
            << model.name();
      }
    }
  }
}

/// Same invisibility on the 43–128-node tier, where the default wide path
/// already runs variable-width states over two-word masks — forcing MaskVec
/// swaps only the bound representation.
TEST(MaskVecSearch, ForcedMaskVecMatchesWideMaskTierOnA48NodeChain) {
  Dag dag = make_chain_dag(48);
  Engine engine(dag, Model::oneshot(), 3);
  ExactSearchOptions wide_options;
  wide_options.max_states = 2'000'000;
  ExactSearchOptions vec_options = wide_options;
  vec_options.force_mask_vec = true;
  ExactSearchStats wide_stats, vec_stats;
  auto wide = try_solve_exact_astar(engine, wide_options, &wide_stats);
  auto vec = try_solve_exact_astar(engine, vec_options, &vec_stats);
  ASSERT_TRUE(wide.has_value());
  ASSERT_TRUE(vec.has_value());
  EXPECT_EQ(wide->cost, vec->cost);
  EXPECT_EQ(wide_stats.states_expanded, vec_stats.states_expanded);
}

/// hda-astar shares the dispatch; at one worker its expansion schedule is
/// deterministic, so costs and counts must survive the forced path there
/// too.
TEST(MaskVecSearch, HdaAstarForcedMaskVecMatchesAtOneWorker) {
  Dag dag = make_random_layered_dag({.layers = 5, .width = 3, .indegree = 2,
                                     .seed = 43});  // 15 nodes
  Engine engine(dag, Model::nodel(), min_red_pebbles(dag));
  ExactSearchOptions options;
  options.max_states = 2'000'000;
  ExactSearchOptions vec_options = options;
  vec_options.force_mask_vec = true;
  ExactSearchStats stats, vec_stats;
  auto fixed = try_solve_hda_astar(engine, 1, options, &stats);
  auto vec = try_solve_hda_astar(engine, 1, vec_options, &vec_stats);
  ASSERT_TRUE(fixed.has_value());
  ASSERT_TRUE(vec.has_value());
  EXPECT_EQ(fixed->cost, vec->cost);
  EXPECT_EQ(stats.states_expanded, vec_stats.states_expanded);
}

/// End to end past the two-word cap: a 129-node chain (the first width the
/// fixed masks cannot represent) solves on the MaskVec path and verifies.
TEST(MaskVecSearch, SolvesA129NodeChainPastTheTwoWordCap) {
  Dag dag = make_chain_dag(129);
  ASSERT_GT(dag.node_count(), StateBoundEvaluator::kWideMaskMaxNodes);
  Engine engine(dag, Model::oneshot(), 3);
  ExactSearchOptions options;
  options.max_states = 2'000'000;
  ExactSearchStats stats;
  auto result = try_solve_exact_astar(engine, options, &stats);
  ASSERT_TRUE(result.has_value())
      << "termination=" << static_cast<int>(stats.termination);
  EXPECT_EQ(stats.termination, ExactTermination::Solved);
  EXPECT_EQ(verify_or_throw(engine, result->trace).total, result->cost);
  // A 3-red-pebble oneshot chain never needs the bus: compute straight up,
  // deleting behind — the model prices that at zero.
  EXPECT_EQ(result->cost, Rational(0));
}

}  // namespace
}  // namespace rbpeb
