// The shared expansion kernel against the Engine reference. Along seeded
// random walks over every model × convention, at every state width the
// searches dispatch to — one-word masks over 64- and 128-bit keys, two-word
// masks over variable-width keys (65–128 nodes, and forced on small DAGs),
// runtime-width masks (forced on small DAGs, and at the 129/192/256 word
// boundaries) — the kernel must enumerate exactly Engine::is_legal's moves
// in the same v-major Load/Store/Compute/Delete order, derive every
// successor key equal to re-packing Engine::apply's state, price each one
// like the bound evaluator, and agree with Engine::is_complete.
#include "src/solvers/expander.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/pebble/bounds.hpp"
#include "src/solvers/topo_baseline.hpp"
#include "src/support/rng.hpp"
#include "src/workloads/random_layered.hpp"
#include "tests/support/legal_moves.hpp"

namespace rbpeb {
namespace {

using test_support::legal_moves;
using Eval = StateBoundEvaluator;

std::string label(const Engine& engine, const GameState& state) {
  std::string out = engine.model().name() + " n=" +
                    std::to_string(engine.dag().node_count()) +
                    " R=" + std::to_string(engine.red_limit()) + " red=" +
                    std::to_string(state.red_count());
  if (engine.convention().sources_start_blue) out += " sources-blue";
  if (engine.convention().sinks_end_blue) out += " sinks-blue";
  return out;
}

/// Checks one state; returns whether it is complete.
template <class Packed, class Masks>
bool check_state(const Engine& engine, Expander<Packed, Masks>& expander,
                 Eval& eval, ExactSearchStats& tally, const GameState& state) {
  const std::string where = label(engine, state);
  const Packed packed = Packed::from_state(state);
  const bool complete = expander.enter(packed.key());
  EXPECT_EQ(complete, engine.is_complete(state)) << where;

  const std::vector<Move> expected = legal_moves(engine, state);
  std::vector<Move> moves;
  expander.for_each_legal_move(
      [&](const Move& move) { moves.push_back(move); });
  EXPECT_EQ(moves, expected) << where;

  // What expand() must emit: every legal successor the bound does not
  // prove dead, keyed and priced like the Engine's state.
  struct Priced {
    Move move;
    Packed next;
    std::int64_t g;
    std::int64_t h;
  };
  const std::int64_t g = 7;
  std::vector<Priced> want;
  std::size_t dead = 0;
  for (const Move& move : expected) {
    GameState next = state;
    Cost cost;
    engine.apply(next, move, cost);
    const Packed next_packed = Packed::from_state(next);
    EXPECT_TRUE(expander.current().apply(move) == next_packed)
        << where << " " << to_string(move);
    const std::optional<std::int64_t> h = eval.lower_bound_scaled(next);
    if (!h) {
      ++dead;
      continue;
    }
    want.push_back({move, next_packed,
                    g + scaled_move_cost(engine.model(), move.type), *h});
  }
  std::vector<Priced> got;
  const std::size_t dead_before = tally.dead_prunes;
  EXPECT_TRUE(expander.expand(
      g, nullptr,
      [&](const Move& move, const Packed& next, std::int64_t next_g,
          std::int64_t h) { got.push_back({move, next, next_g, h}); }));
  EXPECT_EQ(tally.dead_prunes - dead_before, dead) << where;
  EXPECT_EQ(got.size(), want.size()) << where;
  for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
    EXPECT_EQ(got[i].move, want[i].move) << where;
    EXPECT_TRUE(got[i].next == want[i].next) << where;
    EXPECT_EQ(got[i].g, want[i].g) << where;
    EXPECT_EQ(got[i].h, want[i].h) << where << " " << to_string(got[i].move);
  }
  return complete;
}

/// A seeded random walk, then the end of the topological baseline's trace;
/// returns the number of complete states met.
template <class Packed, class Masks>
std::size_t check_engine(const Engine& engine, std::uint64_t seed, int steps) {
  ExactSearchStats tally;
  Expander<Packed, Masks> expander(engine, nullptr, tally, false);
  Eval eval(engine);
  EXPECT_TRUE(expander.start() == Packed::from_state(engine.initial_state()));
  std::size_t complete = 0;

  Rng rng(seed);
  GameState state = engine.initial_state();
  for (int step = 0; step < steps; ++step) {
    complete += check_state(engine, expander, eval, tally, state);
    if (::testing::Test::HasFailure()) return complete;
    const std::vector<Move> legal = legal_moves(engine, state);
    if (legal.empty()) break;
    Cost cost;
    engine.apply(state, legal[rng.next_below(legal.size())], cost);
  }

  // The baseline computes sources, so it runs only under the default
  // source convention; storing its red sinks then completes the game under
  // either sink convention.
  if (engine.convention().sources_start_blue) return complete;
  state = engine.initial_state();
  Cost cost;
  for (const Move& move : solve_topo_baseline(engine)) {
    engine.apply(state, move, cost);
  }
  complete += check_state(engine, expander, eval, tally, state);
  for (NodeId sink : engine.dag().sinks()) {
    if (state.is_red(sink)) engine.apply(state, store(sink), cost);
  }
  complete += check_state(engine, expander, eval, tally, state);
  return complete;
}

/// Every model × convention × two red budgets on one DAG.
template <class Packed, class Masks>
void sweep(const Dag& dag, std::uint64_t seed, int steps) {
  std::size_t complete = 0;
  for (const Model& model : all_models()) {
    for (bool sources_blue : {false, true}) {
      for (bool sinks_blue : {false, true}) {
        for (std::size_t extra_r : {0u, 2u}) {
          const Engine engine(dag, model, min_red_pebbles(dag) + extra_r,
                              PebblingConvention{
                                  .sources_start_blue = sources_blue,
                                  .sinks_end_blue = sinks_blue});
          complete += check_engine<Packed, Masks>(engine, ++seed, steps);
          if (::testing::Test::HasFailure()) return;
        }
      }
    }
  }
  // Both branches of the completeness test were exercised.
  EXPECT_GT(complete, 0u) << "n=" << dag.node_count();
}

Dag layered(std::size_t layers, std::size_t width, std::uint64_t seed) {
  return make_random_layered_dag(
      {.layers = layers, .width = width, .indegree = 2, .seed = seed});
}

TEST(Expander, OneWordMasksOver64BitKeys) {
  const Dag dag = layered(4, 4, 1);  // 16 nodes
  ASSERT_LE(dag.node_count(), PackedState64::max_nodes());
  sweep<PackedState64, Eval::StateMasks>(dag, 100, 120);
}

TEST(Expander, OneWordMasksOver128BitKeys) {
  const Dag dag = layered(6, 5, 2);  // 30 nodes
  ASSERT_GT(dag.node_count(), PackedState64::max_nodes());
  ASSERT_LE(dag.node_count(), PackedState128::max_nodes());
  sweep<PackedState128, Eval::StateMasks>(dag, 200, 120);
}

TEST(Expander, TwoWordMasksOverVariableWidthKeys) {
  const Dag forced = layered(4, 4, 3);  // 16 nodes: the force_var_state path
  sweep<VarPackedState, Eval::WideStateMasks>(forced, 300, 80);
  const Dag dag = layered(20, 4, 4);  // 80 nodes: the natural two-word path
  ASSERT_GT(dag.node_count(), Eval::kMaskMaxNodes);
  ASSERT_LE(dag.node_count(), Eval::kWideMaskMaxNodes);
  sweep<VarPackedState, Eval::WideStateMasks>(dag, 400, 80);
}

TEST(Expander, RuntimeWidthMasksAtTheWordBoundaries) {
  const Dag forced = layered(4, 4, 5);  // 16 nodes: the force_mask_vec path
  sweep<VarPackedState, Eval::MaskVec>(forced, 500, 80);
  // 43*3 = 129 (one bit into a third word), 24*8 = 192 (exactly three
  // words), 32*8 = 256 (exactly four).
  struct Shape {
    std::size_t layers, width, nodes;
  };
  std::uint64_t seed = 600;
  for (const Shape& s : {Shape{43, 3, 129}, Shape{24, 8, 192},
                         Shape{32, 8, 256}}) {
    const Dag dag = layered(s.layers, s.width, ++seed);
    ASSERT_EQ(dag.node_count(), s.nodes);
    sweep<VarPackedState, Eval::MaskVec>(dag, seed * 100, 40);
  }
}

}  // namespace
}  // namespace rbpeb
