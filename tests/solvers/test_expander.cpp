// The shared expansion kernel against the Engine reference. Along seeded
// random walks over every model × convention, for every (PackedKey, Masks)
// pair the width dispatch returns — one-word masks over one-word (16
// nodes), two-word (30) and runtime-width keys (48), two-word masks over
// runtime-width keys (80), runtime-width masks over runtime-width keys at
// the 129/192/256 word boundaries and on a 16-node DAG — the kernel must
// enumerate exactly Engine::is_legal's moves in the same v-major
// Load/Store/Compute/Delete order, derive every successor key equal to
// re-packing Engine::apply's state, price each one like the bound
// evaluator, and agree with Engine::is_complete. Identical successors and
// prices at every pair are what make costs and expansion counts independent
// of the width the dispatch picks. The kernel prices successors as deltas
// from their parent; every sweep runs without a pattern database and with
// two attached to both sides — width-3 tables (many shared shapes and
// sink-free patterns) and tables at the default width — so every delta
// rule, the PDB patch and its dead-parent full-sum fallback are pinned to
// lower_bound_scaled.
#include "src/solvers/expander.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/pebble/bounds.hpp"
#include "src/solvers/bigstate/pdb.hpp"
#include "src/solvers/greedy.hpp"
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

/// The pattern databases a sweep attaches, besides none.
enum class Pdb { None, Narrow, Default };

std::optional<PatternDatabase> make_pdb(const Engine& engine, Pdb kind) {
  switch (kind) {
    case Pdb::None:
      return std::nullopt;
    case Pdb::Narrow:  // width 3: many equal shapes, many sink-free patterns
      return std::optional<PatternDatabase>(std::in_place, engine, 3);
    case Pdb::Default:
      return std::optional<PatternDatabase>(std::in_place, engine);
  }
  return std::nullopt;
}

/// What a sweep met: complete states, and states the PDB calls dead.
struct Met {
  std::size_t complete = 0;
  std::size_t pdb_dead = 0;
};

/// Checks one state; counts whether it is complete or PDB-dead.
template <class Packed, class Masks>
void check_state(const Engine& engine, Expander<Packed, Masks>& expander,
                 Eval& eval, const PatternDatabase* pdb,
                 ExactSearchStats& tally, const GameState& state, Met& met) {
  if (pdb != nullptr && !pdb->lower_bound_scaled(state)) ++met.pdb_dead;
  const std::string where = label(engine, state);
  const Packed packed = Packed::from_state(state);
  const bool complete = expander.enter(packed.key());
  EXPECT_EQ(complete, engine.is_complete(state)) << where;
  met.complete += complete;

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
}

/// A seeded random walk, then the end of the topological baseline's trace,
/// with `pdb` attached to both the kernel and the reference evaluator.
template <class Packed, class Masks>
void check_engine(const Engine& engine, const PatternDatabase* pdb,
                  std::uint64_t seed, int steps, Met& met) {
  ExactSearchStats tally;
  Expander<Packed, Masks> expander(engine, pdb, tally, false);
  Eval eval(engine);
  eval.attach_pdb(pdb);
  EXPECT_TRUE(expander.start() == Packed::from_state(engine.initial_state()));

  Rng rng(seed);
  auto walk = [&](GameState state, int length) {
    for (int step = 0; step < length; ++step) {
      check_state(engine, expander, eval, pdb, tally, state, met);
      if (::testing::Test::HasFailure()) return;
      const std::vector<Move> legal = legal_moves(engine, state);
      if (legal.empty()) break;
      Cost cost;
      engine.apply(state, legal[rng.next_below(legal.size())], cost);
    }
  };
  walk(engine.initial_state(), steps);

  // The baseline computes sources, so it runs only under the default
  // source convention; storing its red sinks then completes the game under
  // either sink convention.
  if (engine.convention().sources_start_blue) return;
  GameState state = engine.initial_state();
  Cost cost;
  for (const Move& move : solve_topo_baseline(engine)) {
    engine.apply(state, move, cost);
  }
  check_state(engine, expander, eval, pdb, tally, state, met);
  for (NodeId sink : engine.dag().sinks()) {
    if (state.is_red(sink)) engine.apply(state, store(sink), cost);
  }
  check_state(engine, expander, eval, pdb, tally, state, met);
  // Walking on from the complete state deletes computed sinks, which in
  // oneshot leaves parents the PDB calls dead.
  walk(state, steps / 2);
}

/// Every model × convention × two red budgets on one DAG, without a PDB
/// and with each kind of PDB attached.
template <class Packed, class Masks>
void sweep(const Dag& dag, std::uint64_t seed, int steps) {
  for (Pdb kind : {Pdb::None, Pdb::Narrow, Pdb::Default}) {
    SCOPED_TRACE(::testing::Message() << "pdb kind " << static_cast<int>(kind));
    // The same walks under every kind.
    std::uint64_t walk_seed = seed;
    Met met;
    for (const Model& model : all_models()) {
      for (bool sources_blue : {false, true}) {
        for (bool sinks_blue : {false, true}) {
          for (std::size_t extra_r : {0u, 2u}) {
            const Engine engine(dag, model, min_red_pebbles(dag) + extra_r,
                                PebblingConvention{
                                    .sources_start_blue = sources_blue,
                                    .sinks_end_blue = sinks_blue});
            const std::optional<PatternDatabase> pdb = make_pdb(engine, kind);
            check_engine<Packed, Masks>(engine, pdb ? &*pdb : nullptr,
                                        ++walk_seed, steps, met);
            if (::testing::Test::HasFailure()) return;
          }
        }
      }
    }
    // Both branches of the completeness test were exercised.
    EXPECT_GT(met.complete, 0u) << "n=" << dag.node_count();
    // Parents the PDB calls dead price their successors by the full sum.
    if (kind != Pdb::None) {
      EXPECT_GT(met.pdb_dead, 0u) << "n=" << dag.node_count();
    }
  }
}

template <std::size_t K, std::size_t W>
std::pair<std::size_t, std::size_t> widths(PackedKey<K>*, Masks<W>*) {
  return {K, W};
}

Dag layered(std::size_t layers, std::size_t width, std::uint64_t seed) {
  return make_random_layered_dag(
      {.layers = layers, .width = width, .indegree = 2, .seed = seed});
}

TEST(Expander, OneWordMasksOverOneWordKeys) {
  const Dag dag = layered(4, 4, 1);  // 16 nodes
  ASSERT_LE(dag.node_count(), PackedKey<1>::max_nodes());
  sweep<PackedKey<1>, Masks<1>>(dag, 100, 120);
}

TEST(Expander, OneWordMasksOverTwoWordKeys) {
  const Dag dag = layered(6, 5, 2);  // 30 nodes
  ASSERT_GT(dag.node_count(), PackedKey<1>::max_nodes());
  ASSERT_LE(dag.node_count(), PackedKey<2>::max_nodes());
  sweep<PackedKey<2>, Masks<1>>(dag, 200, 120);
}

TEST(Expander, OneWordMasksOverRuntimeWidthKeys) {
  const Dag dag = layered(12, 4, 3);  // 48 nodes
  ASSERT_GT(dag.node_count(), PackedKey<2>::max_nodes());
  ASSERT_LE(dag.node_count(), Eval::kMaskMaxNodes);
  sweep<PackedKey<0>, Masks<1>>(dag, 300, 80);
}

TEST(Expander, TwoWordMasksOverRuntimeWidthKeys) {
  const Dag dag = layered(20, 4, 4);  // 80 nodes
  ASSERT_GT(dag.node_count(), Eval::kMaskMaxNodes);
  ASSERT_LE(dag.node_count(), Eval::kWideMaskMaxNodes);
  sweep<PackedKey<0>, Masks<2>>(dag, 400, 80);
}

TEST(Expander, RuntimeWidthMasksAtTheWordBoundaries) {
  const Dag small = layered(4, 4, 5);  // 16 nodes: one runtime-width word
  sweep<PackedKey<0>, Masks<0>>(small, 500, 80);
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
    sweep<PackedKey<0>, Masks<0>>(dag, seed * 100, 40);
  }
}

/// The (key words, mask words) pair a search over n nodes runs; 0 is the
/// runtime width.
std::pair<std::size_t, std::size_t> dispatched(std::size_t n) {
  return dispatch_search_width(n, []<class Packed, class M>() {
    return widths(static_cast<Packed*>(nullptr), static_cast<M*>(nullptr));
  });
}

TEST(Expander, DispatchPicksTheNarrowestPair) {
  using Pair = std::pair<std::size_t, std::size_t>;
  EXPECT_EQ(dispatched(1), Pair(1, 1));
  EXPECT_EQ(dispatched(21), Pair(1, 1));
  EXPECT_EQ(dispatched(22), Pair(2, 1));
  EXPECT_EQ(dispatched(42), Pair(2, 1));
  EXPECT_EQ(dispatched(43), Pair(0, 1));
  EXPECT_EQ(dispatched(64), Pair(0, 1));
  EXPECT_EQ(dispatched(65), Pair(0, 2));
  EXPECT_EQ(dispatched(128), Pair(0, 2));
  EXPECT_EQ(dispatched(129), Pair(0, 0));
  EXPECT_EQ(dispatched(1024), Pair(0, 0));
}

}  // namespace
}  // namespace rbpeb
