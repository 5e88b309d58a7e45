// The bigstate subsystem's harness: the runtime-width packed key must be
// bit-identical to the inline widths wherever both exist (layout, per-move
// updates, hash), the additive pattern databases must be admissible against
// exhaustively solved instances, the memory-budgeted closed table must end
// searches gracefully with partial stats, and the lifted caps must prove
// optima on instances two key words could never hold.
#include "src/solvers/packed_state.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "src/graph/dag_builder.hpp"
#include "src/pebble/bounds.hpp"
#include "src/pebble/verifier.hpp"
#include "src/solvers/api.hpp"
#include "src/solvers/bigstate/ddd.hpp"
#include "src/solvers/bigstate/pdb.hpp"
#include "src/solvers/exact.hpp"
#include "src/solvers/exact_astar.hpp"
#include "src/solvers/greedy.hpp"
#include "src/solvers/hda/hda_astar.hpp"
#include "src/solvers/portfolio.hpp"
#include "src/support/check.hpp"
#include "src/support/rng.hpp"
#include "src/workloads/chain.hpp"
#include "src/workloads/random_layered.hpp"
#include "src/workloads/stencil.hpp"
#include "src/workloads/tree_reduction.hpp"
#include "tests/support/legal_moves.hpp"

namespace rbpeb {
namespace {

using test_support::legal_moves;

// ---- PackedKey<0> vs the inline widths ----------------------------------

/// Walk random legal moves, then the topological baseline's full pebbling
/// (which reaches every node); after every move the runtime-width key must
/// agree with the W-word key field-for-field, word-for-word and hash for
/// hash, and its incrementally patched hash must equal a from-scratch
/// recompute.
template <std::size_t W>
void differential_walk(const Engine& engine, std::uint64_t seed) {
  using Fixed = PackedKey<W>;
  const std::size_t n = engine.dag().node_count();
  ASSERT_LE(n, Fixed::max_nodes());
  GameState state;
  Fixed fixed;
  PackedKey<0> var;
  auto restart = [&] {
    state = engine.initial_state();
    fixed = Fixed::from_state(state);
    var = PackedKey<0>::from_state(state);
  };
  auto step = [&](const Move& move) {
    Cost cost;
    engine.apply(state, move, cost);
    fixed = fixed.apply(move);
    var = var.apply(move);
    for (std::size_t v = 0; v < n; ++v) {
      const NodeId node = static_cast<NodeId>(v);
      ASSERT_EQ(var.color(node), fixed.color(node));
      ASSERT_EQ(var.was_computed(node), fixed.was_computed(node));
    }
    ASSERT_EQ(var.word_count(), PackedKey<0>::words_for(n));
    for (std::size_t i = 0; i < var.word_count(); ++i) {
      ASSERT_EQ(var.word(i), fixed.word(i)) << i;
    }
    ASSERT_EQ(var.hash(), var.recompute_hash());
    ASSERT_EQ(var.hash(), fixed.hash());  // one hash formula at every width
    ASSERT_EQ(var, PackedKey<0>::from_state(state));
    ASSERT_TRUE(test_support::same_fields(var, state));
  };
  restart();
  Rng rng(seed);
  for (int i = 0; i < 200; ++i) {
    std::vector<Move> legal = legal_moves(engine, state);
    if (legal.empty()) break;
    step(legal[rng.next_below(legal.size())]);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // The baseline computes sources, so it runs only under the default
  // source convention.
  if (engine.convention().sources_start_blue) return;
  restart();
  for (const Move& move : solve_topo_baseline(engine)) {
    step(move);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(PackedKey, RuntimeWidthMatchesInlineWidthsOnEveryModelAndConvention) {
  Dag small = make_random_layered_dag({.layers = 3, .width = 3, .indegree = 2,
                                       .seed = 11});  // 9 nodes: one word
  Dag wide = make_random_layered_dag({.layers = 6, .width = 5, .indegree = 2,
                                      .seed = 12});  // 30 nodes: two words
  ASSERT_GT(wide.node_count(), PackedKey<1>::max_nodes());
  for (const Model& model : all_models()) {
    for (bool sources_blue : {false, true}) {
      for (bool sinks_blue : {false, true}) {
        const PebblingConvention convention{
            .sources_start_blue = sources_blue, .sinks_end_blue = sinks_blue};
        Engine engine1(small, model, min_red_pebbles(small), convention);
        differential_walk<1>(engine1, 7);
        Engine engine2(wide, model, min_red_pebbles(wide), convention);
        differential_walk<2>(engine2, 9);
      }
    }
  }
}

TEST(PackedKey, RuntimeWidthRoundtripsPastTwoWords) {
  Dag dag = make_chain_dag(48);
  Engine engine(dag, Model::oneshot(), 2);
  Rng rng(3);
  GameState state = engine.initial_state();
  PackedKey<0> var = PackedKey<0>::from_state(state);
  EXPECT_EQ(var.word_count(), 3u);
  EXPECT_EQ(PackedKey<0>::key_heap_bytes(var), 3 * sizeof(std::uint64_t));
  EXPECT_EQ(PackedKey<0>::key_serialized_bytes(48),
            3 * sizeof(std::uint64_t));
  for (int step = 0; step < 300; ++step) {
    ASSERT_TRUE(test_support::same_fields(var, state));
    ASSERT_EQ(var.hash(), var.recompute_hash());
    ASSERT_EQ(var, PackedKey<0>::from_state(state));
    // Serialization round-trips the words and restores the cached hash.
    std::uint8_t bytes[3 * sizeof(std::uint64_t)];
    PackedKey<0>::key_serialize(var, bytes);
    const PackedKey<0> back = PackedKey<0>::key_deserialize(bytes, 48);
    ASSERT_EQ(back, var);
    ASSERT_EQ(back.hash(), var.hash());
    std::vector<Move> legal = legal_moves(engine, state);
    if (legal.empty()) break;
    const Move move = legal[rng.next_below(legal.size())];
    Cost cost;
    engine.apply(state, move, cost);
    var = var.apply(move);
  }
  // Copies are deep and equal.
  PackedKey<0> copy = var;
  EXPECT_EQ(copy, var);
  EXPECT_EQ(copy.hash(), var.hash());
}

/// hash_after(m) must be hash() of apply(m) for every legal move of every
/// state a seeded random walk visits; at the runtime width, where it patches
/// the cached hash instead of rehashing, also the from-scratch hash.
template <std::size_t W>
void hash_after_walk(const Engine& engine, std::uint64_t seed) {
  using Key = PackedKey<W>;
  ASSERT_LE(engine.dag().node_count(), Key::max_nodes());
  GameState state = engine.initial_state();
  Key key = Key::from_state(state);
  Rng rng(seed);
  for (int i = 0; i < 150; ++i) {
    const std::vector<Move> legal = legal_moves(engine, state);
    if (legal.empty()) return;
    for (const Move& move : legal) {
      const Key next = key.apply(move);
      ASSERT_EQ(key.hash_after(move), next.hash()) << to_string(move);
      if constexpr (W == 0) {
        ASSERT_EQ(key.hash_after(move), next.recompute_hash())
            << to_string(move);
      }
    }
    const Move move = legal[rng.next_below(legal.size())];
    Cost cost;
    engine.apply(state, move, cost);
    key.apply_in_place(move);
  }
}

/// Every move type on node v from every field value the move types reach
/// (sequences of up to three moves on v from the empty configuration).
template <std::size_t W>
void hash_after_on_node(std::size_t node_count, NodeId v) {
  using Key = PackedKey<W>;
  const MoveType types[] = {MoveType::Load, MoveType::Store,
                            MoveType::Compute, MoveType::Delete};
  std::vector<Key> frontier{Key(node_count)};
  for (int depth = 0; depth < 3; ++depth) {
    std::vector<Key> next_frontier;
    for (const Key& key : frontier) {
      for (MoveType type : types) {
        const Move move{type, v};
        const Key next = key.apply(move);
        ASSERT_EQ(key.hash_after(move), next.hash()) << to_string(move);
        if constexpr (W == 0) {
          ASSERT_EQ(key.hash_after(move), next.recompute_hash())
              << to_string(move);
        }
        next_frontier.push_back(next);
      }
    }
    frontier = std::move(next_frontier);
  }
}

TEST(PackedKey, HashAfterIsTheAppliedKeysHashAtEveryWidth) {
  Dag one_word = make_random_layered_dag({.layers = 3, .width = 7,
                                          .indegree = 2, .seed = 21});
  Dag two_words = make_random_layered_dag({.layers = 6, .width = 7,
                                           .indegree = 2, .seed = 22});
  Dag runtime = make_random_layered_dag({.layers = 8, .width = 7,
                                         .indegree = 2, .seed = 23});
  ASSERT_EQ(one_word.node_count(), PackedKey<1>::max_nodes());
  ASSERT_EQ(two_words.node_count(), PackedKey<2>::max_nodes());
  ASSERT_GT(runtime.node_count(), PackedKey<2>::max_nodes());
  for (const Model& model : all_models()) {
    SCOPED_TRACE(model.name());
    hash_after_walk<1>(Engine(one_word, model, min_red_pebbles(one_word)), 5);
    hash_after_walk<2>(Engine(two_words, model, min_red_pebbles(two_words)),
                       6);
    hash_after_walk<0>(Engine(runtime, model, min_red_pebbles(runtime)), 7);
  }
  // Fields that straddle a word boundary: node 21 (bits 63-65) at the two-
  // word and runtime widths, node 42 (bits 126-128) at the runtime width.
  hash_after_on_node<1>(21, 20);
  hash_after_on_node<2>(42, 21);
  hash_after_on_node<0>(56, 21);
  hash_after_on_node<0>(56, 42);
}

/// Field updates that straddle a 64-bit word boundary (3v mod 64 > 61).
TEST(PackedKey, StraddledFieldsReadBackAcrossTheWordBoundary) {
  // Node 21: bits [63, 66) — one bit in word 0, two in word 1.
  PackedKey<0> var(43);
  var.set_color(21, PebbleColor::Blue);
  var.mark_computed(21);
  EXPECT_EQ(var.color(21), PebbleColor::Blue);
  EXPECT_TRUE(var.was_computed(21));
  // Field 0b110 (blue, computed): its low bit is bit 63 of word 0, its two
  // high bits open word 1.
  EXPECT_EQ(var.word(0), 0u);
  EXPECT_EQ(var.word(1), 3u);
  EXPECT_EQ(var.hash(), var.recompute_hash());
  var.set_color(21, PebbleColor::None);
  EXPECT_EQ(var.color(21), PebbleColor::None);
  EXPECT_TRUE(var.was_computed(21));  // computed flag is sticky
  // Neighbors are untouched.
  EXPECT_EQ(var.color(20), PebbleColor::None);
  EXPECT_EQ(var.color(22), PebbleColor::None);
  EXPECT_EQ(var.hash(), var.recompute_hash());
}

// ---- pattern databases ---------------------------------------------------

TEST(PatternPartition, CoversEveryNodeDisjointlyWithinTheSizeCap) {
  for (std::size_t cap : {1u, 3u, 6u}) {
    Dag dag = make_random_layered_dag({.layers = 5, .width = 6, .indegree = 3,
                                       .seed = 4});
    auto patterns = partition_into_patterns(dag, cap);
    std::vector<int> seen(dag.node_count(), 0);
    for (const auto& pattern : patterns) {
      EXPECT_LE(pattern.size(), cap);
      EXPECT_FALSE(pattern.empty());
      for (NodeId v : pattern) ++seen[v];
    }
    for (std::size_t v = 0; v < dag.node_count(); ++v) {
      EXPECT_EQ(seen[v], 1) << "node " << v << " cap " << cap;
    }
  }
}

/// Admissibility, checked against ground truth: along an optimal trace the
/// PDB sum never exceeds the true remaining completion cost — at any prefix,
/// in any model, under any convention.
TEST(PatternDatabase, AdmissibleAlongOptimalTracesOnSolvedInstances) {
  for (std::uint64_t seed : {1, 2, 3}) {
    Dag dag = make_random_layered_dag({.layers = 3, .width = 3, .indegree = 2,
                                       .seed = seed});
    for (const Model& model : all_models()) {
      for (bool sinks_blue : {false, true}) {
        Engine engine(dag, model, min_red_pebbles(dag),
                      PebblingConvention{.sinks_end_blue = sinks_blue});
        ExactResult optimal = solve_exact(engine);
        const std::int64_t eps_den = model.epsilon().den();
        const std::int64_t total_scaled =
            optimal.cost.num() * (eps_den / optimal.cost.den());
        for (std::size_t pattern_size : {2u, 4u}) {
          PatternDatabase pdb(engine, pattern_size);
          GameState state = engine.initial_state();
          std::int64_t g = 0;
          Cost cost;
          for (std::size_t i = 0; i <= optimal.trace.size(); ++i) {
            auto h = pdb.lower_bound_scaled(state);
            ASSERT_TRUE(h.has_value())
                << model.name() << " step " << i << " size " << pattern_size;
            EXPECT_LE(*h, total_scaled - g)
                << model.name() << " step " << i << " size " << pattern_size;
            if (i == optimal.trace.size()) break;
            const Move move = optimal.trace[i];
            engine.apply(state, move, cost);
            g += scaled_move_cost(model, move.type);
          }
          // The trace ends complete, so every projection is a goal: sum 0.
          EXPECT_EQ(pdb.lower_bound_scaled(state), 0);
        }
      }
    }
  }
}

TEST(PatternDatabase, DetectsOneshotDeadStatesWithinAPattern) {
  // A oneshot value computed and deleted is gone; if the node is needed the
  // projection has no completion and the whole state is provably dead.
  Dag dag = make_chain_dag(4);
  Engine engine(dag, Model::oneshot(), 2);
  PatternDatabase pdb(engine, 4);  // one pattern holding the whole chain
  GameState dead(4);
  dead.mark_computed(3);  // the sink was computed once and deleted
  EXPECT_EQ(pdb.lower_bound_scaled(dead), std::nullopt);
  GameState alive(4);
  EXPECT_TRUE(pdb.lower_bound_scaled(alive).has_value());
}

TEST(PatternDatabase, FoldsIntoTheBoundEvaluatorAsAMax) {
  Dag dag = make_random_layered_dag({.layers = 3, .width = 3, .indegree = 2,
                                     .seed = 8});
  Engine engine(dag, Model::nodel(), min_red_pebbles(dag));
  PatternDatabase pdb(engine, 4);
  StateBoundEvaluator plain(engine);
  StateBoundEvaluator boosted(engine);
  boosted.attach_pdb(&pdb);
  const GameState start = engine.initial_state();
  auto counting = plain.lower_bound_scaled(start);
  auto combined = boosted.lower_bound_scaled(start);
  auto pdb_only = pdb.lower_bound_scaled(start);
  ASSERT_TRUE(counting && combined && pdb_only);
  EXPECT_EQ(*combined, std::max(*counting, *pdb_only));
}

// ---- the memory-budgeted closed table ------------------------------------

using Table1 = SpillingClosedTable<PackedKey<1>>;
using TableVar = SpillingClosedTable<PackedKey<0>>;

/// The one-word key whose word is `w` — the tables only hash and compare
/// keys, so any word will do.
PackedKey<1> K(std::uint64_t w) {
  std::uint8_t bytes[sizeof w];
  std::memcpy(bytes, &w, sizeof w);
  return PackedKey<1>::key_deserialize(bytes, 21);
}

/// A parent `via` could have left as `key`: key with via.node's field set
/// to `prior` — the tree-edge contract relax() checks.
template <typename Packed>
Packed parent_of(const Packed& key, Move via, unsigned prior) {
  Packed parent = key;
  parent.set_field(via.node, prior);
  return parent;
}

/// A table with spilling disabled — the legacy ClosedTable semantics every
/// unbudgeted (and spill=off) search still runs on.
template <typename Packed>
SpillingClosedTable<Packed> ram_only_table(std::size_t node_count,
                                           std::size_t max_bytes) {
  return SpillingClosedTable<Packed>(node_count, max_bytes, "", 0);
}

TEST(ClosedTable, RelaxAndLookupSemantics) {
  Table1 table = ram_only_table<PackedKey<1>>(21, 0);
  const Move load{MoveType::Load, 1};
  const Move store{MoveType::Store, 2};
  EXPECT_EQ(table.relax(K(7), 10, parent_of(K(7), load, 2), load),
            Table1::Relax::Inserted);
  // A path no cheaper than the known one dies; a cheaper one re-opens.
  EXPECT_EQ(table.relax(K(7), 99, parent_of(K(7), store, 1), store),
            Table1::Relax::Stale);
  EXPECT_EQ(table.at(K(7)).g, 10);
  EXPECT_EQ(table.relax(K(7), 5, parent_of(K(7), store, 1), store),
            Table1::Relax::Improved);
  EXPECT_EQ(table.at(K(7)).g, 5);
  EXPECT_EQ(table.size(), 1u);
  // Growth keeps every entry reachable.
  for (std::uint64_t k = 100; k < 3000; ++k) {
    table.relax(K(k), static_cast<std::int64_t>(k), K(k),
                Move{MoveType::Load, 0});
  }
  EXPECT_EQ(table.size(), 2901u);
  EXPECT_EQ(table.at(K(7)).g, 5);
  EXPECT_EQ(table.at(K(2999)).g, 2999);
  EXPECT_GT(table.bytes(), 2901 * sizeof(std::uint64_t));
}

/// Insert 2000 keys of `n` nodes, each with its own (parent, via) edge, and
/// improve every fifth with a new edge; every g, parent and via must come
/// back from at() exactly. Nodes cycle through 0, n − 1 and k mod n.
template <typename Packed>
void check_slot_edges(std::size_t n) {
  SCOPED_TRACE(::testing::Message() << n << " nodes");
  using Table = SpillingClosedTable<Packed>;
  Table table = ram_only_table<Packed>(n, 0);
  struct Stored {
    Packed key;
    std::int64_t g;
    Packed parent;
    Move via;
  };
  std::vector<Stored> stored;
  const MoveType types[] = {MoveType::Load, MoveType::Store,
                            MoveType::Compute, MoveType::Delete};
  Rng rng(n);
  std::vector<std::uint8_t> bytes(Packed::key_serialized_bytes(n));
  for (std::uint64_t k = 1; k <= 2000; ++k) {
    for (std::uint8_t& b : bytes) b = static_cast<std::uint8_t>(rng.next_u64());
    const Packed key = Packed::key_deserialize(bytes.data(), n);
    const auto node = static_cast<NodeId>(k % 3 == 0   ? 0
                                          : k % 3 == 1 ? n - 1
                                                       : k % n);
    const Move via{types[k % 4], node};
    const Stored s{key, static_cast<std::int64_t>(k % 50 + 10),
                   parent_of(key, via, static_cast<unsigned>(k % 8)), via};
    ASSERT_EQ(table.relax(s.key, s.g, s.parent, s.via),
              Table::Relax::Inserted);
    stored.push_back(s);
  }
  // Improve every fifth key with the next move type on another node.
  for (std::size_t i = 0; i < stored.size(); i += 5) {
    Stored& s = stored[i];
    s.g -= 5;
    s.via = Move{types[(static_cast<int>(s.via.type) + 1) % 4],
                 s.via.node == 0 ? static_cast<NodeId>(n - 1) : NodeId{0}};
    s.parent = parent_of(s.key, s.via, (s.key.field(s.via.node) + 1) % 8);
    ASSERT_EQ(table.relax(s.key, s.g, s.parent, s.via),
              Table::Relax::Improved);
  }
  EXPECT_EQ(table.size(), stored.size());
  for (const Stored& s : stored) {
    const typename Table::Entry entry = table.at(s.key);
    EXPECT_EQ(entry.g, s.g);
    EXPECT_EQ(entry.parent, s.parent);
    EXPECT_EQ(entry.parent.hash(), s.parent.recompute_hash());
    EXPECT_EQ(entry.via, s.via);
  }
}

TEST(ClosedTable, PackedSlotsKeepParentAndViaMoveExactly) {
  // A slot stores the via move as a 32-bit node and an 8-bit type beside
  // its flags and the field the move overwrote: every type, node 0 and the
  // A* driver's node cap 1023 must come back from at() unchanged, with the
  // parent rebuilt bit for bit — after an improvement, and after the table
  // grows past its first 1024 slots (768 keys at load 3/4).
  check_slot_edges<PackedKey<1>>(21);
  check_slot_edges<PackedKey<2>>(42);
  check_slot_edges<PackedKey<0>>(1024);
}

TEST(ClosedTable, HashedRelaxMatchesTheUnhashedForm) {
  Table1 hashed = ram_only_table<PackedKey<1>>(21, 0);
  Table1 plain = ram_only_table<PackedKey<1>>(21, 0);
  for (std::uint64_t k = 0; k < 1500; ++k) {
    const PackedKey<1> key = K(k % 900);  // revisits: Stale and Improved
    const auto g = static_cast<std::int64_t>(1000 - k);
    const Move via{MoveType::Compute, static_cast<NodeId>(k % 21)};
    const PackedKey<1> parent = parent_of(key, via, k % 8);
    hashed.prefetch(key.hash());
    ASSERT_EQ(hashed.relax(key, key.hash(), g, parent, via),
              plain.relax(key, g, parent, via));
  }
  EXPECT_EQ(hashed.size(), plain.size());
  for (std::uint64_t k = 0; k < 900; ++k) {
    EXPECT_EQ(hashed.at(K(k)).g, plain.at(K(k)).g);
    EXPECT_EQ(hashed.at(K(k)).parent, plain.at(K(k)).parent);
  }
}

TEST(ClosedTable, ExpansionGateFiresOncePerKeyAndG) {
  Table1 table = ram_only_table<PackedKey<1>>(21, 0);
  const Move load{MoveType::Load, 1};
  table.relax(K(7), 10, parent_of(K(7), load, 2), load);
  EXPECT_EQ(table.begin_expansion(K(7), 12), Table1::Pop::Skip);  // stale g
  EXPECT_EQ(table.begin_expansion(K(7), 10), Table1::Pop::Expand);
  EXPECT_EQ(table.begin_expansion(K(7), 10), Table1::Pop::Skip);  // once only
  // A strict improvement re-opens the state at its new g.
  EXPECT_EQ(table.relax(K(7), 4, parent_of(K(7), load, 2), load),
            Table1::Relax::Improved);
  EXPECT_EQ(table.begin_expansion(K(7), 10), Table1::Pop::Skip);
  EXPECT_EQ(table.begin_expansion(K(7), 4), Table1::Pop::Expand);
}

TEST(ClosedTable, RefusesInsertsBeyondTheByteBudgetWhenSpillIsOff) {
  Table1 tiny = ram_only_table<PackedKey<1>>(21, 64);  // below the slab
  EXPECT_EQ(tiny.relax(K(1), 0, K(0), Move{MoveType::Load, 0}),
            Table1::Relax::OutOfMemory);
  EXPECT_EQ(tiny.size(), 0u);

  // Holds the slab, not a grow.
  Table1 small = ram_only_table<PackedKey<1>>(21, 100'000);
  std::size_t inserted = 0;
  for (std::uint64_t k = 0; k < 10'000; ++k) {
    if (small.relax(K(k), 0, K(k), Move{MoveType::Load, 0}) ==
        Table1::Relax::OutOfMemory) {
      break;
    }
    ++inserted;
  }
  EXPECT_GT(inserted, 0u);
  EXPECT_LT(inserted, 10'000u);
  EXPECT_LE(small.bytes(), 100'000u);
  // Everything inserted before the refusal is still there.
  EXPECT_EQ(small.size(), inserted);
  EXPECT_EQ(small.at(K(0)).g, 0);
}

TEST(ClosedTable, AccountsHeapWordsOfRuntimeWidthKeys) {
  // Two tables, same slot layout: one stores a 3-word key, one an 8-word
  // key; the byte difference must be exactly the keys' extra heap words (a
  // slot stores no parent key).
  TableVar narrow_table = ram_only_table<PackedKey<0>>(60, 0);
  const PackedKey<0> narrow_key(60);  // 3 words
  ASSERT_EQ(PackedKey<0>::key_heap_bytes(narrow_key),
            3 * sizeof(std::uint64_t));
  narrow_table.relax(narrow_key, 0, narrow_key, Move{MoveType::Load, 0});

  TableVar wide_table = ram_only_table<PackedKey<0>>(150, 0);
  PackedKey<0> key(150);  // 8 words
  key.set_color(140, PebbleColor::Red);
  ASSERT_EQ(wide_table.relax(key, 1, key, Move{MoveType::Load, 0}),
            TableVar::Relax::Inserted);
  EXPECT_EQ(PackedKey<0>::key_heap_bytes(key), 8 * sizeof(std::uint64_t));
  EXPECT_EQ(wide_table.bytes(),
            narrow_table.bytes() + 5 * sizeof(std::uint64_t));
  EXPECT_EQ(wide_table.at(key).g, 1);
}

TEST(MemoryBudget, SearchEndsGracefullyWithPartialStatsWhenSpillIsOff) {
  Dag dag = make_random_layered_dag({.layers = 3, .width = 4, .indegree = 2,
                                     .seed = 6});
  Engine engine(dag, Model::oneshot(), min_red_pebbles(dag));
  ExactSearchOptions options;
  options.max_memory_bytes = 100'000;  // a grow past the first slab trips it
  options.spill = SpillMode::Off;      // spill would turn this into a solve
  ExactSearchStats stats;
  EXPECT_EQ(try_solve_exact_astar(engine, options, &stats), std::nullopt);
  EXPECT_EQ(stats.termination, ExactTermination::MemoryBudget);
  EXPECT_GT(stats.states_expanded, 0u);
  EXPECT_GT(stats.table_bytes, 0u);
  EXPECT_LE(stats.table_bytes, options.max_memory_bytes);
  EXPECT_EQ(stats.spilled_states, 0u);
  // The HDA* shards split the same budget and trip the same way.
  EXPECT_EQ(try_solve_hda_astar(engine, 2, options, &stats), std::nullopt);
  EXPECT_EQ(stats.termination, ExactTermination::MemoryBudget);
}

TEST(MemoryBudget, ReportedThroughTheSolverApi) {
  Dag dag = make_random_layered_dag({.layers = 3, .width = 4, .indegree = 2,
                                     .seed = 6});
  Engine engine(dag, Model::oneshot(), min_red_pebbles(dag));
  SolveRequest request;
  request.engine = &engine;
  request.budget.max_memory_bytes = 100'000;
  // Pinned: threads=0 resolves to the core count, and on four or more cores
  // hda-astar's per-shard quarter of the budget cannot hold the start state.
  request.budget.threads = 2;
  request.options["spill"] = "off";
  for (const char* name : {"exact-astar", "hda-astar"}) {
    SolveResult result = SolverRegistry::instance().at(name).run(request);
    EXPECT_EQ(result.status, SolveStatus::BudgetExhausted) << name;
    EXPECT_NE(result.detail.find("memory budget"), std::string::npos) << name;
    EXPECT_NE(result.detail.find("spill=off"), std::string::npos) << name;
    ASSERT_TRUE(result.stats.contains("table_bytes")) << name;
    EXPECT_GT(std::stoull(result.stats.at("table_bytes")), 0u) << name;
  }
}

TEST(MemoryBudget, FlowsThroughThePortfolio) {
  Dag dag = make_random_layered_dag({.layers = 3, .width = 4, .indegree = 2,
                                     .seed = 6});
  Engine engine(dag, Model::oneshot(), min_red_pebbles(dag));
  SolveRequest request;
  request.engine = &engine;
  request.budget.max_memory_bytes = 100'000;
  request.options["spill"] = "off";
  PortfolioOptions options;
  options.solvers = {"exact-astar", "greedy"};
  options.parallel = false;  // deterministic order for the assertion below
  options.cancel_on_optimal = false;
  PortfolioResult portfolio = solve_portfolio(request, options);
  ASSERT_EQ(portfolio.results.size(), 2u);
  EXPECT_EQ(portfolio.results[0].status, SolveStatus::BudgetExhausted);
  EXPECT_NE(portfolio.results[0].detail.find("memory budget"),
            std::string::npos);
  // The heuristic still wins the race with a verified trace.
  ASSERT_TRUE(portfolio.has_best());
  EXPECT_EQ(portfolio.best().solver, "greedy");
}

// ---- incumbent seeding ---------------------------------------------------

TEST(IncumbentSeed, GreedySeedIsReturnedProvenOptimalWhenNothingBeatsIt) {
  // On a chain the greedy trace costs 0 — already optimal — so the search
  // starts with incumbent 0, prunes everything, and returns the seed with
  // an optimality certificate without expanding a single state.
  Dag dag = make_chain_dag(30);
  Engine engine(dag, Model::oneshot(), 2);
  SolveRequest request;
  request.engine = &engine;
  request.options["incumbent"] = "greedy";
  for (const char* name : {"exact-astar", "hda-astar"}) {
    SolveResult result = SolverRegistry::instance().at(name).run(request);
    ASSERT_EQ(result.status, SolveStatus::Optimal) << name;
    EXPECT_EQ(result.cost, Rational(0)) << name;
    EXPECT_EQ(result.stats.at("incumbent_source"), "greedy") << name;
    EXPECT_EQ(result.stats.at("states_expanded"), "0") << name;
    EXPECT_EQ(verify_or_throw(engine, *result.trace).total, result.cost)
        << name;
  }
}

TEST(IncumbentSeed, SearchStillWinsWhenItBeatsTheSeed) {
  // Greedy is suboptimal on this instance; the seeded search must find the
  // true optimum (matching the unseeded one) and report the source as the
  // search itself.
  Dag dag = make_random_layered_dag({.layers = 3, .width = 3, .indegree = 2,
                                     .seed = 5});
  Engine engine(dag, Model::nodel(), min_red_pebbles(dag));
  SolveRequest request;
  request.engine = &engine;
  SolveResult unseeded = SolverRegistry::instance().at("exact-astar").run(request);
  request.options["incumbent"] = "greedy";
  SolveResult seeded = SolverRegistry::instance().at("exact-astar").run(request);
  ASSERT_EQ(unseeded.status, SolveStatus::Optimal);
  ASSERT_EQ(seeded.status, SolveStatus::Optimal);
  EXPECT_EQ(seeded.cost, unseeded.cost);
  // Whoever produced the trace, the cost claim is identical; the stat only
  // reports provenance.
  const std::string& source = seeded.stats.at("incumbent_source");
  EXPECT_TRUE(source == "search" || source == "greedy") << source;
  // Seeding prunes speculative expansions; it must never add any.
  EXPECT_LE(std::stoull(seeded.stats.at("states_expanded")),
            std::stoull(unseeded.stats.at("states_expanded")));
}

TEST(IncumbentSeed, BudgetExhaustionReturnsTheSeedAsBestSoFar) {
  // Past the fixed-width cap the adapter seeds a verified greedy trace; a
  // search whose budget expires before the optimality proof must hand that
  // trace back as the best-so-far, not walk away empty-handed.
  Dag dag = make_stencil1d_dag(2, 22).dag;  // 46 nodes: auto-seeded
  Engine engine(dag, Model::nodel(), min_red_pebbles(dag));
  SolveRequest request;
  request.engine = &engine;
  request.budget.max_states = 100;
  SolveResult result = SolverRegistry::instance().at("exact-astar").run(request);
  ASSERT_EQ(result.status, SolveStatus::BudgetExhausted);
  ASSERT_TRUE(result.has_trace());
  EXPECT_EQ(verify_or_throw(engine, *result.trace).total, result.cost);
  EXPECT_EQ(result.stats.at("incumbent_source"), "greedy");
  EXPECT_NE(result.detail.find("incumbent seed"), std::string::npos);
}

TEST(MemoryBudget, SpillOptionTyposFailLoudly) {
  // spill accepts auto, off, or a directory path (with a '/'); a typo like
  // spill=on must not silently become a relative spill directory.
  Dag dag = make_chain_dag(6);
  Engine engine(dag, Model::oneshot(), 2);
  SolveRequest request;
  request.engine = &engine;
  request.options["spill"] = "on";
  EXPECT_THROW(SolverRegistry::instance().at("exact-astar").run(request),
               PreconditionError);
}

TEST(PatternDatabase, OutOfRangePatternWidthFailsLoudly) {
  Dag dag = make_chain_dag(6);
  Engine engine(dag, Model::oneshot(), 2);
  SolveRequest request;
  request.engine = &engine;
  request.options["pdb"] = "on";
  // 0 is no width and 9 is past kMaxPatternSize: both must fail naming
  // the accepted range, not run some other width.
  for (const char* width : {"0", "9"}) {
    request.options["pdb-pattern"] = width;
    try {
      SolverRegistry::instance().at("exact-astar").run(request);
      ADD_FAILURE() << "pdb-pattern=" << width << " was accepted";
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find("between 1 and 8"),
                std::string::npos)
          << e.what();
    }
  }
  request.options["pdb-pattern"] = "8";
  const SolveResult result =
      SolverRegistry::instance().at("exact-astar").run(request);
  EXPECT_EQ(result.status, SolveStatus::Optimal);
}

TEST(IncumbentSeed, AutoSeedsOnlyPastTheFixedWidthCap) {
  Dag dag = make_chain_dag(30);
  Engine engine(dag, Model::oneshot(), 2);
  SolveRequest request;
  request.engine = &engine;
  SolveResult result = SolverRegistry::instance().at("exact-astar").run(request);
  ASSERT_EQ(result.status, SolveStatus::Optimal);
  // 30 nodes ≤ 42: auto mode must not seed, keeping expansion counts
  // bit-for-bit with the historical fixed-width behavior.
  EXPECT_EQ(result.stats.at("incumbent_source"), "none");
  EXPECT_NE(result.stats.at("states_expanded"), "0");
}

// ---- past the fixed-width cap --------------------------------------------

TEST(BigScale, ProvesOptimaOn48NodesUnderAMemoryBudgetBothSearchesAgreeing) {
  // The acceptance instance: 48 nodes — six past what any fixed-width word
  // can pack — solved to proven optimality by both searches under a stated
  // 64 MiB memory budget, costs matching.
  Dag dag = make_chain_dag(48);
  Engine engine(dag, Model::oneshot(), 2);
  ExactSearchOptions options;
  options.max_states = 4'000'000;
  options.max_memory_bytes = std::size_t{64} << 20;
  ExactSearchStats astar_stats, hda_stats;
  auto astar = try_solve_exact_astar(engine, options, &astar_stats);
  auto hda = try_solve_hda_astar(engine, 4, options, &hda_stats);
  ASSERT_TRUE(astar.has_value());
  ASSERT_TRUE(hda.has_value());
  // A 2-pebble sliding window computes the chain with no transfers at all.
  EXPECT_EQ(astar->cost, Rational(0));
  EXPECT_EQ(hda->cost, astar->cost);
  EXPECT_TRUE(verify(engine, astar->trace).ok());
  EXPECT_TRUE(verify(engine, hda->trace).ok());
  EXPECT_EQ(astar_stats.termination, ExactTermination::Solved);
  EXPECT_EQ(hda_stats.termination, ExactTermination::Solved);
  EXPECT_GT(astar_stats.table_bytes, 0u);
  EXPECT_LE(astar_stats.table_bytes, options.max_memory_bytes);
}

TEST(BigScale, BothSearchesProveTheSameOptimumOnA50NodeStencil) {
  // A branching (non-chain) instance well past the fixed-width cap: 50
  // nodes of 1-D stencil in nodel. Two independent searches — sequential
  // A* and HDA* — must certify the same optimum; their agreement is the
  // cross-check that the bigstate machinery (runtime-width states, PDB
  // heuristic, seeded incumbent) preserved exactness.
  Dag dag = make_stencil1d_dag(2, 24).dag;
  ASSERT_EQ(dag.node_count(), 50u);
  Engine engine(dag, Model::nodel(), min_red_pebbles(dag));
  ExactSearchOptions options;
  options.max_states = 8'000'000;
  options.max_memory_bytes = std::size_t{512} << 20;
  ExactSearchStats astar_stats, hda_stats;
  auto astar = try_solve_exact_astar(engine, options, &astar_stats);
  auto hda = try_solve_hda_astar(engine, 0, options, &hda_stats);
  ASSERT_TRUE(astar.has_value());
  ASSERT_TRUE(hda.has_value());
  EXPECT_EQ(astar->cost, hda->cost);
  EXPECT_EQ(verify_or_throw(engine, astar->trace).total, astar->cost);
  EXPECT_EQ(verify_or_throw(engine, hda->trace).total, hda->cost);
  EXPECT_GE(astar->cost, cost_lower_bound(dag, Model::nodel(),
                                          min_red_pebbles(dag)));
}

TEST(BigScale, RegistryCapsAdvertiseTheLiftedLimit) {
  Dag dag = make_chain_dag(48);
  Engine engine(dag, Model::oneshot(), 2);
  SolveRequest request;
  request.engine = &engine;
  request.budget.max_memory_bytes = std::size_t{64} << 20;
  for (const char* name : {"exact-astar", "hda-astar"}) {
    SolveResult result = SolverRegistry::instance().at(name).run(request);
    ASSERT_EQ(result.status, SolveStatus::Optimal) << name;
    EXPECT_EQ(result.cost, Rational(0)) << name;
  }
}

}  // namespace
}  // namespace rbpeb
