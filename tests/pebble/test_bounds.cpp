// Section 3 / Lemma 1 bounds as executable checks.
#include "src/pebble/bounds.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/graph/dag_builder.hpp"
#include "src/pebble/verifier.hpp"
#include "src/solvers/bigstate/pdb.hpp"
#include "src/solvers/exact.hpp"
#include "src/solvers/expander.hpp"
#include "src/solvers/greedy.hpp"
#include "src/solvers/packed_state.hpp"
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

// The word decode of a packed key (Masks::assign from a PackedKey) against
// the per-node loop on the same configuration as a GameState, for the
// (PackedKey, Masks) pair the width dispatch picks at each node count: on
// both sides of the straddling fields (nodes 21 and 42 of each 64-node
// group), of the 64-node mask words and of the 1024-node cap. One Masks is
// reused, so each decode must overwrite every plane word.
TEST(Masks, PackedDecodeMatchesThePerNodeLoop) {
  Rng rng(77);
  for (std::size_t n : {1, 20, 21, 22, 41, 42, 43, 63, 64, 65, 85, 96, 127,
                        128, 129, 191, 192, 193, 255, 256, 1023, 1024}) {
    dispatch_search_width(n, [&]<class Packed, class M>() {
      M decoded(n);
      const auto check = [&](const std::vector<unsigned>& fields,
                             const char* what) {
        Packed key(n);
        GameState state(n);
        for (std::size_t v = 0; v < n; ++v) {
          const auto node = static_cast<NodeId>(v);
          key.set_field(node, fields[v]);
          state.set_color(node, static_cast<PebbleColor>(fields[v] & 3u));
          if ((fields[v] & 4u) != 0) state.mark_computed(node);
        }
        decoded.assign(key, n);
        ASSERT_EQ(decoded, M::from(state, n)) << what << ", n = " << n;
      };
      check(std::vector<unsigned>(n, 1u), "all red");
      check(std::vector<unsigned>(n, 2u), "all blue");
      check(std::vector<unsigned>(n, 4u), "all computed");
      constexpr unsigned kReachable[] = {0, 1, 2, 4, 5, 6};
      std::vector<unsigned> fields(n);
      for (int trial = 0; trial < 40; ++trial) {
        for (unsigned& f : fields) f = kReachable[rng.next_below(6)];
        check(fields, "random");
      }
    });
  }
}

// ---- successor pricing as a delta from the parent ------------------------
//
// One case per delta rule of StateBoundEvaluator::successor_bound, in every
// model and convention that allows the rule: the parent's planes must place
// the moved node where the rule says, and the delta price must equal
// lower_bound_scaled of the successor and the mark-and-walk oracle — with no
// pattern database, a width-2 one and a width-5 one. After the case's move,
// every other legal move of the parent is priced from the same ParentBound,
// so a rule that leaves the parent's planes changed fails on its siblings.
// Each DAG also runs behind 64 and 130 isolated nodes, which puts the rules'
// nodes in the second and third mask word: two-word masks, and runtime-width
// masks of three words.

/// `pad` isolated nodes, then five more (0,1 → 2; 2 → 3; 2,1 → 4; sinks 3
/// and 4), numbered from `pad`.
Dag delta_dag(std::size_t pad) {
  DagBuilder b;
  b.add_nodes(pad + 5);
  for (auto [u, v] : {std::pair{0, 2}, {1, 2}, {2, 3}, {2, 4}, {1, 4}}) {
    b.add_edge(static_cast<NodeId>(pad + u), static_cast<NodeId>(pad + v));
  }
  return b.build();
}

/// `pad` isolated nodes, then seven more for Compute v ∈ C, numbered from
/// `pad`: 0 → 2 → 3 → 6; 1 → 4 → 6; 0 → 5 → 6; sink 6.
Dag compute_dag(std::size_t pad) {
  DagBuilder b;
  b.add_nodes(pad + 7);
  for (auto [u, v] : {std::pair{0, 2}, {2, 3}, {3, 6}, {1, 4}, {4, 6}, {0, 5},
                      {5, 6}}) {
    b.add_edge(static_cast<NodeId>(pad + u), static_cast<NodeId>(pad + v));
  }
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

/// The delta_dag parent most cases use: 0 red, 1 blue, 2 red — closure
/// {3, 4}, PU {1, 2}.
std::vector<Move> delta_parent() {
  return {compute(0), compute(1), compute(2), store(1)};
}

/// Compute v ∈ C on compute_dag. Parent A: 0 and 2 red, 1 blue — closure
/// {3, 4, 5, 6}, blue input 1 (through 4). Parent B: 2 red, 1 blue, 0
/// deleted — closure {0, 3, 4, 5, 6}, where 0 is an empty ancestor of 3
/// (through red 2) that 5 keeps in the closure.
const std::vector<DeltaCase>& compute_cases() {
  static const std::vector<DeltaCase> cases = {
      {"compute of an interior closure node beside a blue input",
       {compute(0), compute(2), compute(1), store(1)},
       compute(3),
       Where::InClosure},
      {"compute of a closure node whose red input has an empty ancestor "
       "another member keeps",
       {compute(0), compute(2), erase(0), compute(1), store(1)},
       compute(3),
       Where::InClosure},
      {"compute of an empty source in the closure",
       {compute(0), compute(2), erase(0), compute(1), store(1)},
       compute(0),
       Where::InClosure},
  };
  return cases;
}

const std::vector<DeltaCase>& delta_cases() {
  static const std::vector<DeltaCase> cases = {
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
  return cases;
}

/// `move` on the node `pad` places later. Under sources-blue a source
/// starts blue and cannot be computed, so a setup's Compute of a source
/// becomes the Load that reddens it there.
Move shifted(const Engine& engine, Move move, std::size_t pad, bool setup) {
  move.node = static_cast<NodeId>(move.node + pad);
  if (setup && move.type == MoveType::Compute &&
      engine.convention().sources_start_blue &&
      engine.dag().is_source(move.node)) {
    move.type = MoveType::Load;
  }
  return move;
}

/// The parent `c` sets up, shifted by `pad`; nullopt when the model or
/// convention forbids a setup move or the case's move.
std::optional<GameState> delta_parent_state(const Engine& engine,
                                            const DeltaCase& c,
                                            std::size_t pad) {
  GameState state = engine.initial_state();
  Cost cost;
  for (const Move& move : c.setup) {
    const Move m = shifted(engine, move, pad, true);
    if (!engine.is_legal(state, m)) return std::nullopt;
    engine.apply(state, m, cost);
  }
  if (!engine.is_legal(state, shifted(engine, c.move, pad, false))) {
    return std::nullopt;
  }
  return state;
}

template <std::size_t W>
void check_delta(const Engine& engine, const PatternDatabase* pdb,
                 const DeltaCase& c, const GameState& parent,
                 std::size_t pad) {
  const std::size_t n = engine.dag().node_count();
  SCOPED_TRACE(::testing::Message()
               << c.rule << " " << engine.model().name() << " W=" << W
               << " pad=" << pad << (pdb != nullptr ? " pdb" : ""));
  StateBoundEvaluator delta(engine);
  StateBoundEvaluator reference(engine);
  delta.attach_pdb(pdb);
  reference.attach_pdb(pdb);
  ParentBound<W> ctx(delta.caches().words,
                     pdb != nullptr ? pdb->term_count() : 0);
  const Masks<W> parent_masks = Masks<W>::from(parent, n);
  delta.enter_parent(parent_masks, ctx);

  const Move move = shifted(engine, c.move, pad, false);
  const std::size_t w = move.node >> 6;
  const std::uint64_t bit = std::uint64_t{1} << (move.node & 63);
  const bool sink = engine.dag().is_sink(move.node);
  const bool in_closure = (ctx.closure.nodes()[w] & bit) != 0;
  const bool in_inputs = (ctx.closure.inputs()[w] & bit) != 0;
  switch (c.where) {
    case Where::Sink: EXPECT_TRUE(sink); break;
    case Where::Input: EXPECT_TRUE(in_inputs && !sink); break;
    case Where::Elsewhere: EXPECT_TRUE(!in_inputs && !sink); break;
    case Where::InClosure: EXPECT_TRUE(in_closure); break;
    case Where::OutsideClosure: EXPECT_FALSE(in_closure); break;
    case Where::Any: break;
  }

  std::vector<Move> moves = {move};
  for (const Move& sibling : test_support::legal_moves(engine, parent)) {
    if (!(sibling == move)) moves.push_back(sibling);
  }
  for (const Move& m : moves) {
    SCOPED_TRACE(::testing::Message() << "priced move " << to_string(m));
    if (m.type == MoveType::Compute &&
        (ctx.closure.nodes()[m.node >> 6] >> (m.node & 63) & 1u) != 0) {
      // Why Compute v ∈ C needs no cascade: every input of v is red.
      for (NodeId u : engine.dag().predecessors(m.node)) {
        EXPECT_TRUE(parent.is_red(u)) << "input " << u;
      }
    }
    GameState child = parent;
    Cost cost;
    engine.apply(child, m, cost);
    const auto child_masks = Masks<W>::from(child, n);
    const std::optional<std::int64_t> got =
        delta.successor_bound(ctx, m, child_masks);
    EXPECT_EQ(got, reference.lower_bound_scaled(child_masks));
    if (pdb == nullptr) {
      EXPECT_EQ(got, test_support::lower_bound_generic(engine, child));
    }
  }
}

/// What check_delta_cases ran under one model and convention: how many
/// cases, and whether one moved the node of weight 6^4 of a width-5
/// database that is a single whole-DAG term.
struct CasesRan {
  std::size_t cases = 0;
  bool top_weight_moved = false;
};

/// Every case on `make_dag(pad)` in every model and convention; at pad 0
/// also at the runtime mask width.
template <std::size_t W, class MakeDag>
std::vector<CasesRan> check_delta_cases(MakeDag make_dag, std::size_t pad,
                                        const std::vector<DeltaCase>& cases) {
  const Dag dag = make_dag(pad);
  std::vector<CasesRan> ran;
  for (const Model& model : all_models()) {
    for (const PebblingConvention& convention :
         {PebblingConvention{false, false}, PebblingConvention{true, false},
          PebblingConvention{false, true}, PebblingConvention{true, true}}) {
      const Engine engine(dag, model, 5, convention);
      const PatternDatabase narrow(engine, 2);
      const PatternDatabase wide(engine, 5);
      const PatternDatabase* none = nullptr;
      CasesRan& here = ran.emplace_back();
      for (const DeltaCase& c : cases) {
        const std::optional<GameState> parent =
            delta_parent_state(engine, c, pad);
        if (!parent) continue;
        ++here.cases;
        const NodeId moved = shifted(engine, c.move, pad, false).node;
        here.top_weight_moved |= wide.term_count() == 1 &&
                                 wide.node_term(moved).weight == 6 * 6 * 6 * 6;
        for (const PatternDatabase* attached : {none, &narrow, &wide}) {
          check_delta<W>(engine, attached, c, *parent, pad);
          if (pad == 0) check_delta<0>(engine, attached, c, *parent, pad);
        }
      }
    }
  }
  return ran;
}

TEST(StateBounds, SuccessorDeltaMatchesTheReferenceForEveryRule) {
  for (const CasesRan& ran :
       check_delta_cases<1>(delta_dag, 0, delta_cases())) {
    EXPECT_GE(ran.cases, 4u);
    EXPECT_TRUE(ran.top_weight_moved);
  }
  check_delta_cases<2>(delta_dag, 64, delta_cases());
  check_delta_cases<0>(delta_dag, 130, delta_cases());
}

TEST(StateBounds, ComputeInsideTheClosureMatchesTheReferenceAtEveryWidth) {
  for (const std::vector<CasesRan>& ran :
       {check_delta_cases<1>(compute_dag, 0, compute_cases()),
        check_delta_cases<2>(compute_dag, 64, compute_cases()),
        check_delta_cases<0>(compute_dag, 130, compute_cases())}) {
    for (const CasesRan& here : ran) EXPECT_GE(here.cases, 1u);
  }
}

// ---- the closure memo ------------------------------------------------------
//
// The delta tests above build a fresh evaluator per check, so their memo
// only ever misses. Here one long-lived evaluator per engine follows seeded
// random pebblings — random topological orders pebbled with random
// eviction under the default convention — until it has seen more distinct
// pebbled sets than the memo has slots, so entries hit, miss and are
// overwritten. Each visited state is entered twice — the second entry must
// hit — and its ParentBound planes must equal a fresh evaluator's, and its
// entered bound the reference. Every legal move's successor_bound must
// equal lower_bound_scaled, which never consults the memo; where the model
// deletes, some Deletes must hit an entry a full walk stored.

/// Kahn's algorithm drawing each next node uniformly from the ready set.
std::vector<NodeId> random_topological_order(const Dag& dag, Rng& rng) {
  std::vector<std::size_t> waiting(dag.node_count());
  std::vector<NodeId> ready;
  for (std::size_t v = 0; v < dag.node_count(); ++v) {
    waiting[v] = dag.predecessors(static_cast<NodeId>(v)).size();
    if (waiting[v] == 0) ready.push_back(static_cast<NodeId>(v));
  }
  std::vector<NodeId> order;
  while (!ready.empty()) {
    std::swap(ready[rng.next_below(ready.size())], ready.back());
    const NodeId v = ready.back();
    ready.pop_back();
    order.push_back(v);
    for (NodeId s : dag.successors(v)) {
      if (--waiting[s] == 0) ready.push_back(s);
    }
  }
  return order;
}

template <std::size_t W>
void memo_walks(const Dag& dag, std::uint64_t seed) {
  const std::size_t n = dag.node_count();
  for (const Model& model : all_models()) {
    for (const PebblingConvention& convention :
         {PebblingConvention{false, false}, PebblingConvention{true, false},
          PebblingConvention{false, true}, PebblingConvention{true, true}}) {
      const std::size_t red_limit = min_red_pebbles(dag) + 1;
      const Engine engine(dag, model, red_limit, convention);
      const Engine plain(dag, model, red_limit);
      SCOPED_TRACE(::testing::Message()
                   << model.name() << " sources_blue="
                   << convention.sources_start_blue << " sinks_blue="
                   << convention.sinks_end_blue << " n=" << n << " W=" << W);
      StateBoundEvaluator memo(engine);
      StateBoundEvaluator reference(engine);
      const std::size_t words = memo.caches().words;
      ParentBound<W> parent(words, 0);
      std::set<std::vector<std::uint64_t>> pebbled_sets;
      std::size_t delete_hits = 0;
      Rng rng(++seed);
      for (int walks = 0;
           pebbled_sets.size() <= StateBoundEvaluator::kClosureMemoSlots;
           ++walks) {
        ASSERT_LT(walks, 100) << "walks stopped finding new pebbled sets";
        const Trace walk = pebble_in_order(
            plain, random_topological_order(dag, rng),
            {.eviction = EvictionRule::Random, .seed = rng.next_u64()});
        GameState state = engine.initial_state();
        Masks<W> masks = Masks<W>::from(state, n);
        Masks<W> child = masks;
        Cost cost;
        for (Move step : walk) {
          // Under sources-blue a source's Compute is the Load that reddens
          // it; a walk ends where the convention forbids its next move.
          if (convention.sources_start_blue && step.type == MoveType::Compute &&
              dag.is_source(step.node)) {
            step.type = MoveType::Load;
          }
          if (!engine.is_legal(state, step)) break;
          // Visit the states the walk leaves by a Compute or a Delete,
          // which change the pebbled set; Loads and Stores keep it.
          if (step.type == MoveType::Load || step.type == MoveType::Store) {
            engine.apply(state, step, cost);
            masks.apply(step);
            continue;
          }
          std::vector<std::uint64_t> pebbled(words);
          for (std::size_t w = 0; w < words; ++w) {
            pebbled[w] = masks.red()[w] | masks.blue()[w];
          }
          pebbled_sets.insert(std::move(pebbled));

          memo.enter_parent(masks, parent);
          (void)memo.take_closure_counts();
          memo.enter_parent(masks, parent);
          const StateBoundEvaluator::ClosureCounts again =
              memo.take_closure_counts();
          ASSERT_EQ(again.walks, 0u);
          ASSERT_EQ(again.memo_hits, 1u);
          StateBoundEvaluator fresh(engine);
          ParentBound<W> expected(words, 0);
          fresh.enter_parent(masks, expected);
          ASSERT_TRUE(std::equal(parent.closure.nodes(),
                                 parent.closure.nodes() + words,
                                 expected.closure.nodes()));
          ASSERT_TRUE(std::equal(parent.closure.inputs(),
                                 parent.closure.inputs() + words,
                                 expected.closure.inputs()));
          ASSERT_EQ(memo.entered_bound(masks, parent),
                    reference.lower_bound_scaled(masks));

          for (const Move& move : test_support::legal_moves(engine, state)) {
            child = masks;
            child.apply(move);
            const std::optional<std::int64_t> got =
                memo.successor_bound(parent, move, child);
            if (move.type == MoveType::Delete) {
              delete_hits += memo.take_closure_counts().memo_hits;
            }
            ASSERT_EQ(got, reference.lower_bound_scaled(child))
                << to_string(move) << " before " << to_string(step);
          }
          engine.apply(state, step, cost);
          masks.apply(step);
        }
      }
      if (model.allows_delete()) {
        EXPECT_GT(delete_hits, 0u);
      }
    }
  }
}

TEST(StateBounds, ClosureMemoHitsMatchAFreshWalk) {
  memo_walks<1>(layered(8, 8, 13), 600);  // 64 nodes
  memo_walks<2>(layered(10, 8, 21), 700);  // 80 nodes
  memo_walks<0>(layered(24, 8, 901), 900);    // 192 nodes, three words
  memo_walks<0>(layered(32, 8, 1001), 1000);  // 256 nodes, four words
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
