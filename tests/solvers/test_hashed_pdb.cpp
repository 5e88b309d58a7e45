// The hashed pattern-database tier: open-addressed tables must be invisible
// where the flat 8^|P| tables exist (force_hashed differential), wider
// patterns must build real tables that stay admissible, the min-cut
// partitioner must produce legal partitions, and a byte-budget truncation
// must weaken the heuristic only downward (floors, never optimism).
#include "src/solvers/bigstate/pdb.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>
#include <vector>

#include "src/graph/dag_builder.hpp"
#include "src/pebble/bounds.hpp"
#include "src/pebble/verifier.hpp"
#include "src/solvers/exact.hpp"
#include "src/solvers/exact_astar.hpp"
#include "src/support/rng.hpp"
#include "src/workloads/chain.hpp"
#include "src/workloads/random_layered.hpp"
#include "src/workloads/tree_reduction.hpp"
#include "tests/support/legal_moves.hpp"

namespace rbpeb {
namespace {

using test_support::legal_moves;

/// Random-walk the concrete game, comparing the two databases' bounds at
/// every visited state. `upper_is_reference` asserts equality; otherwise
/// `a` must only ever be the weaker (smaller-or-equal, never dead when the
/// reference is alive) side.
void walk_and_compare(const Engine& engine, const PatternDatabase& a,
                      const PatternDatabase& reference, bool expect_equal,
                      std::uint64_t seed, int steps = 200) {
  Rng rng(seed);
  GameState state = engine.initial_state();
  for (int step = 0; step < steps; ++step) {
    const auto got = a.lower_bound_scaled(state);
    const auto want = reference.lower_bound_scaled(state);
    if (expect_equal) {
      ASSERT_EQ(got, want) << "step=" << step;
    } else if (want.has_value()) {
      // Truncation may only weaken: never dead where the reference is
      // alive, never above the reference's (admissible) value.
      ASSERT_TRUE(got.has_value()) << "step=" << step;
      ASSERT_LE(*got, *want) << "step=" << step;
    }
    std::vector<Move> legal = legal_moves(engine, state);
    if (legal.empty()) break;
    Cost cost;
    engine.apply(state, legal[rng.next_below(legal.size())], cost);
  }
}

// ---- hashed vs flat, bit for bit -----------------------------------------

/// force_hashed builds open-addressed tables at widths the flat arrays
/// cover; both must serve identical bounds (and identical dead verdicts) at
/// every reachable configuration, on every model.
TEST(HashedPdb, ForcedHashedTablesMatchFlatTablesEverywhere) {
  Dag dag = make_random_layered_dag({.layers = 5, .width = 4, .indegree = 2,
                                     .seed = 51});  // 20 nodes
  std::uint64_t seed = 500;
  for (const Model& model : all_models()) {
    Engine engine(dag, model, min_red_pebbles(dag));
    for (std::size_t width : {3u, 6u, 8u}) {
      PatternDatabase flat(engine, width);
      PatternDatabase hashed(engine, width, {}, PdbPartition::Cone,
                             /*table_byte_budget=*/0, /*force_hashed=*/true);
      ASSERT_EQ(flat.pattern_count(), hashed.pattern_count());
      walk_and_compare(engine, hashed, flat, /*expect_equal=*/true, ++seed);
    }
  }
}

/// The hashed tier holds only reached abstract states, so at equal width it
/// must be no larger than the dense arrays it replaces — and smaller where
/// the abstract game has dead projections: a oneshot pattern with internal
/// edges, whose spent-and-needed inputs reach no goal.
TEST(HashedPdb, HashedTablesAreSparserThanFlatAtEqualWidth) {
  Dag dag = make_random_layered_dag({.layers = 4, .width = 4, .indegree = 2,
                                     .seed = 7});  // 16 nodes, 2 patterns
  Engine engine(dag, Model::oneshot(), min_red_pebbles(dag));
  PatternDatabase flat(engine, 8);
  PatternDatabase hashed(engine, 8, {}, PdbPartition::Cone, 0, true);
  EXPECT_GT(flat.table_bytes(), 0u);
  EXPECT_GT(hashed.table_bytes(), 0u);
  EXPECT_LT(hashed.table_bytes(), flat.table_bytes());
}

// ---- genuinely wide patterns ---------------------------------------------

/// A width past the flat cap builds a hashed table for real and the result
/// stays admissible: folded into the search it must not change the proven
/// optimum (checked against a flat-PDB solve of the same instance).
TEST(HashedPdb, WidePatternsStayAdmissibleInTheSearch) {
  Dag dag = make_random_layered_dag({.layers = 3, .width = 3, .indegree = 2,
                                     .seed = 52});  // 9 nodes
  Engine engine(dag, Model::nodel(), min_red_pebbles(dag));
  ExactSearchOptions narrow;
  narrow.max_states = 2'000'000;
  narrow.pdb = PdbMode::On;
  narrow.pdb_pattern_size = 5;
  ExactSearchOptions wide = narrow;
  wide.pdb_pattern_size = 9;  // one 9-node pattern: hashed territory
  ExactSearchStats narrow_stats, wide_stats;
  auto narrow_result = try_solve_exact_astar(engine, narrow, &narrow_stats);
  auto wide_result = try_solve_exact_astar(engine, wide, &wide_stats);
  ASSERT_TRUE(narrow_result.has_value());
  ASSERT_TRUE(wide_result.has_value());
  EXPECT_EQ(narrow_result->cost, wide_result->cost);
  // The whole-instance abstraction is the instance itself: its heuristic is
  // perfect, so the search should expand no more than the narrow one.
  EXPECT_LE(wide_stats.states_expanded, narrow_stats.states_expanded);
  EXPECT_EQ(verify_or_throw(engine, wide_result->trace).total,
            wide_result->cost);
}

// ---- flat table reuse ------------------------------------------------------

/// A DAG with repeated pattern shapes (the 96-node anytime instance), at
/// the default width and at width 3: the flat tier builds one table per
/// distinct sink-bearing shape and none for sink-free patterns, the
/// partition still covers every node once, and the shared tables serve
/// exactly what per-pattern (force_hashed) tables do.
TEST(FlatPdb, BuildsOneTablePerDistinctSinkBearingShape) {
  const Dag dag = make_random_layered_dag(
      {.layers = 16, .width = 6, .indegree = 2, .seed = 71});  // 96 nodes
  using Shape = std::tuple<std::vector<std::vector<std::size_t>>,
                           std::vector<bool>, std::vector<std::size_t>>;
  std::uint64_t seed = 700;
  std::size_t shared = 0;
  for (std::size_t width : {0u, 3u}) {
    for (const Model& model : all_models()) {
      SCOPED_TRACE(::testing::Message() << model.name() << " width " << width);
      const Engine engine(dag, model, min_red_pebbles(dag));
      const PatternDatabase flat(engine, width);
      std::vector<int> seen(dag.node_count(), 0);
      std::set<Shape> shapes;
      std::size_t sink_bearing = 0;
      std::size_t expected_bytes = 0;
      for (std::size_t p = 0; p < flat.pattern_count(); ++p) {
        const std::vector<NodeId>& nodes = flat.pattern_nodes(p);
        Shape shape;
        auto& [preds, sources, sinks] = shape;
        preds.resize(nodes.size());
        for (std::size_t i = 0; i < nodes.size(); ++i) {
          ++seen[nodes[i]];
          sources.push_back(dag.is_source(nodes[i]));
          if (dag.is_sink(nodes[i])) sinks.push_back(i);
          for (NodeId u : dag.predecessors(nodes[i])) {
            for (std::size_t j = 0; j < nodes.size(); ++j) {
              if (nodes[j] == u) preds[i].push_back(j);
            }
          }
        }
        if (sinks.empty()) continue;
        ++sink_bearing;
        if (shapes.insert(shape).second) {
          expected_bytes += (std::size_t{1} << (3 * nodes.size())) *
                            sizeof(std::int32_t);
        }
      }
      for (std::size_t v = 0; v < dag.node_count(); ++v) {
        EXPECT_EQ(seen[v], 1) << "node " << v;
      }
      EXPECT_EQ(flat.term_count(), sink_bearing);
      EXPECT_LT(sink_bearing, flat.pattern_count());  // sink-free ones exist
      shared += sink_bearing - shapes.size();
      EXPECT_EQ(flat.table_bytes(), expected_bytes);

      const PatternDatabase separate(engine, width, {}, PdbPartition::Cone,
                                     /*table_byte_budget=*/0,
                                     /*force_hashed=*/true);
      walk_and_compare(engine, flat, separate, /*expect_equal=*/true, ++seed);
    }
  }
  EXPECT_GT(shared, 0u) << "no table was shared; pick another instance";
}

// ---- the min-cut partitioner ---------------------------------------------

TEST(MinCutPartition, CoversEveryNodeDisjointlyWithinTheSizeCap) {
  for (std::size_t cap : {1u, 4u, 7u, 16u}) {
    Dag dag = make_random_layered_dag({.layers = 6, .width = 5, .indegree = 3,
                                       .seed = 53});
    auto patterns = partition_into_patterns_mincut(dag, cap);
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

/// On a chain every partitioner should find the obvious contiguous
/// segmentation — and the min-cut DP must never cut more edges than the
/// greedy cone partitioner on the same instance.
TEST(MinCutPartition, CutsNoMoreEdgesThanTheGreedyConePartitioner) {
  auto crossing_edges = [](const Dag& dag,
                           const std::vector<std::vector<NodeId>>& patterns) {
    std::vector<std::size_t> owner(dag.node_count(), 0);
    for (std::size_t p = 0; p < patterns.size(); ++p) {
      for (NodeId v : patterns[p]) owner[v] = p;
    }
    std::size_t crossing = 0;
    for (std::size_t v = 0; v < dag.node_count(); ++v) {
      for (NodeId u : dag.predecessors(static_cast<NodeId>(v))) {
        if (owner[u] != owner[v]) ++crossing;
      }
    }
    return crossing;
  };
  for (std::uint64_t seed : {54u, 55u, 56u}) {
    Dag dag = make_random_layered_dag({.layers = 6, .width = 4, .indegree = 2,
                                       .seed = seed});
    const auto cone = partition_into_patterns(dag, 6);
    const auto mincut = partition_into_patterns_mincut(dag, 6);
    EXPECT_LE(crossing_edges(dag, mincut), crossing_edges(dag, cone))
        << "seed " << seed;
  }
}

/// The mincut partitioner is reachable end to end through the search
/// options and changes no proven optimum.
TEST(MinCutPartition, SearchWithMinCutPartitionAgreesWithCone) {
  Dag dag = make_random_layered_dag({.layers = 5, .width = 3, .indegree = 2,
                                     .seed = 57});  // 15 nodes
  Engine engine(dag, Model::oneshot(), min_red_pebbles(dag));
  ExactSearchOptions cone;
  cone.max_states = 2'000'000;
  cone.pdb = PdbMode::On;
  cone.pdb_pattern_size = 5;
  ExactSearchOptions mincut = cone;
  mincut.pdb_partition = PdbPartition::MinCut;
  auto cone_result = try_solve_exact_astar(engine, cone);
  auto mincut_result = try_solve_exact_astar(engine, mincut);
  ASSERT_TRUE(cone_result.has_value());
  ASSERT_TRUE(mincut_result.has_value());
  EXPECT_EQ(cone_result->cost, mincut_result->cost);
}

// ---- byte-budget truncation ----------------------------------------------

/// A build squeezed under a tiny byte budget truncates instead of failing:
/// bounds only ever drop relative to the untruncated build (settled entries
/// exact, the rest floored), and no live state is called dead.
TEST(HashedPdb, TruncatedBuildsOnlyWeakenTheBound) {
  Dag dag = make_random_layered_dag({.layers = 5, .width = 4, .indegree = 2,
                                     .seed = 58});  // 20 nodes
  std::uint64_t seed = 600;
  for (const Model& model : all_models()) {
    Engine engine(dag, model, min_red_pebbles(dag));
    PatternDatabase full(engine, 7, {}, PdbPartition::Cone, 0, true);
    // A few KiB: enough for the first slot arrays, far under the full build.
    PatternDatabase truncated(engine, 7, {}, PdbPartition::Cone,
                              /*table_byte_budget=*/8 << 10,
                              /*force_hashed=*/true);
    ASSERT_GT(full.table_bytes(), std::size_t{8} << 10)
        << "budget not actually binding; tighten the test";
    walk_and_compare(engine, truncated, full, /*expect_equal=*/false, ++seed);
  }
}

/// The truncated database still drives the search to the true optimum —
/// admissibility is what the searches rely on, so prove it end to end.
TEST(HashedPdb, SearchWithTruncatedTablesStillProvesTheOptimum) {
  Dag dag = make_random_layered_dag({.layers = 5, .width = 3, .indegree = 2,
                                     .seed = 59});  // 15 nodes
  Engine engine(dag, Model::compcost(), min_red_pebbles(dag));
  auto reference = try_solve_exact_astar(engine, ExactSearchOptions{});
  ASSERT_TRUE(reference.has_value());
  PatternDatabase truncated(engine, 8, {}, PdbPartition::Cone,
                            /*table_byte_budget=*/4 << 10,
                            /*force_hashed=*/true);
  StateBoundEvaluator eval(engine);
  eval.attach_pdb(&truncated);
  // The start state's bound must not exceed the true optimum.
  const auto start = eval.lower_bound_scaled(engine.initial_state());
  ASSERT_TRUE(start.has_value());
  const Rational eps = engine.model().epsilon();
  EXPECT_LE(Rational(*start, eps.den()), reference->cost);
}

}  // namespace
}  // namespace rbpeb
