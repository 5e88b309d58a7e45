// The pattern database's dense tables: every entry must equal the optimal
// completion cost of its pattern's abstract game (checked index by index
// against a forward search that never goes through the shape map), there
// is one table per isomorphism class of sink-bearing patterns, tables of
// the models that allow recomputation ignore the computed flag at widths
// the oracle cannot reach, a pattern covering the whole DAG must reproduce
// the exact optimum, and the nodel sum can beat the counting bound.
#include "src/solvers/bigstate/pdb.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "src/graph/dag_builder.hpp"
#include "src/pebble/bounds.hpp"
#include "src/solvers/exact.hpp"
#include "src/workloads/pyramid.hpp"
#include "src/workloads/random_layered.hpp"
#include "src/workloads/tree_reduction.hpp"
#include "tests/support/abstract_game.hpp"
#include "tests/support/bound_oracle.hpp"

namespace rbpeb {
namespace {

using test_support::abstract_completion_cost;

/// Every source/sink convention pair the engine supports.
const std::vector<PebblingConvention> kConventions = {
    {false, false}, {true, false}, {false, true}, {true, true}};

/// Check every projection of every term of `pdb` against the forward
/// abstract-game search: equal cost, and kUnreachable exactly where no
/// abstract completion exists. The digit odometer must also visit each of
/// a term's 6^|P| indices exactly once, the same through NodeTerm::weight
/// and projection(): the mixed-radix index is a bijection onto the table.
/// A `stride` above 1 runs the (quadratic) forward search only on indices
/// divisible by it; a stride coprime to 6 still covers every digit at every
/// position.
void expect_tables_match_abstract_games(const Engine& engine,
                                        const PatternDatabase& pdb,
                                        std::size_t stride = 1) {
  std::size_t terms_seen = 0;
  for (std::size_t p = 0; p < pdb.pattern_count(); ++p) {
    const std::vector<NodeId>& nodes = pdb.pattern_nodes(p);
    const std::uint32_t t = pdb.node_term(nodes[0]).term;
    if (t == PatternDatabase::kNoTerm) continue;
    ++terms_seen;
    std::size_t table_size = 1;
    for (std::size_t i = 0; i < nodes.size(); ++i) table_size *= 6;
    std::vector<int> visits(table_size, 0);
    // Odometer over the six digits per position: colors None, Red and
    // Blue, then the same three computed.
    std::vector<unsigned> digit(nodes.size(), 0);
    std::vector<unsigned> digit_of_node(engine.dag().node_count(), 0);
    for (;;) {
      std::vector<unsigned> fields(nodes.size());
      std::size_t index = 0;
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        const PatternDatabase::NodeTerm term = pdb.node_term(nodes[i]);
        ASSERT_EQ(term.term, t);
        fields[i] = (digit[i] % 3) | (digit[i] / 3) << 2;
        index += digit[i] * term.weight;
        digit_of_node[nodes[i]] = digit[i];
      }
      ASSERT_EQ(pdb.projection(t, [&](NodeId v) { return digit_of_node[v]; }),
                index);
      ASSERT_LT(index, table_size);
      ++visits[index];
      if (index % stride == 0) {
        const std::optional<std::int64_t> want =
            abstract_completion_cost(engine, nodes, fields);
        ASSERT_EQ(pdb.distance(t, index),
                  want ? *want : PatternDatabase::kUnreachable)
            << "pattern " << p << " index " << index;
      }
      std::size_t i = 0;
      while (i < nodes.size() && ++digit[i] == 6) digit[i++] = 0;
      if (i == nodes.size()) break;
    }
    EXPECT_EQ(std::count(visits.begin(), visits.end(), 1),
              static_cast<std::ptrdiff_t>(table_size))
        << "pattern " << p;
  }
  EXPECT_EQ(terms_seen, pdb.term_count());
}

// ---- table reuse -----------------------------------------------------------

/// A pattern's shape up to isomorphism, computed without the database's
/// canonical order: the least (predecessor positions, source flags, sink
/// flags) over every ordering of the node set.
using BruteShape = std::tuple<std::vector<std::vector<std::size_t>>,
                              std::vector<bool>, std::vector<bool>>;

BruteShape brute_force_canonical_shape(const Dag& dag,
                                       std::vector<NodeId> nodes) {
  std::sort(nodes.begin(), nodes.end());
  std::optional<BruteShape> best;
  do {
    BruteShape shape;
    auto& [preds, sources, sinks] = shape;
    preds.resize(nodes.size());
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      sources.push_back(dag.is_source(nodes[i]));
      sinks.push_back(dag.is_sink(nodes[i]));
      for (NodeId u : dag.predecessors(nodes[i])) {
        for (std::size_t j = 0; j < nodes.size(); ++j) {
          if (nodes[j] == u) preds[i].push_back(j);
        }
      }
      std::sort(preds[i].begin(), preds[i].end());
    }
    if (!best || shape < *best) best = std::move(shape);
  } while (std::next_permutation(nodes.begin(), nodes.end()));
  return *best;
}

/// A DAG with repeated pattern shapes (the 96-node anytime instance), at
/// the default width and at widths 1, 2, 3 and 5: the database builds one
/// 6^|P| table per isomorphism class of sink-bearing patterns (classes
/// found by brute force over every node ordering) and none for sink-free
/// patterns, the partition still covers every node once, and at widths
/// 1–5 every entry of every shared table (every 37th at width 5, which
/// pins weights up to 6^4) is its own pattern's abstract completion cost
/// under every convention.
TEST(FlatPdb, BuildsOneTablePerIsomorphismClassOfSinkBearingPatterns) {
  const Dag dag = make_random_layered_dag(
      {.layers = 16, .width = 6, .indegree = 2, .seed = 71});  // 96 nodes
  std::size_t shared = 0;
  for (std::size_t width : {0u, 1u, 2u, 3u, 5u}) {
    for (const Model& model : all_models()) {
      SCOPED_TRACE(::testing::Message() << model.name() << " width " << width);
      const Engine engine(dag, model, min_red_pebbles(dag));
      const PatternDatabase flat(engine, width);
      std::vector<int> seen(dag.node_count(), 0);
      std::set<BruteShape> classes;
      std::size_t sink_bearing = 0;
      std::size_t expected_bytes = 0;
      for (std::size_t p = 0; p < flat.pattern_count(); ++p) {
        const std::vector<NodeId>& nodes = flat.pattern_nodes(p);
        for (NodeId v : nodes) ++seen[v];
        if (std::none_of(nodes.begin(), nodes.end(),
                         [&](NodeId v) { return dag.is_sink(v); })) {
          continue;
        }
        ++sink_bearing;
        if (classes.insert(brute_force_canonical_shape(dag, nodes)).second) {
          std::size_t entries = 1;
          for (std::size_t i = 0; i < nodes.size(); ++i) entries *= 6;
          expected_bytes += entries * sizeof(std::int32_t);
        }
      }
      for (std::size_t v = 0; v < dag.node_count(); ++v) {
        EXPECT_EQ(seen[v], 1) << "node " << v;
      }
      EXPECT_EQ(flat.term_count(), sink_bearing);
      EXPECT_LT(sink_bearing, flat.pattern_count());  // sink-free ones exist
      shared += sink_bearing - classes.size();
      EXPECT_EQ(flat.table_bytes(), expected_bytes);

      if (width == 0) continue;
      for (const PebblingConvention& convention : kConventions) {
        SCOPED_TRACE(::testing::Message()
                     << "sources-blue=" << convention.sources_start_blue
                     << " sinks-blue=" << convention.sinks_end_blue);
        const Engine with_convention(dag, model, min_red_pebbles(dag),
                                     convention);
        expect_tables_match_abstract_games(
            with_convention, PatternDatabase(with_convention, width),
            width < 5 ? 1 : 37);
      }
    }
  }
  EXPECT_GT(shared, 0u) << "no table was shared; pick another instance";
}

/// Each DAG holds two copies of one 5-node pattern, numbered so the
/// partitioner lists them in different orders:
///  * s → a, b; a → c, d; b → c as [s, a, b, c, d] and [s, b, a, d, c],
///    where a and b (and c and d) differ in degree;
///  * s1 → a; s2 → b → c as [s1, s2, a, b, c] and [s2, s1, b, a, c], where
///    the sources share every invariant and only their successors tell
///    them apart.
/// The copies' shapes differ position by position but are isomorphic, so
/// the database builds one table. Each copy reads it through its own
/// canonical order, which must map one copy onto the other edge for edge —
/// and the shared table must be each copy's own abstract game (every 37th
/// entry), so a wrong permutation fails the oracle.
TEST(FlatPdb, IsomorphicPatternsInDifferentOrdersShareOneTable) {
  const std::vector<std::vector<std::pair<int, int>>> edge_lists = {
      {{0, 1}, {0, 2}, {1, 3}, {1, 4}, {2, 3},
       {5, 7}, {5, 6}, {7, 9}, {7, 8}, {6, 9}},
      {{0, 2}, {1, 3}, {3, 4}, {5, 7}, {7, 9}, {6, 8}},
  };
  for (const auto& edges : edge_lists) {
    DagBuilder b;
    b.add_nodes(10);
    for (auto [u, v] : edges) {
      b.add_edge(static_cast<NodeId>(u), static_cast<NodeId>(v));
    }
    const Dag dag = b.build();
    const std::vector<std::vector<NodeId>> partition =
        partition_into_patterns(dag, 5);
    ASSERT_EQ(partition.size(), 2u);
    ASSERT_EQ(partition[0], (std::vector<NodeId>{0, 1, 2, 3, 4}));
    ASSERT_EQ(partition[1], (std::vector<NodeId>{5, 6, 7, 8, 9}));

    for (const Model& model : all_models()) {
      for (const PebblingConvention& convention : kConventions) {
        SCOPED_TRACE(::testing::Message()
                     << model.name() << " edges " << edges.size()
                     << " sources-blue=" << convention.sources_start_blue
                     << " sinks-blue=" << convention.sinks_end_blue);
        const Engine engine(dag, model, min_red_pebbles(dag), convention);
        const PatternDatabase pdb(engine, 5);
        ASSERT_EQ(pdb.term_count(), 2u);
        EXPECT_EQ(pdb.table_bytes(),
                  6u * 6 * 6 * 6 * 6 * sizeof(std::int32_t));
        const std::vector<NodeId>& first = pdb.pattern_nodes(0);
        const std::vector<NodeId>& second = pdb.pattern_nodes(1);
        for (std::size_t i = 0; i < 5; ++i) {
          for (std::size_t j = 0; j < 5; ++j) {
            EXPECT_EQ(dag.has_edge(first[i], first[j]),
                      dag.has_edge(second[i], second[j]))
                << "positions " << i << ", " << j;
          }
        }
        expect_tables_match_abstract_games(engine, pdb, 37);
      }
    }
  }
}

// ---- recompute models: the computed flag is dead --------------------------

/// Where recomputation is allowed, no rule and no goal reads the computed
/// flag, so the tables are built over colors only and broadcast over the
/// flags. This pins that shortcut at the widths the forward oracle does not
/// reach (6 and 8), on the 96-node anytime instance, under every
/// convention: in base, nodel and compcost every entry equals the entry
/// with all computed digits cleared. In oneshot, whose Compute needs the
/// flag clear, some entry differs, so the shortcut must stay off there.
TEST(FlatPdb, RecomputeModelTablesIgnoreTheComputedFlag) {
  const Dag dag = make_random_layered_dag(
      {.layers = 16, .width = 6, .indegree = 2, .seed = 71});  // 96 nodes
  for (std::size_t width : {6u, 8u}) {
    for (const Model& model : all_models()) {
      for (const PebblingConvention& convention : kConventions) {
        SCOPED_TRACE(::testing::Message()
                     << model.name() << " width " << width
                     << " sources-blue=" << convention.sources_start_blue
                     << " sinks-blue=" << convention.sinks_end_blue);
        const Engine engine(dag, model, min_red_pebbles(dag), convention);
        const PatternDatabase pdb(engine, width);
        std::size_t differ = 0;
        for (std::size_t p = 0; p < pdb.pattern_count(); ++p) {
          const std::vector<NodeId>& nodes = pdb.pattern_nodes(p);
          const std::uint32_t t = pdb.node_term(nodes[0]).term;
          if (t == PatternDatabase::kNoTerm) continue;
          // Every index is a colors-only index (digits 0–2) plus one
          // flags offset (3·6^i per computed node i).
          std::vector<std::size_t> colors{0};
          std::vector<std::size_t> flags{0};
          for (std::size_t i = 0, weight = 1; i < nodes.size();
               ++i, weight *= 6) {
            const std::size_t count = colors.size();
            for (std::size_t color = 1; color < 3; ++color) {
              for (std::size_t k = 0; k < count; ++k) {
                colors.push_back(colors[k] + color * weight);
              }
            }
            const std::size_t flag_count = flags.size();
            for (std::size_t k = 0; k < flag_count; ++k) {
              flags.push_back(flags[k] + 3 * weight);
            }
          }
          for (std::size_t cleared : colors) {
            const std::int32_t want = pdb.distance(t, cleared);
            for (std::size_t offset : flags) {
              if (pdb.distance(t, cleared + offset) != want) ++differ;
            }
          }
        }
        if (model.allows_recompute()) {
          EXPECT_EQ(differ, 0u);
        } else {
          EXPECT_GT(differ, 0u);
        }
      }
    }
  }
}

// ---- whole-instance exactness ---------------------------------------------

/// A pattern covering a whole DAG of at most kMaxPatternSize nodes makes the
/// abstract game the concrete game, so the root bound is the exact optimum
/// in every model and convention.
TEST(FlatPdb, WholeInstancePatternIsTheExactOptimum) {
  const std::vector<Dag> dags = {
      make_tree_reduction_dag(4).dag,  // 7 nodes
      make_pyramid_dag(3).dag,         // 6 nodes
      make_random_layered_dag(
          {.layers = 2, .width = 4, .indegree = 2, .seed = 1}),  // 8 nodes
  };
  for (const Dag& dag : dags) {
    ASSERT_LE(dag.node_count(), PatternDatabase::kMaxPatternSize);
    for (const Model& model : all_models()) {
      for (const PebblingConvention& convention : kConventions) {
        SCOPED_TRACE(::testing::Message()
                     << model.name() << " n=" << dag.node_count()
                     << " sources-blue=" << convention.sources_start_blue
                     << " sinks-blue=" << convention.sinks_end_blue);
        const Engine engine(dag, model, min_red_pebbles(dag), convention);
        const PatternDatabase pdb(engine, PatternDatabase::kMaxPatternSize);
        ASSERT_EQ(pdb.pattern_count(), 1u);
        const std::optional<std::int64_t> bound =
            pdb.lower_bound_scaled(engine.initial_state());
        ASSERT_TRUE(bound.has_value());
        const ExactResult optimum = solve_exact(engine);
        EXPECT_EQ(Rational(*bound, model.epsilon().den()), optimum.cost);
      }
    }
  }
}

// ---- nodel: the PDB sum against the counting bound ------------------------

/// Nodel keeps its PDB: the sum can beat the counting bound, at the root
/// and at the default width. An out-tree (0 → 1, 2; 1 → 3, 4; 3 → 5, 6)
/// under R = 2 with sources starting and sinks ending blue: counting owes
/// the source's load and one store per empty sink, max'd with the net blue
/// growth, but cannot see that a two-pebble budget forces the interior
/// values out to blue and back. A sweep of every reachable state of four
/// seeded 8–10-node random DAGs (R = Δ+1 and Δ+2, widths 2, 3 and 6, all
/// four conventions) found 3977 such states (ROADMAP item 2(c)).
TEST(NodelPdb, SumCanExceedTheCountingBound) {
  DagBuilder b;
  b.add_nodes(7);
  for (auto [u, v] : {std::pair{0, 1}, {0, 2}, {1, 3}, {1, 4}, {3, 5},
                      {3, 6}}) {
    b.add_edge(static_cast<NodeId>(u), static_cast<NodeId>(v));
  }
  const Dag dag = b.build();
  const Engine engine(dag, Model::nodel(), 2, {true, true});
  const PatternDatabase pdb(engine);
  ASSERT_GT(pdb.pattern_count(), 1u);
  const GameState root = engine.initial_state();
  const std::optional<std::int64_t> counting =
      test_support::lower_bound_generic(engine, root);
  const std::optional<std::int64_t> sum = pdb.lower_bound_scaled(root);
  ASSERT_TRUE(counting.has_value());
  ASSERT_TRUE(sum.has_value());
  EXPECT_EQ(*counting, 5);
  EXPECT_EQ(*sum, 7);
  // Still admissible: here it is the exact optimum.
  EXPECT_EQ(solve_exact(engine).cost, Rational(7));
}

}  // namespace
}  // namespace rbpeb
