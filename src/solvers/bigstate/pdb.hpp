// Additive pattern databases — abstraction heuristics for the big-instance
// exact searches.
//
// Past ~42 nodes the counting bounds of bounds.hpp stop paying for
// themselves: they see owed computations and transfers but nothing of the
// *interaction* between them, and the informed searches drown in plausible
// mid-game states. Pattern databases recover guidance the standard way
// (Culberson–Schaeffer; additive PDBs à la Felner et al.): project the game
// onto small disjoint node sets and solve each projection exactly, once.
//
//  * The DAG's nodes are partitioned into patterns of at most
//    kMaxPatternSize nodes by a greedy cone-respecting partitioner: nodes
//    join, in topological order, the pattern holding most of their direct
//    predecessors (ancestor cones stay together, which is where pebbling
//    interaction lives), opening a new pattern only when none has room.
//  * For each pattern P the *abstract game* keeps only the configurations
//    of P's nodes. Moves on nodes outside P are free; moves on v ∈ P keep
//    every constraint expressible inside P (blue/red preconditions,
//    preds-in-P red for Compute, |red ∩ P| within the budget R, the oneshot
//    and nodel rules, the Hong–Kung source/sink conventions). Any legal
//    concrete completion, restricted to its moves on P, is therefore a
//    legal abstract completion of the projected state with exactly the cost
//    those moves contribute.
//  * A backward Dijkstra from all complete abstract states (the shared Dial
//    BucketQueue over pre-images) fills a dense 6^|P| table — node i of P
//    adds its digit (color + 3·computed) times 6^i to the index — with the
//    optimal abstract completion cost of every projection. A pattern
//    without a DAG sink requires nothing (every projection is a goal at
//    distance 0), so it builds no table and stays out of the sum.
//  * Where the model allows recomputation (base, nodel, compcost), the
//    computed flag is dead: no move rule and no goal test reads it, and
//    Compute sets it from either value, so a projection's distance is its
//    colors' distance. Those builds run the Dijkstra over the 3^|P| color
//    configurations and broadcast each distance to the 2^|P| entries that
//    share its colors — the same 6^|P| table, 2^|P| times less search.
//    Oneshot's Compute needs the flag clear, so it keeps all six digits.
//  * One table per isomorphism class, not per pattern. Before its table is
//    looked up, a sink-bearing pattern's nodes are put in a canonical order:
//    the least relabelled shape (in-pattern predecessor positions, source
//    and sink positions) over the orderings that sort the nodes by
//    invariants (in-pattern depth, source, sink, in-pattern in- and
//    out-degree). That candidate set maps onto itself under isomorphism, so
//    isomorphic patterns reach the same shape and share one table;
//    relabelling is a game isomorphism, so each reads its own projection
//    through its own weights. pattern_nodes() is that table-position order.
//
// Each concrete move is charged to exactly one pattern (moves touch one
// node; patterns are disjoint), so the per-pattern optimal completion costs
// SUM to an admissible heuristic — and an unreachable abstract entry proves
// the concrete state dead (no completion's projection would exist), which
// the searches prune outright. At complete concrete states every projection
// is an abstract goal, so the sum is 0 as admissibility requires.
//
// StateBoundEvaluator::attach_pdb folds the sum in as
// max(counting_bounds, pdb_sum); tests/solvers/test_bigstate.cpp checks
// admissibility against exhaustively solved instances.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/pebble/engine.hpp"
#include "src/solvers/exact.hpp"

namespace rbpeb {

/// Disjoint node patterns covering the whole DAG, each of size at most
/// `max_pattern_size` (clamped to PatternDatabase::kMaxPatternSize).
/// Nodes are assigned in topological order to the pattern holding most of
/// their direct predecessors, so ancestor cones stay together.
std::vector<std::vector<NodeId>> partition_into_patterns(
    const Dag& dag, std::size_t max_pattern_size);

class PatternDatabase {
 public:
  /// Width cap of the dense 6^|P| tables: 6^8 = 1.68M entries per table.
  static constexpr std::size_t kMaxPatternSize = 8;

  /// Default width: 6^6 = 46,656 entries (182 KiB) per table.
  static constexpr std::size_t kDefaultPatternSize = 6;

  /// Entry meaning "no abstract completion exists" — any concrete state
  /// projecting onto it is provably dead.
  static constexpr std::int32_t kUnreachable = -1;

  /// Build the database for `engine`'s instance: partition, then solve each
  /// abstract configuration graph exactly. `max_pattern_size` of 0 means
  /// kDefaultPatternSize; wider requests clamp to kMaxPatternSize.
  /// Read-only (and thread-safe) afterwards.
  ///
  /// `should_stop` is the same cooperative hook the searches poll: an 8-node
  /// pattern builds a 1.68M-entry table, long enough that an un-interruptible
  /// build would pin a cancelled or past-deadline solve to a core. When it
  /// fires mid-build the constructor returns early with build_aborted() set;
  /// the tables are then incomplete and must not be consulted.
  explicit PatternDatabase(const Engine& engine,
                           std::size_t max_pattern_size = 0,
                           const StopPredicate& should_stop = {});

  // Terms point into the object's own tables: moves keep them valid,
  // copies would not.
  PatternDatabase(const PatternDatabase&) = delete;
  PatternDatabase& operator=(const PatternDatabase&) = delete;
  PatternDatabase(PatternDatabase&&) = default;
  PatternDatabase& operator=(PatternDatabase&&) = default;

  /// True when should_stop ended the build early — the caller must discard
  /// the database and terminate with ExactTermination::Stopped.
  bool build_aborted() const { return aborted_; }

  /// Every pattern of the partition, sink-free ones included: together
  /// they cover each node exactly once.
  std::size_t pattern_count() const { return patterns_.size(); }

  /// Pattern p's nodes in table-position order: node i has weight 6^i. A
  /// sink-bearing pattern's order is its canonical one, not the
  /// partition's.
  const std::vector<NodeId>& pattern_nodes(std::size_t p) const {
    return patterns_[p];
  }

  /// Total bytes held by the completion tables: one per isomorphism class
  /// of sink-bearing patterns.
  std::size_t table_bytes() const { return table_bytes_; }

  /// The sum's terms: one per pattern holding a DAG sink, in pattern order.
  std::size_t term_count() const { return terms_.size(); }

  /// A node's digit in a projection index, 0–5.
  static constexpr unsigned digit(PebbleColor color, bool computed) {
    return static_cast<unsigned>(color) + (computed ? 3u : 0u);
  }

  /// Where node v's digit enters the sum: its term, and its weight 6^i
  /// (i its pattern position) in that term's projection index. term is
  /// kNoTerm when v's pattern is sink-free — no digit of it changes the sum.
  struct NodeTerm {
    std::uint32_t term;
    std::uint32_t weight;
  };
  static constexpr std::uint32_t kNoTerm = ~std::uint32_t{0};
  NodeTerm node_term(NodeId v) const { return node_terms_[v]; }

  /// Term `t`'s projection index: the sum of each pattern node's
  /// digit_of(v) times its weight.
  template <class DigitFn>
  std::size_t projection(std::size_t t, DigitFn&& digit_of) const {
    const std::vector<NodeId>& nodes = patterns_[terms_[t].pattern];
    std::size_t index = 0;
    for (std::size_t i = nodes.size(); i-- > 0;) {
      index = 6 * index + digit_of(nodes[i]);
    }
    return index;
  }

  /// Term `t`'s optimal abstract completion cost from projection `index`,
  /// in scaled units; kUnreachable when no abstract completion exists (any
  /// concrete state projecting there is dead).
  std::int32_t distance(std::size_t t, std::size_t index) const {
    return terms_[t].table[index];
  }

  /// The additive heuristic in scaled units of 1/ε.den(): the sum over
  /// terms of the optimal abstract completion cost of the state's
  /// projection, with `digit_of(v)` the node's digit(). nullopt when some
  /// projection is unreachable — the state is provably dead.
  template <class DigitFn>
  std::optional<std::int64_t> sum_scaled(DigitFn&& digit_of) const {
    std::int64_t total = 0;
    for (std::size_t t = 0; t < terms_.size(); ++t) {
      const std::int32_t d = distance(t, projection(t, digit_of));
      if (d == kUnreachable) return std::nullopt;
      total += d;
    }
    return total;
  }

  /// sum_scaled over anything with color(NodeId)/was_computed(NodeId).
  template <class StateLike>
  std::optional<std::int64_t> lower_bound_scaled(const StateLike& state) const {
    return sum_scaled(
        [&](NodeId v) { return digit(state.color(v), state.was_computed(v)); });
  }

 private:
  /// A sink-bearing pattern's abstract game in its canonical position
  /// order, as bitmasks over positions: each position's in-pattern
  /// predecessors, and the positions of DAG sources and sinks. Equal shapes
  /// play the same game under one engine and share one table.
  struct Shape {
    std::uint8_t width = 0;
    std::array<std::uint8_t, kMaxPatternSize> preds{};
    std::uint8_t sources = 0;
    std::uint8_t sinks = 0;
    auto operator<=>(const Shape&) const = default;
  };

  /// Reorder a sink-bearing pattern's `nodes` into its canonical order and
  /// return its shape in that order.
  static Shape canonicalize(const Dag& dag, std::vector<NodeId>& nodes);

  /// One summand: a sink-bearing pattern and its (possibly shared) table.
  struct Term {
    std::size_t pattern;
    const std::int32_t* table;
  };

  /// Fill `completion` with the optimal abstract completion cost per
  /// projection index of `shape`, kUnreachable where none exists. In the
  /// models that allow recomputation the search runs over colors only
  /// (digits 0–2, weights 3^i) and a sweep broadcasts it over the computed
  /// flags: no rule or goal reads the flag, and Compute sets it from
  /// either value. Oneshot searches all six digits.
  void build_pattern(const Engine& engine, const Shape& shape,
                     std::vector<std::int32_t>& completion,
                     std::int64_t cost_cap, const StopPredicate& should_stop);

  std::vector<std::vector<NodeId>> patterns_;
  /// One table per distinct shape; terms_ point into it.
  std::vector<std::vector<std::int32_t>> tables_;
  std::vector<Term> terms_;
  std::vector<NodeTerm> node_terms_;  ///< per node
  std::size_t table_bytes_ = 0;
  bool aborted_ = false;
};

}  // namespace rbpeb
