// Closed-form bounds from Sections 3 and 4 of the paper, as checkable code,
// plus per-state admissible lower bounds that drive the exact searches.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <vector>

#include "src/graph/dag.hpp"
#include "src/pebble/engine.hpp"
#include "src/pebble/model.hpp"

namespace rbpeb {

class PatternDatabase;  // solvers/bigstate/pdb.hpp

/// Minimum red-pebble budget for which any pebbling exists: Δ + 1
/// (paper, Section 3). Zero for the empty DAG, 1 for an edgeless DAG.
std::size_t min_red_pebbles(const Dag& dag);

/// Universal upper bound on the optimal pebbling cost with any legal R:
/// (2Δ+1)·n transfers (paper, Section 3), plus ε·(#computes ≤ n·(Δ+1)-ish)
/// in compcost — we report the paper's (2Δ+1+ε)·n form.
Rational universal_cost_upper_bound(const Dag& dag, const Model& model);

/// Model-specific lower bound on the cost of *any* pebbling:
///  * base, oneshot: 0;
///  * nodel: n − R (all but R nodes must end up blue; paper, Section 4);
///  * compcost: ε · (#non-source nodes) (each must be computed at least once).
Rational cost_lower_bound(const Dag& dag, const Model& model,
                          std::size_t red_limit);

/// The exact searches' pruning ceiling in scaled units of 1/ε.den() (see
/// scaled_move_cost): the Section 3 universal bound plus 2n transfers
/// covering the Appendix C bridging moves (one load per source, one store
/// per sink) a non-default convention can add. No optimal pebbling prices
/// beyond it — exact-astar and hda-astar drop anything that does, and size
/// their Dial bucket queues to it, so the one formula must serve both.
std::int64_t universal_search_ceiling_scaled(const Dag& dag,
                                             const Model& model);

/// Upper bound on the number of moves in an *optimal* pebbling in the
/// oneshot / nodel / compcost models: O(Δ·n) (paper, Lemma 1). Returns the
/// explicit constant used in the proof so tests can assert against it.
std::size_t optimal_length_upper_bound(const Dag& dag, const Model& model);

// ---- per-state bounds ----------------------------------------------------
//
// The Lemma-1-style counting arguments above bound whole pebblings; the
// evaluator below restates them *per configuration*, which is exactly an
// admissible A* heuristic: a lower bound on the cost of completing the game
// from the given state. The bound charges, per node, moves that every
// completing continuation must still make:
//
//  * an empty node whose value is needed can only ever gain its first pebble
//    through Compute (Load requires blue, Store requires red), so the
//    "requirement closure" — empty sinks, plus, recursively, the empty
//    predecessors of every node in the closure — each owe one computation
//    (ε in compcost; recursion is the "remaining ε·uncomputed-nodes" term);
//  * a blue node feeding a closure node must become red again: a Load
//    (cost 1) when recomputing it is impossible (oneshot after its one
//    computation, or a Hong–Kung blue source), else min(1, ε) — the "blue
//    input loads still owed";
//  * in nodel, pebbles are forever: everything pebbled now plus the closure
//    will still be pebbled at the end, at most R of it red, so at least
//    (pebbled + closure) − R − (current blue) stores remain — the
//    "unmaterialized value transfers";
//  * under the sinks-end-blue convention every non-blue sink owes a store
//    (taking the max against the nodel term: both bound the same stores).
//
// Each charged move targets a distinct node, so the sum is admissible. The
// evaluator also proves some states dead: in oneshot a needed value that was
// computed and then deleted is gone for good, as is an empty Hong–Kung
// source (uncomputable and unloadable) — callers get nullopt and may prune.

/// Words per mask plane for an n-node DAG: ceil(n/64), and at least one.
constexpr std::size_t mask_words(std::size_t node_count) {
  return node_count <= 64 ? 1 : (node_count + 63) / 64;
}

/// Throws PreconditionError unless `words` is mask_words(node_count) and
/// node_count is at most StateBoundEvaluator::kVecMaskMaxNodes.
void check_mask_width(std::size_t words, std::size_t node_count);

/// One configuration as node-indexed bit planes — red, blue, computed; bit
/// v of word v/64 is node v — the form the bound and the expansion kernel
/// consume. W words per plane, or the runtime width mask_words(n) when W
/// is 0. A search computes a parent's masks once per expansion and derives
/// each neighbor's in O(1) via apply().
template <std::size_t W>
class Masks {
 public:
  Masks() = default;

  /// All-empty planes for an n-node DAG; throws when W does not fit n (see
  /// check_mask_width).
  explicit Masks(std::size_t node_count) {
    check_mask_width(W != 0 ? W : mask_words(node_count), node_count);
    if constexpr (W == 0) planes_.assign(3 * mask_words(node_count), 0);
  }

  template <class StateLike>
  static Masks from(const StateLike& state, std::size_t node_count) {
    Masks m(node_count);
    for (std::size_t v = 0; v < node_count; ++v) {
      const NodeId node = static_cast<NodeId>(v);
      const std::size_t w = v >> 6;
      const std::uint64_t bit = std::uint64_t{1} << (v & 63);
      switch (state.color(node)) {
        case PebbleColor::Red: m.red()[w] |= bit; break;
        case PebbleColor::Blue: m.blue()[w] |= bit; break;
        case PebbleColor::None: break;
      }
      if (state.was_computed(node)) m.computed()[w] |= bit;
    }
    return m;
  }

  std::size_t words() const {
    if constexpr (W == 0) {
      return planes_.size() / 3;
    } else {
      return W;
    }
  }
  std::uint64_t* red() { return planes_.data(); }
  std::uint64_t* blue() { return planes_.data() + words(); }
  std::uint64_t* computed() { return planes_.data() + 2 * words(); }
  const std::uint64_t* red() const { return planes_.data(); }
  const std::uint64_t* blue() const { return planes_.data() + words(); }
  const std::uint64_t* computed() const { return planes_.data() + 2 * words(); }

  /// The planes after a *legal* move — mirrors PackedKey::apply and
  /// Engine::apply bit for bit.
  void apply(const Move& move) {
    const std::size_t w = move.node >> 6;
    const std::uint64_t bit = std::uint64_t{1} << (move.node & 63);
    switch (move.type) {
      case MoveType::Load:
        red()[w] |= bit;
        blue()[w] &= ~bit;
        break;
      case MoveType::Store:
        blue()[w] |= bit;
        red()[w] &= ~bit;
        break;
      case MoveType::Compute:
        red()[w] |= bit;
        blue()[w] &= ~bit;
        computed()[w] |= bit;
        break;
      case MoveType::Delete:
        red()[w] &= ~bit;
        blue()[w] &= ~bit;
        break;
    }
  }

  bool operator==(const Masks&) const = default;

 private:
  std::conditional_t<W == 0, std::vector<std::uint64_t>,
                     std::array<std::uint64_t, 3 * W>>
      planes_{};
};

/// Reusable per-state bound evaluator (holds scratch; not thread-safe —
/// searches hold one per worker). Templated over anything with
/// color(NodeId)/was_computed(NodeId) so the exact searches can evaluate
/// packed states without materializing a GameState.
///
/// The requirement closure is memoized structurally: construction caches,
/// per node, the bitmask of its predecessors and of its whole ancestor cone
/// (the node's closure in the all-empty configuration), at the DAG's one
/// mask width. Per state the closure is then *composed* from those masks —
/// a frontier node whose entire cone is pebble-free folds its cached cone
/// in with one OR instead of a fresh graph walk, and everything else
/// advances one cached predecessor word at a time. No per-evaluation O(n)
/// mark-clearing, no edge-list chasing. One body, templated on the word
/// count, prices Masks<1> (≤ 64 nodes), Masks<2> (≤ 128) and the runtime
/// width Masks<0> (≤ kVecMaskMaxNodes); past that cap nothing is cached and
/// every evaluation throws PreconditionError. tests/pebble/test_bounds.cpp
/// pins every width to the mark-and-walk oracle in tests/support.
///
/// attach_pdb folds an additive pattern database (solvers/bigstate/pdb.hpp)
/// into the bound: it becomes max(counting_bounds, pdb_sum), still
/// admissible since each side is, and a state either side proves dead stays
/// dead.
class StateBoundEvaluator {
 public:
  /// Largest DAG one-word masks cover.
  static constexpr std::size_t kMaskMaxNodes = 64;
  /// Largest DAG two-word masks cover.
  static constexpr std::size_t kWideMaskMaxNodes = 128;
  /// Largest DAG the evaluator prices at all — the cap the exact searches
  /// inherit.
  static constexpr std::size_t kVecMaskMaxNodes = 1024;

  // Earlier names of the three widths, still used by perfbench/.
  using StateMasks = Masks<1>;
  using WideStateMasks = Masks<2>;
  using MaskVec = Masks<0>;

  explicit StateBoundEvaluator(const Engine& engine);

  /// Which component supplied the most recent bound: the counting bounds or
  /// the pattern-database sum. Set by every lower_bound_scaled call (Pdb
  /// when the PDB strictly improved on the counting bound, or proved the
  /// state dead); introspection reads it to attribute each expansion's
  /// bound to its source. Cheap plain member — one store per evaluation.
  enum class BoundSource { Counting, Pdb };
  BoundSource last_source() const { return last_source_; }

  /// Lower bound on the remaining completion cost in scaled units of
  /// 1/ε.den() (see scaled_move_cost); nullopt when the state provably
  /// cannot be completed. Zero at every complete state. Encodes the state
  /// at the narrowest mask width covering the DAG.
  template <class StateLike>
  std::optional<std::int64_t> lower_bound_scaled(const StateLike& state) {
    const std::size_t n = engine_->dag().node_count();
    if (n <= kMaskMaxNodes) return lower_bound_scaled(Masks<1>::from(state, n));
    if (n <= kWideMaskMaxNodes) {
      return lower_bound_scaled(Masks<2>::from(state, n));
    }
    return lower_bound_scaled(Masks<0>::from(state, n));
  }

  /// The same bound on masks a search maintains incrementally. Throws
  /// PreconditionError unless state.words() is mask_words(node_count()) and
  /// the DAG is within kVecMaskMaxNodes.
  template <std::size_t W>
  std::optional<std::int64_t> lower_bound_scaled(const Masks<W>& state);

  /// The structural caches as flat node-major words, mask_words(n) words
  /// per entry: node v's predecessor mask and ancestor cone (v included)
  /// start at pred / cone + v·words; sinks and sources are one entry each.
  /// The expansion kernel (solvers/expander.hpp) derives move legality from
  /// the same caches the bound composes its closure from. Empty (words 0)
  /// past kVecMaskMaxNodes.
  struct Caches {
    std::size_t words = 0;
    std::vector<std::uint64_t> pred, cone, sinks, sources;
  };
  const Caches& caches() const { return caches_; }

  /// Fold an additive pattern database into the bound: it becomes
  /// max(counting_bounds, pdb_sum). `pdb` must outlive the evaluator (or a
  /// detach via attach_pdb(nullptr)).
  void attach_pdb(const PatternDatabase* pdb) { pdb_ = pdb; }

 private:
  const Engine* engine_;
  std::int64_t eps_num_;
  std::int64_t eps_den_;
  const PatternDatabase* pdb_ = nullptr;
  BoundSource last_source_ = BoundSource::Counting;
  Caches caches_;
  // Scratch planes for the runtime-width evaluation (one evaluator per
  // search worker; not thread-safe, like the rest of the scratch).
  std::vector<std::uint64_t> scratch_;
};

/// One-shot convenience wrapper over StateBoundEvaluator, in model-cost
/// units. nullopt when `state` provably cannot be completed under `engine`.
std::optional<Rational> state_cost_lower_bound(const Engine& engine,
                                               const GameState& state);

}  // namespace rbpeb
