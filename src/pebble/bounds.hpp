// Closed-form bounds from Sections 3 and 4 of the paper, as checkable code,
// plus per-state admissible lower bounds that drive the exact searches.
#pragma once

#include <algorithm>
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

/// Bit-mask plumbing shared by the evaluator's three mask widths (bit v of
/// word v/64 = node v; three planes: red, blue, computed).
namespace mask_ops {

/// Encode a configuration read through color()/was_computed() into zeroed
/// planes.
template <class StateLike>
void encode(std::uint64_t* red, std::uint64_t* blue, std::uint64_t* computed,
            const StateLike& state, std::size_t node_count) {
  for (std::size_t v = 0; v < node_count; ++v) {
    const NodeId node = static_cast<NodeId>(v);
    const std::size_t w = v >> 6;
    const std::uint64_t bit = std::uint64_t{1} << (v & 63);
    switch (state.color(node)) {
      case PebbleColor::Red: red[w] |= bit; break;
      case PebbleColor::Blue: blue[w] |= bit; break;
      case PebbleColor::None: break;
    }
    if (state.was_computed(node)) computed[w] |= bit;
  }
}

/// The planes after a *legal* move — mirrors BasicPackedState::apply /
/// Engine::apply bit for bit.
inline void apply(std::uint64_t* red, std::uint64_t* blue,
                  std::uint64_t* computed, const Move& move) {
  const std::size_t w = move.node >> 6;
  const std::uint64_t bit = std::uint64_t{1} << (move.node & 63);
  switch (move.type) {
    case MoveType::Load:
      red[w] |= bit;
      blue[w] &= ~bit;
      break;
    case MoveType::Store:
      blue[w] |= bit;
      red[w] &= ~bit;
      break;
    case MoveType::Compute:
      red[w] |= bit;
      blue[w] &= ~bit;
      computed[w] |= bit;
      break;
    case MoveType::Delete:
      red[w] &= ~bit;
      blue[w] &= ~bit;
      break;
  }
}

}  // namespace mask_ops

/// Read-only word view of one configuration's masks, whatever their width.
struct MaskPlanes {
  const std::uint64_t* red;
  const std::uint64_t* blue;
  const std::uint64_t* computed;
  std::size_t words;
};

/// Reusable per-state bound evaluator (holds scratch; not thread-safe —
/// searches hold one per worker). Templated over anything with
/// color(NodeId)/was_computed(NodeId) so the exact searches can evaluate
/// packed states without materializing a GameState.
///
/// The requirement closure is memoized structurally: construction caches,
/// per node, the bitmask of its predecessors and of its whole ancestor cone
/// (the node's closure in the all-empty configuration). Per state the
/// closure is then *composed* from those masks — a frontier node whose
/// entire cone is pebble-free folds its cached cone in with one OR instead
/// of a fresh graph walk, and everything else advances one cached
/// predecessor word at a time. No per-evaluation O(n) mark-clearing, no
/// edge-list chasing. DAGs of 65–128 nodes (the bigstate searches) run the
/// same composition over two-word masks (WideStateMasks); 129 to
/// kVecMaskMaxNodes nodes run it over runtime-width masks (MaskVec); only
/// beyond that does the original walk remain. One body, templated on the
/// word count, serves all three mask widths.
///
/// attach_pdb folds an additive pattern database (solvers/bigstate/pdb.hpp)
/// into both mask paths: the returned bound becomes
/// max(counting_bounds, pdb_sum), still admissible since each side is, and
/// a state either side proves dead stays dead.
class StateBoundEvaluator {
 public:
  /// Largest DAG the one-word mask-composed fast path handles.
  static constexpr std::size_t kMaskMaxNodes = 64;

  /// Largest DAG the two-word (WideStateMasks) fast path handles.
  static constexpr std::size_t kWideMaskMaxNodes = 128;

  /// Largest DAG the runtime-width (MaskVec) path handles — the cap the
  /// variable-width searches inherit. Beyond it only the generic walk
  /// remains (no structural caches are built).
  static constexpr std::size_t kVecMaskMaxNodes = 1024;

  explicit StateBoundEvaluator(const Engine& engine);

  /// Which component supplied the most recent bound: the counting bounds or
  /// the pattern-database sum. Set by every lower_bound_scaled call (Pdb
  /// when the PDB strictly improved on the counting bound, or proved the
  /// state dead); introspection reads it to attribute each expansion's
  /// bound to its source. Cheap plain member — one store per evaluation.
  enum class BoundSource { Counting, Pdb };
  BoundSource last_source() const { return last_source_; }

  /// One configuration as node-indexed bitmasks (bit v = node v), the form
  /// the fast path consumes. A search computes a parent's masks once per
  /// expansion and derives each neighbor's in O(1) via apply().
  struct StateMasks {
    std::uint64_t red = 0;
    std::uint64_t blue = 0;
    std::uint64_t computed = 0;

    std::uint64_t pebbled() const { return red | blue; }

    template <class StateLike>
    static StateMasks from(const StateLike& state, std::size_t node_count) {
      StateMasks m;
      mask_ops::encode(&m.red, &m.blue, &m.computed, state, node_count);
      return m;
    }

    /// The successor configuration's masks after a *legal* move.
    void apply(const Move& move) {
      mask_ops::apply(&red, &blue, &computed, move);
    }
  };

  /// Two-word sibling of StateMasks for DAGs of 65–128 nodes (bit v of
  /// word v/64 = node v). Same contract: a search computes a parent's masks
  /// once per expansion and derives each neighbor's in O(1) via apply().
  struct WideStateMasks {
    static constexpr std::size_t kWords = 2;
    std::array<std::uint64_t, kWords> red{};
    std::array<std::uint64_t, kWords> blue{};
    std::array<std::uint64_t, kWords> computed{};

    template <class StateLike>
    static WideStateMasks from(const StateLike& state,
                               std::size_t node_count) {
      WideStateMasks m;
      mask_ops::encode(m.red.data(), m.blue.data(), m.computed.data(), state,
                       node_count);
      return m;
    }

    void apply(const Move& move) {
      mask_ops::apply(red.data(), blue.data(), computed.data(), move);
    }
  };

  /// Runtime-width sibling of StateMasks / WideStateMasks for DAGs past 128
  /// nodes (bit v of word v/64 = node v, same layout, width chosen at
  /// construction). The three planes live in one allocation — red words,
  /// then blue, then computed. Same contract as the fixed-width types: a
  /// search computes a parent's masks once per expansion and derives each
  /// neighbor's in O(1) via apply().
  class MaskVec {
   public:
    MaskVec() = default;
    explicit MaskVec(std::size_t node_count)
        : words_((node_count + 63) / 64), planes_(3 * words_, 0) {}

    std::size_t words() const { return words_; }
    std::uint64_t* red() { return planes_.data(); }
    std::uint64_t* blue() { return planes_.data() + words_; }
    std::uint64_t* computed() { return planes_.data() + 2 * words_; }
    const std::uint64_t* red() const { return planes_.data(); }
    const std::uint64_t* blue() const { return planes_.data() + words_; }
    const std::uint64_t* computed() const {
      return planes_.data() + 2 * words_;
    }

    template <class StateLike>
    static MaskVec from(const StateLike& state, std::size_t node_count) {
      MaskVec m(node_count);
      mask_ops::encode(m.red(), m.blue(), m.computed(), state, node_count);
      return m;
    }

    void apply(const Move& move) {
      mask_ops::apply(red(), blue(), computed(), move);
    }

   private:
    std::size_t words_ = 0;  ///< words per plane
    std::vector<std::uint64_t> planes_;
  };

  /// Lower bound on the remaining completion cost in scaled units of
  /// 1/ε.den() (see scaled_move_cost); nullopt when the state provably
  /// cannot be completed. Zero at every complete state.
  template <class StateLike>
  std::optional<std::int64_t> lower_bound_scaled(const StateLike& state) {
    const std::size_t n = engine_->dag().node_count();
    if (n <= kMaskMaxNodes) {
      return lower_bound_scaled(StateMasks::from(state, n));
    }
    if (n <= kWideMaskMaxNodes) {
      return lower_bound_scaled(WideStateMasks::from(state, n));
    }
    if (n <= kVecMaskMaxNodes) {
      return lower_bound_scaled(MaskVec::from(state, n));
    }
    return lower_bound_generic(state);
  }

  /// The mask fast path, callable directly by searches that maintain masks
  /// incrementally. Requires node_count() <= kMaskMaxNodes.
  std::optional<std::int64_t> lower_bound_scaled(const StateMasks& state);

  /// The two-word fast path. Requires node_count() <= kWideMaskMaxNodes.
  /// Differentially tested against lower_bound_generic in
  /// tests/pebble/test_bounds.cpp.
  std::optional<std::int64_t> lower_bound_scaled(const WideStateMasks& state);

  /// The runtime-width path. Requires node_count() <= kVecMaskMaxNodes and
  /// state.words() == (node_count()+63)/64. Differentially tested against
  /// the fixed-width paths and lower_bound_generic in
  /// tests/solvers/test_maskvec.cpp.
  std::optional<std::int64_t> lower_bound_scaled(const MaskVec& state);

  /// One mask width's structural caches as flat node-major words: node v's
  /// predecessor mask and ancestor cone (v included) are the `words` words
  /// at pred / cone + v·words; sinks and sources are one `words`-word mask
  /// each. The expansion kernel (solvers/expander.hpp) derives move
  /// legality from the same caches the bound composes its closure from.
  /// Masks is StateMasks (n ≤ 64), WideStateMasks (n ≤ 128) or MaskVec
  /// (n ≤ kVecMaskMaxNodes).
  struct MaskCaches {
    std::size_t words = 0;
    const std::uint64_t* pred = nullptr;
    const std::uint64_t* cone = nullptr;
    const std::uint64_t* sinks = nullptr;
    const std::uint64_t* sources = nullptr;
  };
  template <class Masks>
  MaskCaches mask_caches() const {
    if constexpr (std::is_same_v<Masks, StateMasks>) return view(caches1_);
    if constexpr (std::is_same_v<Masks, WideStateMasks>) return view(caches2_);
    if constexpr (std::is_same_v<Masks, MaskVec>) return view(cachesv_);
  }

  /// Fold an additive pattern database into the mask paths: bounds become
  /// max(counting_bounds, pdb_sum). `pdb` must outlive the evaluator (or a
  /// detach via attach_pdb(nullptr)). Ignored by the >128-node generic
  /// path, which no pattern database covers.
  void attach_pdb(const PatternDatabase* pdb) { pdb_ = pdb; }

  /// The original mark-and-walk evaluation, kept as the >64-node fallback
  /// and as the reference the mask path is differentially tested against.
  template <class StateLike>
  std::optional<std::int64_t> lower_bound_generic(const StateLike& state) {
    const Dag& dag = engine_->dag();
    const Model& model = engine_->model();
    const PebblingConvention& conv = engine_->convention();
    const std::size_t n = dag.node_count();
    last_source_ = BoundSource::Counting;  // no PDB covers the generic path
    mark_.assign(n, 0);
    stack_.clear();

    auto seed = [&](NodeId v) {
      if (mark_[v] == 0) {
        mark_[v] = 1;
        stack_.push_back(v);
      }
    };

    std::int64_t bound = 0;
    std::int64_t sink_stores_owed = 0;
    for (NodeId s : dag.sinks()) {
      const PebbleColor c = state.color(s);
      if (conv.sinks_end_blue) {
        if (c == PebbleColor::Blue) continue;
        ++sink_stores_owed;  // blue only ever arrives via Store
        if (c == PebbleColor::None) seed(s);
      } else if (c == PebbleColor::None) {
        seed(s);
      }
    }

    // Requirement closure: every member is empty and must be computed.
    std::int64_t closure_size = 0;
    while (!stack_.empty()) {
      const NodeId v = stack_.back();
      stack_.pop_back();
      if (!model.allows_recompute() && state.was_computed(v)) {
        return std::nullopt;  // oneshot: the needed value is lost forever
      }
      if (conv.sources_start_blue && dag.is_source(v)) {
        return std::nullopt;  // uncomputable and, with no pebble, unloadable
      }
      bound += eps_num_;
      ++closure_size;
      for (NodeId p : dag.predecessors(v)) {
        const PebbleColor c = state.color(p);
        if (c == PebbleColor::Red || mark_[p] != 0) continue;
        if (c == PebbleColor::None) {
          seed(p);
          continue;
        }
        // Blue input: must become red again at least once. Counted once per
        // node; mark value 2 keeps it out of the closure accounting.
        mark_[p] = 2;
        bool recompute_ok =
            model.allows_recompute() || !state.was_computed(p);
        if (conv.sources_start_blue && dag.is_source(p)) recompute_ok = false;
        bound += recompute_ok ? std::min(eps_num_, eps_den_) : eps_den_;
      }
    }

    std::int64_t stores_owed = sink_stores_owed;
    if (model.kind() == ModelKind::Nodel) {
      // No deletions: currently pebbled nodes and the closure all hold
      // pebbles at the end, at most R of them red. Stores minus loads equals
      // the net blue growth, so stores >= final_blue - current_blue.
      std::int64_t pebbled = 0;
      std::int64_t blue = 0;
      for (std::size_t v = 0; v < n; ++v) {
        const PebbleColor c = state.color(static_cast<NodeId>(v));
        if (c != PebbleColor::None) ++pebbled;
        if (c == PebbleColor::Blue) ++blue;
      }
      const std::int64_t final_pebbled = pebbled + closure_size;
      const std::int64_t r = static_cast<std::int64_t>(engine_->red_limit());
      // Max, not sum: this and the sink term lower-bound the same stores.
      stores_owed = std::max(stores_owed, final_pebbled - r - blue);
    }
    return bound + stores_owed * eps_den_;
  }

 private:
  /// Owning storage behind a MaskCaches view.
  struct Caches {
    std::size_t words = 0;
    std::vector<std::uint64_t> pred, cone, sinks, sources;
  };
  static MaskCaches view(const Caches& c) {
    return {c.words, c.pred.data(), c.cone.data(), c.sinks.data(),
            c.sources.data()};
  }
  static void build(Caches& c, const Dag& dag, std::size_t words);

  /// The one mask-composed bound body: kWords words per plane, or the
  /// runtime width state.words when kWords is 0.
  template <std::size_t kWords>
  std::optional<std::int64_t> lower_bound_planes(const MaskPlanes& state,
                                                 const MaskCaches& caches);

  const Engine* engine_;
  std::int64_t eps_num_;
  std::int64_t eps_den_;
  const PatternDatabase* pdb_ = nullptr;
  BoundSource last_source_ = BoundSource::Counting;

  // Structural caches per mask width: one word (n ≤ kMaskMaxNodes), two
  // words (n ≤ kWideMaskMaxNodes) and the runtime width (n ≤
  // kVecMaskMaxNodes). Each is built for every n it covers, so a forced
  // wider path on a small instance can be compared against the narrower.
  Caches caches1_, caches2_, cachesv_;
  // Scratch planes for the runtime-width evaluation (one evaluator per
  // search worker; not thread-safe, like the rest of the scratch).
  std::vector<std::uint64_t> scratchv_;

  // Scratch for the generic path.
  std::vector<std::uint8_t> mark_;
  std::vector<NodeId> stack_;
};

inline MaskPlanes planes_of(const StateBoundEvaluator::StateMasks& m) {
  return {&m.red, &m.blue, &m.computed, 1};
}
inline MaskPlanes planes_of(const StateBoundEvaluator::WideStateMasks& m) {
  return {m.red.data(), m.blue.data(), m.computed.data(),
          StateBoundEvaluator::WideStateMasks::kWords};
}
inline MaskPlanes planes_of(const StateBoundEvaluator::MaskVec& m) {
  return {m.red(), m.blue(), m.computed(), m.words()};
}

/// One-shot convenience wrapper over StateBoundEvaluator, in model-cost
/// units. nullopt when `state` provably cannot be completed under `engine`.
std::optional<Rational> state_cost_lower_bound(const Engine& engine,
                                               const GameState& state);

}  // namespace rbpeb
