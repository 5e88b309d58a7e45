// Closed-form bounds from Sections 3 and 4 of the paper, as checkable code,
// plus per-state admissible lower bounds that drive the exact searches.
#pragma once

#include <algorithm>
#include <array>
#include <concepts>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <utility>
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
///
/// A packed key (solvers/packed_state.hpp: node v's 3-bit field at bits
/// [3v, 3v+3), red at +0, blue at +1, computed at +2) is decoded a word at
/// a time, not a node at a time. 64 fields fill exactly 192 bits, so mask
/// word j comes from key words 3j, 3j+1 and 3j+2 (missing words read as 0),
/// and plane p (0 red, 1 blue, 2 computed) is every third bit of each of
/// them: of word 3j from bit p, of 3j+1 from bit (p+2) mod 3, of 3j+2 from
/// bit (p+1) mod 3, OR-ed in at shifts 0, 21 or 22, and 42 or 43. That is
/// nine shift-and-mask compactions per 64 nodes. Fields straddling a word
/// boundary (nodes 21 and 42 of each group) fall out of the same
/// compactions. Color 3 is no reachable field; the word decode would set
/// both its red and blue bits, where the per-node loop, which still decodes
/// every other StateLike (GameState), sets neither.
template <std::size_t W>
class Masks {
 public:
  static constexpr std::size_t kWords = W;

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
    m.assign(state, node_count);
    return m;
  }

  /// Overwrite these planes, sized for `node_count` nodes, with `state`'s;
  /// unlike from(), nothing is allocated at the runtime width. A packed key
  /// is decoded from its words (see the class comment).
  template <class StateLike>
  void assign(const StateLike& state, std::size_t node_count) {
    if constexpr (requires {
                    { state.words() } -> std::same_as<const std::uint64_t*>;
                    { state.word_count() } -> std::same_as<std::size_t>;
                  }) {
      decode(state.words(), state.word_count());
    } else {
      std::fill(planes_.begin(), planes_.end(), std::uint64_t{0});
      for (std::size_t v = 0; v < node_count; ++v) {
        const NodeId node = static_cast<NodeId>(v);
        const std::size_t w = v >> 6;
        const std::uint64_t bit = std::uint64_t{1} << (v & 63);
        switch (state.color(node)) {
          case PebbleColor::Red: red()[w] |= bit; break;
          case PebbleColor::Blue: blue()[w] |= bit; break;
          case PebbleColor::None: break;
        }
        if (state.was_computed(node)) computed()[w] |= bit;
      }
    }
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
  /// Every third bit of x, from bit 0, packed into the low 22 bits: bit 3i
  /// moves to bit i (Warren, Hacker's Delight, ch. 7, the 3-D Morton
  /// decode, widened to keep bit 63).
  static constexpr std::uint64_t every_third_bit(std::uint64_t x) {
    x &= 0x9249249249249249ull;
    x = (x ^ (x >> 2)) & 0x30C30C30C30C30C3ull;
    x = (x ^ (x >> 4)) & 0xF00F00F00F00F00Full;
    x = (x ^ (x >> 8)) & 0x00FF0000FF0000FFull;
    x = (x ^ (x >> 16)) & 0xFFFF00000000FFFFull;
    return (x ^ (x >> 32)) & 0x3FFFFFull;
  }

  /// The planes of the packed key held in `key[0, key_words)`.
  void decode(const std::uint64_t* key, std::size_t key_words) {
    const auto at = [&](std::size_t i) {
      return i < key_words ? key[i] : std::uint64_t{0};
    };
    for (std::size_t j = 0; j < words(); ++j) {
      const std::uint64_t k0 = at(3 * j);
      const std::uint64_t k1 = at(3 * j + 1);
      const std::uint64_t k2 = at(3 * j + 2);
      red()[j] = every_third_bit(k0) | every_third_bit(k1 >> 2) << 22 |
                 every_third_bit(k2 >> 1) << 43;
      blue()[j] = every_third_bit(k0 >> 1) | every_third_bit(k1) << 21 |
                  every_third_bit(k2 >> 2) << 43;
      computed()[j] = every_third_bit(k0 >> 2) |
                      every_third_bit(k1 >> 1) << 21 |
                      every_third_bit(k2) << 42;
    }
  }

  std::conditional_t<W == 0, std::vector<std::uint64_t>,
                     std::array<std::uint64_t, 3 * W>>
      planes_{};
};

/// A state's requirement closure as two node-indexed planes at the width of
/// Masks<W>: `nodes` is the closure C — the least set holding the empty
/// sinks and the empty predecessors of its members — and `inputs` is PU,
/// the union of the predecessor masks of the closure nodes the walk visits
/// one at a time, so the state's blue inputs are PU ∩ blue.
template <std::size_t W>
class Closure {
 public:
  explicit Closure(std::size_t words) {
    if constexpr (W == 0) planes_.assign(2 * words, 0);
  }

  std::size_t words() const {
    if constexpr (W == 0) {
      return planes_.size() / 2;
    } else {
      return W;
    }
  }
  std::uint64_t* nodes() { return planes_.data(); }
  std::uint64_t* inputs() { return planes_.data() + words(); }
  const std::uint64_t* nodes() const { return planes_.data(); }
  const std::uint64_t* inputs() const { return planes_.data() + words(); }

 private:
  std::conditional_t<W == 0, std::vector<std::uint64_t>,
                     std::array<std::uint64_t, 2 * W>>
      planes_{};
};

/// What StateBoundEvaluator::enter_parent records of a state being expanded
/// so that successor_bound can price each successor as a delta from it.
/// Construct once per search worker (caches().words and the attached
/// PDB's term_count()); at W = 1 and 2 the planes are fixed arrays, and
/// nothing is allocated per expansion at any width.
template <std::size_t W>
struct ParentBound {
  ParentBound(std::size_t words, std::size_t pdb_terms)
      : closure(words), child(words), projection(pdb_terms, 0),
        distance(pdb_terms, 0), digit(pdb_terms != 0 ? 64 * words : 0, 0) {}

  Closure<W> closure;  ///< the parent's C and PU
  Closure<W> child;    ///< scratch: a successor's, when its move changes them
  std::vector<std::size_t> projection;  ///< per PDB term: projection index
  std::vector<std::int32_t> distance;   ///< per PDB term: its table entry
  /// Per node of a PDB term: its digit in the parent, so a successor's
  /// index is the parent's patched by (new − old)·weight.
  std::vector<std::uint8_t> digit;
  /// The parent's PDB sum; nullopt when the PDB calls the parent dead.
  std::optional<std::int64_t> pdb_sum;
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
/// A bound is two steps: the closure walk, which yields C and PU (see
/// Closure), then an O(W) tail — dead checks, counts, blue inputs PU ∩ blue,
/// the nodel and sink terms, the PDB floor. lower_bound_scaled runs both
/// and is the one reference. The expansion kernel instead prices a parent
/// once (enter_parent) and each successor of a move on v from it
/// (successor_bound), re-walking only what the move can change:
///
///  * Load v, Store v, Compute v with v ∉ C, Delete v with v ∉ PU ∪ sinks:
///    C and PU are the parent's, only the tail runs. Load and Store keep
///    the pebbled set. A Compute on a node outside C pebbles no closure
///    node, and every closure node whose cone holds v already had a pebbled
///    cone (else v, an empty ancestor on an all-empty path, would be in C).
///    A Delete of a node that is neither a sink nor a predecessor of a
///    closure node leaves C closed under the rule, so C stays least.
///  * Delete v with v ∈ PU ∪ sinks: v joins the closure; the walk continues
///    from {v}, seeded with the parent's C and PU. Every newly closed node
///    is an ancestor of v reached through empty nodes, or already in C.
///  * Compute v with v ∈ C: no walk. v leaves C and nothing else does.
///  * PDB: the move changes only v's pattern, so sum' = sum − d(old
///    projection) + d(new projection); an unreachable new projection makes
///    the successor dead. A parent the PDB calls dead takes the full sum.
///
/// Why this is exact. On a DAG the closure rule has one fixpoint: u ∈ C
/// iff u is empty and its support — |succ(u) ∩ C|, plus one for an empty
/// sink — is positive. PU meets `blue` exactly in the blue nodes with a
/// successor in C: a node folded in with its unpebbled cone adds no
/// predecessor mask to PU, but its predecessors are all empty. So the tail
/// reads the same C and PU ∩ blue as a fresh walk when:
///  * Compute v ∈ C: the decremental cascade would remove v and decrement
///    its predecessors' support, dropping an empty one from C or a blue one
///    from PU ∩ blue when its support reaches 0. Compute needs every
///    predecessor of v red, so none is empty or blue, and the cascade stops
///    at v: C' = C \ {v}, PU ∩ blue unchanged.
///  * Delete v ∈ PU ∪ sinks: a seeded PU can hold extra predecessor masks
///    only of closure nodes whose cones lost their last pebble; a node
///    inside such a cone has only empty predecessors, so PU differs from a
///    fresh walk only on empty nodes, which never meet `blue`.
/// Every successor gets the same h and the same dead verdict as
/// lower_bound_scaled; tests/pebble/test_bounds.cpp pins each rule and
/// tests/solvers/test_expander.cpp every successor, at every width, with
/// and without a PDB.
///
/// Closure memo. C and PU depend only on the pebbled set P = red | blue,
/// which Load and Store keep, so a search meets the same P again and again.
/// enter_parent looks P up in a direct-mapped memo of kClosureMemoSlots
/// entries — P, C and PU, 3·W words each, 24·W KiB — and walks only on a
/// miss, storing the walk. A Delete on v ∈ PU ∪ sinks looks its child's P
/// up first and continues the parent's walk only on a miss, storing
/// nothing. Full walks from the sinks are the only writers, so every entry
/// is exactly walk_from_sinks(P) — empty entries hold P = all ones, C = PU
/// = ∅, which is that walk's result whenever all ones is a pebbled set at
/// all. A Delete that hits reads a fresh walk's PU instead of the seeded
/// one, which differs only on empty nodes, so h and the dead verdict stay
/// the same. The memo is allocated on the first enter_parent; reference
/// lower_bound_scaled calls neither consult nor allocate it.
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
  /// the pattern-database sum. Set by every bound the evaluator returns
  /// (Pdb when the PDB strictly improved on the counting bound, or proved
  /// the state dead); introspection reads it after entered_bound to
  /// attribute each expansion's bound to its source. Cheap plain member — one store per evaluation.
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

  /// Record `state`'s closure, PU, PDB projections and PDB sum into
  /// `parent` — once per expansion. `parent` must be sized for this
  /// evaluator (see ParentBound); same width preconditions as
  /// lower_bound_scaled.
  template <std::size_t W>
  void enter_parent(const Masks<W>& state, ParentBound<W>& parent);

  /// lower_bound_scaled(child), where `child` is the entered parent after
  /// the legal `move` — priced by the delta rules above.
  template <std::size_t W>
  std::optional<std::int64_t> successor_bound(ParentBound<W>& parent,
                                              const Move& move,
                                              const Masks<W>& child);

  /// lower_bound_scaled(state), where `parent` holds `state` entered by
  /// enter_parent — its tail over the recorded C, PU and PDB sum, without a
  /// walk. Sets last_source() like lower_bound_scaled.
  template <std::size_t W>
  std::optional<std::int64_t> entered_bound(const Masks<W>& state,
                                            const ParentBound<W>& parent);

  /// Entries in the closure memo (see the class comment).
  static constexpr std::size_t kClosureMemoSlots = 1024;

  /// Closure walks enter_parent and successor_bound ran, and walks they
  /// skipped on a memo hit.
  struct ClosureCounts {
    std::size_t walks = 0;
    std::size_t memo_hits = 0;
  };
  /// The counts since the previous call; resets them.
  ClosureCounts take_closure_counts() { return std::exchange(counts_, {}); }

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
  template <std::size_t W>
  void walk(const Masks<W>& state, std::uint64_t* frontier,
            std::uint64_t* closure, std::uint64_t* inputs) const;
  template <std::size_t W>
  void walk_from_sinks(const Masks<W>& state, std::uint64_t* frontier,
                       std::uint64_t* closure, std::uint64_t* inputs) const;
  template <std::size_t W, class PdbFloor>
  std::optional<std::int64_t> tail(const Masks<W>& state,
                                   const std::uint64_t* closure,
                                   const std::uint64_t* inputs,
                                   PdbFloor&& pdb_floor);
  /// The memo entry `state`'s pebbled set maps to (allocating the memo on
  /// first use), and whether it holds that set.
  template <std::size_t W>
  std::pair<std::uint64_t*, bool> memo_entry(const Masks<W>& state);

  const Engine* engine_;
  std::int64_t eps_num_;
  std::int64_t eps_den_;
  const PatternDatabase* pdb_ = nullptr;
  BoundSource last_source_ = BoundSource::Counting;
  Caches caches_;
  // Scratch planes for the runtime-width evaluation (one evaluator per
  // search worker; not thread-safe, like the rest of the scratch).
  std::vector<std::uint64_t> scratch_;
  // kClosureMemoSlots entries of P, C, PU; empty until the first lookup.
  std::vector<std::uint64_t> memo_;
  ClosureCounts counts_;
};

/// One-shot convenience wrapper over StateBoundEvaluator, in model-cost
/// units. nullopt when `state` provably cannot be completed under `engine`.
std::optional<Rational> state_cost_lower_bound(const Engine& engine,
                                               const GameState& state);

}  // namespace rbpeb
