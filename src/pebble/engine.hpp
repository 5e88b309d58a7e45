// The rules of the game: legality checking and state transition for every
// model variant, with exact cost accounting.
#pragma once

#include <optional>
#include <string>

#include "src/graph/dag.hpp"
#include "src/pebble/cost.hpp"
#include "src/pebble/model.hpp"
#include "src/pebble/move.hpp"
#include "src/pebble/state.hpp"

namespace rbpeb {

/// Alternative initial/final-state definitions from the literature
/// (paper, Section 3 and Appendix C). The defaults are the paper's own
/// convention: sources are computable for free, sinks may end red or blue.
struct PebblingConvention {
  /// Sources begin with a blue pebble and are NOT computable (the Hong–Kung
  /// convention); they enter fast memory only via Step 1.
  bool sources_start_blue = false;
  /// Completion requires a blue pebble on every sink (instead of any color).
  bool sinks_end_blue = false;
};

/// An instance of the pebbling problem: a DAG, a model, and the red-pebble
/// budget R. The Engine answers "is this move legal here?" and applies moves.
///
/// Rule summary (paper, Sections 1 and 4):
///  * Load:    node holds blue; fewer than R red pebbles on the DAG.
///  * Store:   node holds red.
///  * Compute: all predecessors hold red; the node itself does not hold red
///             (re-placing red on a red node is a no-op and is rejected to
///             keep search spaces clean); capacity R respected; in oneshot
///             the node must never have been computed before. Computing a
///             blue-pebbled node replaces blue by red (recomputation as in
///             nodel/base/compcost).
///  * Delete:  node holds a pebble of either color; forbidden in nodel.
///
/// A pebbling is complete when every sink holds a pebble of either color.
class Engine {
 public:
  /// `red_limit` is R. Requires R >= Δ+1 (paper, Section 3: otherwise no
  /// pebbling exists), unless the DAG has no edges in which case R >= 1.
  /// The Engine keeps a reference to `dag`, which must outlive it; binding a
  /// temporary is rejected at compile time.
  Engine(const Dag& dag, Model model, std::size_t red_limit,
         PebblingConvention convention = {});
  Engine(Dag&&, Model, std::size_t, PebblingConvention = {}) = delete;

  const Dag& dag() const { return *dag_; }
  const Model& model() const { return model_; }
  std::size_t red_limit() const { return red_limit_; }
  const PebblingConvention& convention() const { return convention_; }

  /// Starting configuration: empty, except that under sources_start_blue
  /// every source holds a blue pebble.
  GameState initial_state() const;

  /// nullopt if `move` is legal in `state`; otherwise a human-readable
  /// reason. Never mutates.
  std::optional<std::string> why_illegal(const GameState& state,
                                         const Move& move) const;

  /// Same verdict as why_illegal, without building a message.
  bool is_legal(const GameState& state, const Move& move) const {
    return check(state, move, nullptr) == Rejection::None;
  }

  /// Apply a legal move, updating `state` and accumulating operation counts
  /// into `cost`. Throws PreconditionError if the move is illegal.
  void apply(GameState& state, const Move& move, Cost& cost) const;

  /// True when every sink of the DAG holds a pebble (red or blue).
  bool is_complete(const GameState& state) const;

 private:
  /// Why a move is illegal; None when it is legal.
  enum class Rejection {
    None,
    OutOfRange,
    LoadNeedsBlue,
    StoreNeedsRed,
    SourceNotComputable,
    AlreadyComputed,
    AlreadyRed,
    InputNotRed,
    RedBudget,
    DeleteForbidden,
    DeleteNeedsPebble,
    UnknownType,
  };

  /// The one legality routine. Allocation-free; on InputNotRed it stores
  /// the first input lacking a red pebble in `*input` when non-null.
  Rejection check(const GameState& state, const Move& move,
                  NodeId* input) const;

  const Dag* dag_;
  Model model_;
  std::size_t red_limit_;
  PebblingConvention convention_;
};

}  // namespace rbpeb
