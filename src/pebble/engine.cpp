#include "src/pebble/engine.hpp"

#include <sstream>

#include "src/support/check.hpp"

namespace rbpeb {

Engine::Engine(const Dag& dag, Model model, std::size_t red_limit,
               PebblingConvention convention)
    : dag_(&dag),
      model_(std::move(model)),
      red_limit_(red_limit),
      convention_(convention) {
  std::size_t min_r = dag.node_count() == 0 ? 0 : dag.max_indegree() + 1;
  RBPEB_REQUIRE(red_limit_ >= min_r,
                "R must be at least max-indegree + 1 (paper, Section 3)");
}

GameState Engine::initial_state() const {
  GameState state(dag_->node_count());
  if (convention_.sources_start_blue) {
    for (NodeId s : dag_->sources()) state.set_color(s, PebbleColor::Blue);
  }
  return state;
}

Engine::Rejection Engine::check(const GameState& state, const Move& move,
                                 NodeId* input) const {
  if (!dag_->contains(move.node)) return Rejection::OutOfRange;
  const NodeId v = move.node;
  switch (move.type) {
    case MoveType::Load:
      if (!state.is_blue(v)) return Rejection::LoadNeedsBlue;
      if (state.red_count() >= red_limit_) return Rejection::RedBudget;
      return Rejection::None;

    case MoveType::Store:
      if (!state.is_red(v)) return Rejection::StoreNeedsRed;
      return Rejection::None;

    case MoveType::Compute:
      if (convention_.sources_start_blue && dag_->is_source(v)) {
        return Rejection::SourceNotComputable;
      }
      if (!model_.allows_recompute() && state.was_computed(v)) {
        return Rejection::AlreadyComputed;
      }
      if (state.is_red(v)) return Rejection::AlreadyRed;
      for (NodeId u : dag_->predecessors(v)) {
        if (!state.is_red(u)) {
          if (input != nullptr) *input = u;
          return Rejection::InputNotRed;
        }
      }
      // Computing a blue node replaces the blue pebble (red count +1);
      // computing an empty node adds a pebble. Either way one more red.
      if (state.red_count() >= red_limit_) return Rejection::RedBudget;
      return Rejection::None;

    case MoveType::Delete:
      if (!model_.allows_delete()) return Rejection::DeleteForbidden;
      if (state.is_empty(v)) return Rejection::DeleteNeedsPebble;
      return Rejection::None;
  }
  return Rejection::UnknownType;
}

std::optional<std::string> Engine::why_illegal(const GameState& state,
                                               const Move& move) const {
  NodeId input = 0;
  switch (check(state, move, &input)) {
    case Rejection::None: return std::nullopt;
    case Rejection::OutOfRange: return "node id out of range";
    case Rejection::LoadNeedsBlue:
      return "load requires a blue pebble on the node";
    case Rejection::StoreNeedsRed:
      return "store requires a red pebble on the node";
    case Rejection::SourceNotComputable:
      return "sources are pre-loaded blue inputs and cannot be computed";
    case Rejection::AlreadyComputed:
      return "oneshot: node was already computed once";
    case Rejection::AlreadyRed: return "node already holds a red pebble";
    case Rejection::InputNotRed: {
      std::ostringstream os;
      os << "input node " << input << " does not hold a red pebble";
      return os.str();
    }
    case Rejection::RedBudget: return "red pebble budget exhausted";
    case Rejection::DeleteForbidden: return "nodel: deletions are forbidden";
    case Rejection::DeleteNeedsPebble:
      return "delete requires a pebble on the node";
    case Rejection::UnknownType: break;
  }
  return "unknown move type";
}

void Engine::apply(GameState& state, const Move& move, Cost& cost) const {
  if (check(state, move, nullptr) != Rejection::None) {
    std::ostringstream os;
    os << "illegal move " << to_string(move) << ": "
       << *why_illegal(state, move);
    throw PreconditionError(os.str());
  }
  const NodeId v = move.node;
  switch (move.type) {
    case MoveType::Load:
      state.set_color(v, PebbleColor::Red);
      ++cost.loads;
      break;
    case MoveType::Store:
      state.set_color(v, PebbleColor::Blue);
      ++cost.stores;
      break;
    case MoveType::Compute:
      state.set_color(v, PebbleColor::Red);
      state.mark_computed(v);
      ++cost.computes;
      break;
    case MoveType::Delete:
      state.set_color(v, PebbleColor::None);
      ++cost.deletes;
      break;
  }
}

bool Engine::is_complete(const GameState& state) const {
  for (NodeId sink : dag_->sinks()) {
    if (convention_.sinks_end_blue ? !state.is_blue(sink)
                                   : state.is_empty(sink)) {
      return false;
    }
  }
  return true;
}

}  // namespace rbpeb
