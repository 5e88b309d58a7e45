// Test helpers over the Engine reference: the legal-move enumeration the
// differential tests walk, and a field-by-field packed-state comparison.
#pragma once

#include <cstddef>
#include <vector>

#include "src/pebble/engine.hpp"
#include "src/pebble/move.hpp"
#include "src/pebble/state.hpp"

namespace rbpeb::test_support {

/// Every move Engine::is_legal accepts in `state`, in v-major
/// Load/Store/Compute/Delete order.
inline std::vector<Move> legal_moves(const Engine& engine,
                                     const GameState& state) {
  std::vector<Move> legal;
  for (std::size_t v = 0; v < state.node_count(); ++v) {
    for (MoveType type : {MoveType::Load, MoveType::Store, MoveType::Compute,
                          MoveType::Delete}) {
      const Move move{type, static_cast<NodeId>(v)};
      if (engine.is_legal(state, move)) legal.push_back(move);
    }
  }
  return legal;
}

/// True when a packed state holds exactly `state`'s colors and computed
/// flags, read through color()/was_computed().
template <class Packed>
bool same_fields(const Packed& packed, const GameState& state) {
  for (std::size_t v = 0; v < state.node_count(); ++v) {
    const auto node = static_cast<NodeId>(v);
    if (packed.color(node) != state.color(node) ||
        packed.was_computed(node) != state.was_computed(node)) {
      return false;
    }
  }
  return true;
}

}  // namespace rbpeb::test_support
