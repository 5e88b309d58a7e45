// The reference the mask-composed bound (StateBoundEvaluator) is pinned
// to: the original mark-and-walk evaluation of the same per-state counting
// bounds, reading the state only through color()/was_computed().
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/pebble/engine.hpp"

namespace rbpeb::test_support {

/// Lower bound on the remaining completion cost of `state` in scaled units
/// of 1/ε.den(); nullopt when the state provably cannot be completed.
template <class StateLike>
std::optional<std::int64_t> lower_bound_generic(const Engine& engine,
                                                const StateLike& state) {
  const Dag& dag = engine.dag();
  const Model& model = engine.model();
  const PebblingConvention& conv = engine.convention();
  const std::int64_t eps_num = model.epsilon().num();
  const std::int64_t eps_den = model.epsilon().den();
  const std::size_t n = dag.node_count();
  std::vector<std::uint8_t> mark(n, 0);
  std::vector<NodeId> stack;

  auto seed = [&](NodeId v) {
    if (mark[v] == 0) {
      mark[v] = 1;
      stack.push_back(v);
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
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    if (!model.allows_recompute() && state.was_computed(v)) {
      return std::nullopt;  // oneshot: the needed value is lost forever
    }
    if (conv.sources_start_blue && dag.is_source(v)) {
      return std::nullopt;  // uncomputable and, with no pebble, unloadable
    }
    bound += eps_num;
    ++closure_size;
    for (NodeId p : dag.predecessors(v)) {
      const PebbleColor c = state.color(p);
      if (c == PebbleColor::Red || mark[p] != 0) continue;
      if (c == PebbleColor::None) {
        seed(p);
        continue;
      }
      // Blue input: must become red again at least once. Counted once per
      // node; mark value 2 keeps it out of the closure accounting.
      mark[p] = 2;
      bool recompute_ok = model.allows_recompute() || !state.was_computed(p);
      if (conv.sources_start_blue && dag.is_source(p)) recompute_ok = false;
      bound += recompute_ok ? std::min(eps_num, eps_den) : eps_den;
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
    const auto r = static_cast<std::int64_t>(engine.red_limit());
    // Max, not sum: this and the sink term lower-bound the same stores.
    stores_owed = std::max(stores_owed, final_pebbled - r - blue);
  }
  return bound + stores_owed * eps_den;
}

}  // namespace rbpeb::test_support
