// The reference a pattern database's tables are pinned to: one pattern's
// abstract game solved by a plain forward Dijkstra from a single start
// projection, written from the move rules of Engine (engine.hpp) restricted
// to the pattern's nodes — no packed indices, no pre-images, no shape map.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <queue>
#include <utility>
#include <vector>

#include "src/pebble/engine.hpp"

namespace rbpeb::test_support {

/// Optimal cost, in scaled units of 1/ε.den(), of completing the abstract
/// game of pattern `nodes` from `start` (one field per position: color |
/// computed << 2); nullopt when no abstract completion exists. Moves on the
/// pattern keep every Engine rule that mentions only pattern nodes; nodes
/// outside the pattern are unconstrained.
inline std::optional<std::int64_t> abstract_completion_cost(
    const Engine& engine, const std::vector<NodeId>& nodes,
    const std::vector<unsigned>& start) {
  const Dag& dag = engine.dag();
  const Model& model = engine.model();
  const PebblingConvention& conv = engine.convention();
  const std::int64_t eps_num = model.epsilon().num();
  const std::int64_t eps_den = model.epsilon().den();
  const std::size_t r = engine.red_limit();
  constexpr unsigned kNone = static_cast<unsigned>(PebbleColor::None);
  constexpr unsigned kRed = static_cast<unsigned>(PebbleColor::Red);
  constexpr unsigned kBlue = static_cast<unsigned>(PebbleColor::Blue);
  using Fields = std::vector<unsigned>;

  auto color = [](unsigned field) { return field & 3u; };
  auto red_count = [&](const Fields& s) {
    std::size_t red = 0;
    for (unsigned f : s) red += color(f) == kRed ? 1 : 0;
    return red;
  };
  auto in_pattern = [&](NodeId u) -> std::optional<std::size_t> {
    for (std::size_t j = 0; j < nodes.size(); ++j) {
      if (nodes[j] == u) return j;
    }
    return std::nullopt;
  };
  auto is_goal = [&](const Fields& s) {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (!dag.is_sink(nodes[i])) continue;
      if (conv.sinks_end_blue ? color(s[i]) != kBlue : color(s[i]) == kNone) {
        return false;
      }
    }
    return true;
  };

  std::map<Fields, std::int64_t> dist{{start, 0}};
  using Entry = std::pair<std::int64_t, Fields>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> open;
  open.emplace(0, start);
  while (!open.empty()) {
    auto [d, s] = open.top();
    open.pop();
    if (dist.at(s) != d) continue;
    if (is_goal(s)) return d;
    auto relax = [&](std::size_t i, unsigned field, std::int64_t cost) {
      Fields next = s;
      next[i] = field;
      auto [it, fresh] = dist.try_emplace(next, d + cost);
      if (!fresh && it->second <= d + cost) return;
      it->second = d + cost;
      open.emplace(d + cost, std::move(next));
    };
    const bool room = red_count(s) < r;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const NodeId v = nodes[i];
      const unsigned computed = s[i] & 4u;
      if (color(s[i]) == kBlue && room) relax(i, kRed | computed, eps_den);
      if (color(s[i]) == kRed) relax(i, kBlue | computed, eps_den);
      if (model.allows_delete() && color(s[i]) != kNone) {
        relax(i, kNone | computed, 0);
      }
      bool computable = room && color(s[i]) != kRed &&
                        !(conv.sources_start_blue && dag.is_source(v)) &&
                        (model.allows_recompute() || computed == 0);
      for (NodeId u : dag.predecessors(v)) {
        const std::optional<std::size_t> j = in_pattern(u);
        if (j && color(s[*j]) != kRed) computable = false;
      }
      if (computable) relax(i, kRed | 4u, eps_num);
    }
  }
  return std::nullopt;
}

}  // namespace rbpeb::test_support
