// The node-order pebblers: the greedy heuristics of Section 8 and the
// Section 3 fixed-order baseline.
//
// Both compute every node exactly once, one node at a time, evicting red
// pebbles as needed; they differ only in how they pick the next node.
//
// A greedy pebbling is an ordering of the (first) computation of nodes: in
// each step, among the uncomputed nodes whose inputs have all been computed,
// one is chosen by a myopic rule. The three rules the paper analyzes:
//   * largest number of red pebbles among the inputs,
//   * smallest number of blue pebbles among the inputs,
//   * largest red-pebbles-to-inputs ratio.
// In the models that allow recomputation we follow the paper's Appendix A.4
// interpretation: greedy orders *first* computations and never recomputes.
//
// The Section 3 baseline pebbles nodes in a fixed (topological) order. The
// paper uses this strategy to prove the universal cost upper bound
// (2Δ+1)·n; pebble_in_order keeps that guarantee while evicting lazily.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "src/pebble/engine.hpp"
#include "src/pebble/trace.hpp"
#include "src/solvers/eviction.hpp"

namespace rbpeb {

/// Node-choice rule (paper, Section 8).
enum class GreedyRule {
  MostRedInputs,
  FewestBlueInputs,
  RedRatio,
};

const char* to_string(GreedyRule rule);

/// Inverse of to_string; nullopt for unknown names.
std::optional<GreedyRule> greedy_rule_from_name(std::string_view name);

/// Configuration of a node-order pebbling run. Dead red pebbles (no
/// uncomputed consumer, not a sink) are deleted as soon as they die where
/// the model allows, matching the paper's accounting.
struct GreedyOptions {
  /// Node-choice rule; unused when the order is fixed.
  GreedyRule rule = GreedyRule::MostRedInputs;
  EvictionRule eviction = EvictionRule::FewestRemainingUses;
  /// Seed for the Random eviction rule.
  std::uint64_t seed = 1;
};

/// Run the greedy heuristic to completion and return the trace.
///
/// The trace computes every node exactly once; it is legal in all four
/// models (deletions are replaced by stores under nodel) and complete.
/// Complexity: O(n · (n + Δ)) time with incremental candidate scoring.
Trace solve_greedy(const Engine& engine, const GreedyOptions& options = {});

/// Pebble the DAG computing nodes exactly in `order` (must be topological).
/// Per computed node the trace uses at most Δ loads and Δ+1 stores, so its
/// transfer cost is at most (2Δ+1)·n in every model — the paper's universal
/// upper bound.
Trace pebble_in_order(const Engine& engine, const std::vector<NodeId>& order,
                      const GreedyOptions& options = {});

/// pebble_in_order with the deterministic Kahn topological order.
Trace solve_topo_baseline(const Engine& engine,
                          const GreedyOptions& options = {});

}  // namespace rbpeb
