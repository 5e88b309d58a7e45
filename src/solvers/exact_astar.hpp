// Exact optimal pebbling via A* with admissible per-state lower bounds.
//
// Same configuration-graph search as exact.hpp's Dijkstra, but informed:
// each generated state is priced at g + h where h is the admissible
// completion bound of bounds.hpp (remaining ε·uncomputed work in compcost,
// unmaterialized value transfers in nodel, blue-input loads still owed in
// all models), so the frontier leans toward completions and provably-dead
// states (oneshot values lost forever) are pruned outright.
//
// There is no search loop here: exact-astar is the sequential A* driver of
// anytime_astar.hpp run with the one-pass schedule {1} and target ε 0. At
// weight 1 the first completion popped is optimal, so the pass returns it
// with a proof; a run that ends any other way returns nullopt. The driver
// brings:
//
//  * states are 3-bit-packed PackedKey<W> (packed_state.hpp) and updated
//    incrementally per move — O(1) per generated neighbor. The width
//    dispatch picks the narrowest key from the node count: one inline word
//    up to 21 nodes, two up to 42, the runtime width beyond; the bound and
//    move masks are Masks<W> (pebble/bounds.hpp), one word up to 64 nodes,
//    two up to 128, the runtime width up to kExactAstarMaxNodes. Every
//    pair prices identically, so the choice changes speed, never costs or
//    expansion counts;
//  * the closed table is byte-accounted and spill-capable (bigstate/
//    ddd.hpp): an ExactSearchOptions::max_memory_bytes cap either turns
//    into a disk-backed working set (external-memory search, duplicates
//    checked against the spill runs at insert time — the default when a
//    budget is set) or, with spill=off, ends the search gracefully with
//    MemoryBudget and partial stats instead of an OOM kill;
//  * past 42 nodes the bound is reinforced by additive pattern databases
//    (bigstate/pdb.hpp) as max(counting_bounds, pdb_sum), and an optional
//    IncumbentSeed (a verified heuristic trace) prunes everything pricing
//    at or above its cost from move one — if nothing cheaper exists the
//    seed itself is returned, proven optimal;
//  * the priority queue is a Dial/bucket queue of {key, g} items: move
//    costs only take the values {0, ε.num, ε.den} in scaled units, so
//    priorities are small integers bounded by the Section 3 universal cost
//    bound and a binary heap (plus its stale-entry churn) is overkill;
//  * any state whose f-value exceeds the universal upper bound (plus the
//    Appendix C convention-bridging slack) is dropped — no optimal pebbling
//    lives beyond it.
//
// The differential harness in tests/solvers/test_exact_astar.cpp proves the
// returned cost equals Dijkstra's on every ≤21-node instance, and
// tests/solvers/test_expander.cpp pins the expansion kernel to the Engine
// for every key/mask pair the dispatch returns.
#pragma once

#include <cstddef>
#include <optional>

#include "src/pebble/engine.hpp"
#include "src/solvers/exact.hpp"

namespace rbpeb {

/// Node cap of the inline packed keys: 42 nodes × 3 bits fit two words.
/// Beyond it keys take the runtime width, and the bigstate defaults
/// (pattern databases, incumbent seeding) switch on.
inline constexpr std::size_t kExactAstarFixedMaxNodes = 42;

/// Node cap of the A* search overall — the mask limit of
/// StateBoundEvaluator (asserted equal in exact_astar.cpp).
inline constexpr std::size_t kExactAstarMaxNodes = 1024;

/// Whether a search with these options consults a pattern database: On
/// always, Auto exactly past the fixed-width cap — so ≤42-node expansion
/// counts stay bit-for-bit. One definition serves exact-astar and
/// hda-astar; they must never diverge on when the heuristic applies.
inline bool bigstate_pdb_enabled(const ExactSearchOptions& options,
                                 std::size_t node_count) {
  switch (options.pdb) {
    case PdbMode::On: return true;
    case PdbMode::Off: return false;
    case PdbMode::Auto: return node_count > kExactAstarFixedMaxNodes;
  }
  return false;
}

/// Solve optimally. Throws PreconditionError beyond kExactAstarMaxNodes
/// nodes and InvariantError if the state budget is exceeded before an
/// optimum is proven.
ExactResult solve_exact_astar(const Engine& engine,
                              std::size_t max_states = 2'000'000);

/// Like solve_exact_astar but returns nullopt instead of throwing when the
/// state budget is exhausted, `should_stop` fires, or the reachable
/// configuration graph drains without a complete state. When `stats` is
/// non-null it is always filled, success or not.
std::optional<ExactResult> try_solve_exact_astar(
    const Engine& engine, std::size_t max_states = 2'000'000,
    const StopPredicate& should_stop = {}, ExactSearchStats* stats = nullptr);

/// Full-options entry point: memory budget, spilling, pattern databases and
/// incumbent seeding (ExactSearchOptions).
std::optional<ExactResult> try_solve_exact_astar(
    const Engine& engine, const ExactSearchOptions& options,
    ExactSearchStats* stats = nullptr);

}  // namespace rbpeb
