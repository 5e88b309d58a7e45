// Parallel exact optimal pebbling via hash-distributed A* (HDA*).
//
// The same informed configuration-graph search as exact_astar.hpp — packed
// states, admissible per-state bounds, Dial bucket queues — but sharded
// across worker threads so the whole machine pushes one exact solve instead
// of racing heuristics against it. Each worker owns the hash-shard of
// closed/open tables for the states that hash to it (shard.hpp); generated
// neighbors are routed to their owner through batched MPSC mailboxes; a
// Safra token ring (termination.hpp) certifies global quiescence.
//
// Optimality is a theorem, not a race outcome: workers prune any state
// priced at or above the incumbent (the cheapest complete state seen so
// far — or, when an IncumbentSeed is supplied, a verified heuristic trace
// standing in from move one), so expansion cannot stop while anything
// prices below it — when the ring certifies quiescence, the globally
// cheapest open f-value is ≥ the incumbent and the incumbent is provably
// optimal. hda-astar therefore returns costs identical to exact-astar at
// any thread count, which tests/solvers/test_hda_astar.cpp asserts
// differentially at 1, 2, and 8 threads.
//
// Scaling machinery shared with exact-astar (see ExactSearchOptions):
// runtime-width keys past 42 nodes (up to 1024), additive pattern
// databases reinforcing the bound, and a memory budget split evenly across
// the shard tables. One HDA*-specific wrinkle: on *serial* instances
// (level width 1 — chains), hash-sharding degenerates into cross-thread
// hand-offs of a single state, each paying mailbox plus wake latency, so
// the search automatically falls back to one worker
// (ExactSearchStats::threads_used reports the actual count).
#pragma once

#include <cstddef>
#include <optional>

#include "src/pebble/engine.hpp"
#include "src/solvers/exact.hpp"

namespace rbpeb {

/// Node cap of the HDA* search — the runtime-width mask bound cap, shared
/// with exact-astar (42-node fixed-width and 128-node two-word fast paths
/// inside, both bit-for-bit unchanged by the runtime-width tier).
inline constexpr std::size_t kHdaAstarMaxNodes = 1024;

/// Sanity cap on the worker count; a request beyond it is a typo, not a
/// machine.
inline constexpr std::size_t kHdaAstarMaxThreads = 256;

/// Resolve a requested worker count: 0 means hardware concurrency (at least
/// 1). Throws PreconditionError beyond kHdaAstarMaxThreads.
std::size_t hda_resolve_threads(std::size_t threads);

/// Solve optimally on `threads` workers (0 = hardware concurrency). Throws
/// PreconditionError beyond kHdaAstarMaxNodes nodes and InvariantError if
/// `max_states` is exceeded before an optimum is proven.
ExactResult solve_hda_astar(const Engine& engine, std::size_t threads = 0,
                            std::size_t max_states = 2'000'000);

/// Like solve_hda_astar but returns nullopt instead of throwing when the
/// state budget is exhausted, `should_stop` fires, or the reachable
/// configuration graph drains without a complete state. When `stats` is
/// non-null it is always filled, success or not; states_expanded is the
/// exact total over all workers (aggregated through one shared atomic).
/// `should_stop` may be invoked concurrently from several workers.
std::optional<ExactResult> try_solve_hda_astar(
    const Engine& engine, std::size_t threads = 0,
    std::size_t max_states = 2'000'000, const StopPredicate& should_stop = {},
    ExactSearchStats* stats = nullptr);

/// Full-options entry point: memory budget (split across shards), pattern
/// databases, incumbent seeding.
std::optional<ExactResult> try_solve_hda_astar(
    const Engine& engine, std::size_t threads,
    const ExactSearchOptions& options, ExactSearchStats* stats = nullptr);

}  // namespace rbpeb
