// Exact optimal pebbling via Dijkstra over game configurations.
//
// The configuration graph has one vertex per (pebble placement, computed
// set) pair and one edge per legal move, weighted by the model's cost of
// that move. Dijkstra from the empty configuration to any complete one
// yields a provably optimal pebbling. Exponential (4^n states worst case);
// intended for DAGs of up to ~14 nodes, where it serves as the ground truth
// that every other solver is validated against.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "src/obs/introspect.hpp"
#include "src/pebble/engine.hpp"
#include "src/pebble/trace.hpp"
#include "src/pebble/verifier.hpp"

namespace rbpeb {

struct ExactResult {
  Trace trace;          ///< An optimal pebbling.
  Rational cost;        ///< Its model cost (equals verify().total).
  std::size_t states_expanded = 0;
};

/// Why an exact search ended.
enum class ExactTermination {
  Solved,        ///< An optimum was found and proven.
  StateBudget,   ///< max_states expansions without a proven optimum.
  Stopped,       ///< The should_stop hook fired (deadline or cancellation).
  Exhausted,     ///< Configuration graph drained with no complete state.
  MemoryBudget,  ///< The closed table hit max_memory_bytes.
};

/// Partial progress of an exact search, filled in even when the search does
/// not finish — a budget-exhausted SolveResult still reports how far it got.
struct ExactSearchStats {
  std::size_t states_expanded = 0;
  ExactTermination termination = ExactTermination::Solved;
  /// Peak closed-table footprint in bytes (A* searches; summed over shards
  /// for hda-astar). Zero for searches that do not account memory (exact).
  std::size_t table_bytes = 0;
  /// Bytes of the pattern database's tables, charged to the memory budget
  /// beside the closed table. Zero when the search built no PDB.
  std::size_t pdb_bytes = 0;
  /// Wall milliseconds the pattern database build took. Zero when the
  /// search built no PDB.
  double pdb_build_ms = 0.0;
  /// Workers the search actually ran (hda-astar; includes the automatic
  /// sequential fallback on serial instances). Zero elsewhere.
  std::size_t threads_used = 0;
  /// True when the search proved the seeded incumbent optimal and returned
  /// its trace instead of one of its own.
  bool seed_won = false;
  /// Closed entries evicted to disk spill runs (cumulative; summed over
  /// shards for hda-astar). Zero when the search never spilled.
  std::size_t spilled_states = 0;
  /// Bytes written to spill runs (cumulative, including compaction rewrites).
  std::size_t spill_bytes = 0;
  /// High-water mark of spill bytes simultaneously on disk, compaction
  /// transients included (old runs coexist with the merged output until the
  /// old files are removed — up to ~2x the steady state). Summed over shards
  /// for hda-astar. The number to provision disk against per solve.
  std::size_t spill_peak_bytes = 0;
  /// Spill run compactions (k-way merges of the runs into one).
  std::size_t merge_passes = 0;
  /// True when a spill write failed for I/O reasons (filesystem full or
  /// erroring) rather than the disk budget — a MemoryBudget termination
  /// then cannot be fixed by raising --budget-disk.
  bool spill_io_error = false;
  /// True when the closed table stopped one doubling early: the budget had
  /// headroom for the grown table's steady state but not for the rehash
  /// transient (old + new slab while copying). Surfaced in the CLI
  /// BudgetExhausted detail — a slightly larger --budget-memory (or
  /// spilling) would have let the search continue. OR of shards for
  /// hda-astar.
  bool table_headroom_stop = false;
  /// Anytime tier (solvers/anytime_astar.hpp): the proved admissible lower
  /// bound on the optimum in scaled units of 1/ε.den(), and the returned
  /// incumbent's cost in the same units. -1 when the search does not emit
  /// a certificate. incumbent == lower_bound proves the trace optimal.
  std::int64_t lower_bound_scaled = -1;
  std::int64_t incumbent_scaled = -1;
  /// Weighted-A* passes the anytime tier completed (drained or budget-cut).
  std::size_t anytime_passes = 0;
  /// Bound-source attribution (filled only when a progress sampler is
  /// attached — the per-expansion bound tail it needs is skipped
  /// otherwise so un-instrumented runs stay byte-identical). Invariant:
  /// attr_counting + attr_pdb == states_expanded.
  std::size_t attr_counting = 0;  ///< expansions whose bound was the
                                  ///< counting bounds
  std::size_t attr_pdb = 0;       ///< … whose bound was the PDB sum
  /// Pops skipped as stale/already-expanded (always counted; free) and
  /// generated states the bound proved dead.
  std::size_t dup_skipped = 0;
  std::size_t dead_prunes = 0;
  /// Requirement-closure walks the expansion kernel ran, and walks it
  /// skipped because the closure memo held the pebbled set (always
  /// counted; see StateBoundEvaluator). Each expansion enters its state
  /// once, and each Delete of a closure input or a sink adds one more.
  std::size_t closure_walks = 0;
  std::size_t closure_memo_hits = 0;
};

/// Cooperative interruption hook: polled on entry and then every 64
/// expansions; returning true abandons the run (deadline or cancellation
/// from a solve budget). An empty function never stops.
using StopPredicate = std::function<bool()>;

/// A verified heuristic pebbling seeding an informed search's incumbent:
/// the search prunes every state pricing at or above `g_scaled` from move
/// one and, should nothing cheaper exist, returns `trace` itself with a
/// proof of its optimality (quiescence below the seed's cost).
struct IncumbentSeed {
  Trace trace;
  std::int64_t g_scaled = 0;  ///< verified cost in units of 1/ε.den()
};

/// Whether an informed search consults an additive pattern database
/// (solvers/bigstate/pdb.hpp). Auto enables it exactly where the counting
/// bounds stop carrying the search: past the 42-node fixed-width cap — so
/// smaller instances keep their expansion counts bit-for-bit.
enum class PdbMode { Auto, On, Off };

/// Whether a memory-budget hit spills cold closed entries to disk
/// (solvers/bigstate/ddd.hpp) instead of ending the search. Auto spills to
/// a fresh temporary directory whenever max_memory_bytes > 0; Off keeps the
/// legacy behavior (a budget hit terminates with MemoryBudget); Path spills
/// under ExactSearchOptions::spill_path. CLI: --opt spill=auto|off|/path.
enum class SpillMode { Auto, Off, Path };

/// Knobs of the informed searches (exact-astar, hda-astar, anytime-astar)
/// beyond the plain state budget. The key and mask widths are not knobs:
/// dispatch_search_width (solvers/expander.hpp) picks them from the node
/// count alone.
struct ExactSearchOptions {
  /// Configuration-graph states the search may expand.
  std::size_t max_states = 2'000'000;
  /// Closed-table byte cap (per search; hda-astar splits it evenly across
  /// its shards). 0 = unlimited. Exceeding it ends the search with
  /// ExactTermination::MemoryBudget and partial stats — never an OOM kill.
  std::size_t max_memory_bytes = 0;
  PdbMode pdb = PdbMode::Auto;
  /// Pattern width for PdbMode::On/Auto, 1–8; 0 = PatternDatabase default
  /// (6). Each pattern shape builds one dense 6^|P| table, indexed in mixed
  /// radix 6 (solvers/bigstate/pdb.hpp).
  std::size_t pdb_pattern_size = 0;
  /// External-memory closed table (bigstate/ddd.hpp): when the closed
  /// table hits max_memory_bytes, evict cold (lowest-g) entries to sorted
  /// spill runs instead of terminating, and check each state that misses in
  /// RAM against the runs before inserting it. Defaults to Auto (engaged
  /// exactly when a memory budget is set); never touched when no budget is.
  SpillMode spill = SpillMode::Auto;
  /// Spill directory for SpillMode::Path (a unique subdirectory is created
  /// and removed per search). Ignored otherwise.
  std::string spill_path;
  /// Byte cap on the spill runs on disk (per search; hda-astar splits it
  /// across its shards like the memory budget). 0 = unlimited. Exceeding it
  /// ends the search with ExactTermination::MemoryBudget. CLI: --budget-disk.
  std::size_t max_disk_bytes = 0;
  /// Optional incumbent seed (see IncumbentSeed).
  std::optional<IncumbentSeed> seed;
  StopPredicate should_stop;
  /// Optional progress sampler (obs/introspect.hpp), polled at the
  /// 1024-expansion trace-checkpoint cadence. Non-owning; must outlive the
  /// search. When null (the default) every sampling/attribution probe is
  /// skipped, keeping costs and expansion counts byte-identical to
  /// un-instrumented runs.
  obs::SearchProgressSampler* progress = nullptr;
};

/// Solve optimally. Throws PreconditionError if the DAG has more than 21
/// nodes (the 64-bit packed-state limit; exact_astar.hpp goes to 42) and
/// InvariantError if `max_states` is exceeded before an optimum is proven.
ExactResult solve_exact(const Engine& engine, std::size_t max_states = 2'000'000);

/// Like solve_exact but returns nullopt instead of throwing when the state
/// budget is exhausted, `should_stop` fires, or the configuration graph
/// drains without a complete state (an instance no pebbling can finish).
/// When `stats` is non-null it is always filled, success or not.
std::optional<ExactResult> try_solve_exact(const Engine& engine,
                                           std::size_t max_states = 2'000'000,
                                           const StopPredicate& should_stop = {},
                                           ExactSearchStats* stats = nullptr);

}  // namespace rbpeb
