// Anytime weighted-A* — every instance size gets an answer with a guarantee.
//
// Past the sizes exact search can prove optimal within budget, the paper's
// hardness results (Sections 2 and 5: NP-hardness, inapproximability of the
// general problem) say a production service must trade optimality away —
// but it need not trade the *guarantee* away. This tier runs a schedule of
// weighted-A* passes (descending weights w ≥ 1) that iteratively tighten a
// verified incumbent, and pairs the returned trace with a machine-checkable
// certificate: an admissible lower bound L on the optimum with
//
//     cost ≤ (1+ε)·L,   ε = (cost − L) / L.
//
// Two facts make the certificate sound under any expansion order:
//
//  * Pruning discipline. A pass orders its queue by g + w·h but prunes a
//    generated state only when its *unweighted* f = g + h reaches the
//    incumbent (no cheaper completion can pass through it) or the bound
//    proves it dead. Inflated weights distort the schedule, never the
//    reachable set below the incumbent.
//  * The frontier lemma. For any completion cheaper than the incumbent
//    that the pass has not found, some state on its path is open with
//    g no larger than the path's prefix cost, hence with unweighted
//    f = g + h no larger than the completion's cost. So when a pass is cut
//    by its budget, min(incumbent, min unweighted f over the remaining
//    open items) lower-bounds the optimum — computed by draining the
//    queue, stale entries included (extras only lower the min, keeping it
//    admissible). A pass that *drains* proves the incumbent optimal
//    outright, even at w > 1.
//
// The overall lower bound is the max of the admissible start bound and the
// per-pass frontier bounds; the incumbent is the cheapest verified trace
// seen (the greedy seed until the search beats it). ε = 0 means proven
// optimal. Certificates survive every termination: state budget, deadline,
// even a memory-budget abort keeps the bounds from completed passes.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "src/pebble/engine.hpp"
#include "src/solvers/exact.hpp"

namespace rbpeb {

/// One weighted-A* pass's weight as an exact ratio ≥ 1 (integer arithmetic
/// keeps the Dial-queue priorities integral).
struct AnytimeWeight {
  std::int64_t num = 1;
  std::int64_t den = 1;
};

struct AnytimeOptions {
  /// The pass schedule, highest (greediest) weight first. The state budget
  /// is split evenly across passes; a drained pass proves optimality and
  /// ends the schedule early. Defaults to 3, 2, 3/2, 1.
  std::vector<AnytimeWeight> weights = {{3, 1}, {2, 1}, {3, 2}, {1, 1}};
  /// Stop as soon as ε ≤ target_epsilon (0 = run the full schedule or to a
  /// proof). A stopping rule only — the returned certificate is exact.
  double target_epsilon = 0.0;
};

struct AnytimeResult {
  Trace trace;          ///< The incumbent: best verified pebbling found.
  Rational cost;        ///< Its model cost.
  Rational lower_bound; ///< Proved admissible lower bound on the optimum.
  Rational epsilon;     ///< (cost − lower_bound) / lower_bound; 0 = optimal.
  bool optimal = false; ///< cost == lower_bound: the trace is proven optimal.
  /// False in the degenerate corner lower_bound == 0 < cost, where no
  /// finite ε satisfies the certificate inequality. The trace is still a
  /// valid (verified) pebbling; it just ships without a guarantee.
  bool certified = true;
  std::size_t states_expanded = 0;
};

/// Run the anytime tier. Returns nullopt only when no trace exists at all —
/// no seed was supplied and no pass found a completion within budget
/// (`stats` then carries the lower bound the passes still proved). Shares
/// ExactSearchOptions with the exact searches: seeds, PDBs, memory budgets
/// and spill all apply. Node cap:
/// kExactAstarMaxNodes (exact_astar.hpp), asserted inside.
std::optional<AnytimeResult> try_solve_anytime_astar(
    const Engine& engine, const ExactSearchOptions& options,
    const AnytimeOptions& anytime = {}, ExactSearchStats* stats = nullptr);

}  // namespace rbpeb
