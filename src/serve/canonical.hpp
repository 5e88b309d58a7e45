// Instance canonicalization for the serve layer: a stable, relabeling-
// invariant fingerprint of one solve request, and a canonical node order
// that lets a cached trace be replayed onto an isomorphic relabeling.
//
// Two requests whose DAGs differ only by node renumbering describe the same
// pebbling problem, so they must land on the same cache entry. True graph
// canonization is isomorphism-hard; the serve layer does not need it,
// because every cache answer is replayed through the Verifier before it is
// served (trace_cache.hpp). What it needs is a fingerprint that is
//
//   * provably invariant under relabeling (no false MISSES for renumbered
//     repeats), which Weisfeiler–Leman color refinement with multiset
//     hashing gives exactly: every hash ingredient is a multiset over
//     structural colors, never a node id;
//   * almost never colliding for distinct instances (a collision is a false
//     HIT candidate — caught by the audit and demoted to a miss, costing a
//     re-solve, never a wrong answer).
//
// The canonical ORDER (canonicalize().order) comes from individualization-
// refinement on top of those colors: WL-equivalent classes are split one
// node at a time, and after each split only the classes next to a recolored
// node are re-hashed, in synchronous steps, until nothing splits (McKay &
// Piperno's cell-local refinement). Each split costs work in proportion to
// the classes it touches, never a pass over the whole graph: a 102,400-node
// layered DAG canonicalizes in about 0.09 s (Release, 4-vCPU Xeon). For
// the common byte-identical repeat the order matches trivially and the
// cached trace replays as-is; for genuinely relabeled isomorphs the
// entry-order-to-request-order composition is an isomorphism whenever
// refinement separates what automorphisms do not (the audit backstops the
// residue). The order lives only in memory: each cache entry stores its own.
//
// The instance fingerprint folds in everything that changes the answer:
// the DAG hash, the model (name AND ε — two compcost parameterizations are
// different games), both convention bits, R, the solver, and the canonical
// "k=v" option serialization from the solver API. Budgets are deliberately
// excluded: they bound the effort, not the instance, and the cache stores
// the audited answer, which a budget cannot change — only fail to produce.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/graph/dag.hpp"
#include "src/pebble/engine.hpp"
#include "src/solvers/api.hpp"

namespace rbpeb::serve {

/// Relabeling-invariant structural summary of one DAG.
struct CanonicalForm {
  /// WL multiset hash over stable node colors and edge color pairs —
  /// identical for isomorphic DAGs regardless of node numbering.
  std::uint64_t dag_hash = 0;
  /// order[i] = the node at canonical position i. Two isomorphic DAGs map
  /// onto each other via entry.order[i] → request.order[i].
  std::vector<NodeId> order;
};

/// Compute the canonical form (see header comment).
CanonicalForm canonicalize(const Dag& dag);

/// Stable hex fingerprint of a full solve instance; the trace-cache key.
std::string instance_fingerprint(const CanonicalForm& form, const Model& model,
                                 const PebblingConvention& convention,
                                 std::size_t red_limit,
                                 std::string_view solver,
                                 const SolverOptions& options);

}  // namespace rbpeb::serve
