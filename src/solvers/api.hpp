// The unified solver API: every pebbling solver in rbpeb behind one
// polymorphic interface, discoverable by name through a registry.
//
// Before this layer each solver was a bespoke free function with its own
// options struct and result type; the CLI and every bench hand-wired the
// dispatch. A SolveRequest now carries the engine (rules + budget R),
// optional structured views of the instance (group structure, tradeoff
// chain), string-keyed options, and a SolveBudget; a SolveResult carries the
// trace, its *verified* cost (replayed through the Verifier — solvers still
// cannot misreport), a status, and per-solver stats. The registry is the
// extension point new heuristics plug into; solve_portfolio (portfolio.hpp)
// races registered solvers against each other.
#pragma once

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/gadgets/tradeoff_chain.hpp"
#include "src/pebble/engine.hpp"
#include "src/pebble/trace.hpp"
#include "src/solvers/group_dag.hpp"

namespace rbpeb {

namespace obs {
class SearchProgressSampler;
}  // namespace obs

/// How a solve ended.
enum class SolveStatus {
  Optimal,          ///< Trace is provably optimal for the request.
  Heuristic,        ///< Trace is legal and complete; no optimality claim.
  BudgetExhausted,  ///< Budget ended the run; a best-so-far trace may exist.
  Inapplicable,     ///< Solver cannot run on this request (see detail).
};

const char* to_string(SolveStatus status);

/// Resource limits for one solve. All limits are cooperative: solvers poll
/// them at natural checkpoints (state expansions, anneal iterations).
struct SolveBudget {
  /// Configuration-graph states an exhaustive solver may expand.
  std::size_t max_states = 2'000'000;
  /// Iterations an iterative solver may run when the request's options do
  /// not say otherwise.
  std::size_t max_iterations = 2'000;
  /// Worker threads a parallel solver (hda-astar) may spread one solve
  /// across; 0 = hardware concurrency. The portfolio fills this with its
  /// whole core budget so a parallel solver gets the machine, not one
  /// racing slot.
  std::size_t threads = 0;
  /// Byte cap on a solver's dominant search structure (the exact searches'
  /// closed tables; hda-astar splits it across shards); 0 = unlimited. The
  /// informed searches spill cold closed entries to disk when they hit it
  /// (see max_disk_bytes and the `spill` option); with spilling off,
  /// exceeding it ends the solve as BudgetExhausted with partial stats —
  /// never an OOM kill. CLI: --budget-memory.
  std::size_t max_memory_bytes = 0;
  /// Byte cap on the disk spill runs backing a memory-budgeted exact
  /// search (hda-astar splits it across shards); 0 = unlimited. Exceeding
  /// it ends the solve as BudgetExhausted. CLI: --budget-disk.
  std::size_t max_disk_bytes = 0;
  /// Wall-clock deadline; unset = none.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  /// External cancellation flag (not owned); set to true to abandon the
  /// solve at the next checkpoint. Used by the portfolio's early exit.
  const std::atomic<bool>* cancel = nullptr;

  /// Convenience: set the deadline `ms` milliseconds from now.
  SolveBudget& with_wall_clock_ms(std::int64_t ms);

  bool cancelled() const {
    return cancel != nullptr && cancel->load(std::memory_order_relaxed);
  }
  bool past_deadline() const {
    return deadline.has_value() && std::chrono::steady_clock::now() >= *deadline;
  }
  /// True once any budget dimension other than counters has tripped.
  bool interrupted() const { return cancelled() || past_deadline(); }
};

/// String-keyed solver options (from the CLI's --opt k=v). Every solver
/// declares the keys it reads (Solver::option_keys) and run() rejects
/// anything else, so a typo like rulee=lru fails loudly instead of silently
/// running defaults. One option set can still serve a whole portfolio:
/// solve_portfolio narrows it per solver via Solver::supported_options.
using SolverOptions = std::map<std::string, std::string, std::less<>>;

/// Everything a solver may look at. `engine` is required; `groups` and
/// `chain` are optional structured views some solvers need (a solver
/// requiring one declares itself inapplicable when it is absent). All
/// pointees must outlive the request.
struct SolveRequest {
  const Engine* engine = nullptr;
  const GroupDagInstance* groups = nullptr;
  const TradeoffChain* chain = nullptr;
  SolverOptions options;
  SolveBudget budget;
  /// Optional progress sampler (obs/introspect.hpp). The informed searches
  /// (exact-astar, hda-astar, anytime-astar) poll it at their 1024-expansion
  /// checkpoints; other solvers ignore it. Non-owning; must outlive the
  /// solve. Null (the default) keeps every solver byte-identical to an
  /// un-instrumented run.
  obs::SearchProgressSampler* progress = nullptr;
};

/// A machine-checkable suboptimality guarantee attached to a solve: the
/// trace's verified cost is within (1+epsilon) of the optimum, witnessed by
/// an admissible lower bound. The defining inequality
///
///     cost ≤ (1 + epsilon) · lower_bound
///
/// holds by construction (epsilon = (cost − lower_bound)/lower_bound, all
/// exact rationals) and is what every downstream audit re-checks — the serve
/// layer's trace cache refuses entries that fail it. epsilon == 0 means the
/// trace is proven optimal. Produced by the anytime tier
/// (solvers/anytime_astar.hpp); the portfolio carries it through verbatim.
struct SolveCertificate {
  Rational lower_bound;  ///< Proved admissible lower bound on the optimum.
  Rational cost;         ///< The trace's verified cost (equals SolveResult::cost).
  Rational epsilon;      ///< (cost − lower_bound) / lower_bound.
};

/// The certificate audit every downstream consumer runs: the recorded cost
/// must match the independently audited replay cost, and the defining
/// inequality cost ≤ (1+epsilon)·lower_bound must hold in exact rational
/// arithmetic. A certificate failing this is corrupt or miscomputed and
/// must not be served.
bool certificate_holds(const SolveCertificate& certificate,
                       const Rational& audited_cost);

/// Outcome of one solver run. The trace, when present, has been replayed
/// through the Verifier by the API layer; `cost` is the audited total.
struct SolveResult {
  std::string solver;
  SolveStatus status = SolveStatus::Inapplicable;
  std::optional<Trace> trace;
  Rational cost;  ///< Verified model cost of *trace; meaningless without one.
  /// Suboptimality guarantee, when the solver proves one (anytime-astar;
  /// portfolio when an anytime member wins). Absent for plain heuristics
  /// and for exact solves, whose Optimal status already says epsilon = 0.
  std::optional<SolveCertificate> certificate;
  std::map<std::string, std::string> stats;
  std::chrono::microseconds elapsed{0};
  std::string detail;  ///< Why inapplicable / which budget tripped.

  bool ok() const {
    return status == SolveStatus::Optimal || status == SolveStatus::Heuristic;
  }
  bool has_trace() const { return trace.has_value(); }
};

/// A named pebbling strategy. Implementations adapt the existing free
/// functions (greedy, exact, …); new solvers subclass this directly.
class Solver {
 public:
  virtual ~Solver() = default;

  virtual std::string_view name() const = 0;
  virtual std::string_view description() const = 0;

  /// The option keys this solver reads from SolveRequest.options. run()
  /// throws PreconditionError (naming this list) for any key outside it.
  /// Delegating solvers (peephole) accept different keys depending on which
  /// inner solver the request selects, hence the optional request context;
  /// plain solvers ignore it.
  virtual std::vector<std::string_view> option_keys(
      const SolveRequest* request = nullptr) const;

  /// The subset of `options` this solver accepts — what the portfolio and
  /// delegating solvers (peephole) forward from a shared option set.
  SolverOptions supported_options(const SolverOptions& options,
                                  const SolveRequest* request = nullptr) const;

  /// nullopt when the solver can run on `request`; otherwise a
  /// human-readable reason (missing group structure, too many nodes, …).
  virtual std::optional<std::string> why_inapplicable(
      const SolveRequest& request) const;

  bool applicable(const SolveRequest& request) const {
    return !why_inapplicable(request).has_value();
  }

  /// Run on `request`: applicability check, timing, dispatch, verification.
  /// Budget overruns come back as BudgetExhausted, never as exceptions.
  SolveResult run(const SolveRequest& request) const;

 protected:
  /// The strategy itself; called only on applicable requests. Implementations
  /// return their trace via make_result()/fail() so verification and
  /// convention bridging stay centralized in the API layer.
  virtual SolveResult do_solve(const SolveRequest& request) const = 0;

  /// Verify `trace` under the request's engine and wrap it up. When the
  /// engine uses a non-default PebblingConvention and the solver works in
  /// default-convention terms (`bridge_conventions` true), the trace is
  /// first rewritten via the Appendix C transforms; a trace the bridge
  /// cannot fix comes back Inapplicable rather than throwing.
  SolveResult make_result(const SolveRequest& request, Trace trace,
                          SolveStatus status,
                          std::map<std::string, std::string> stats = {},
                          bool bridge_conventions = true) const;

  /// A traceless result (Inapplicable or BudgetExhausted).
  SolveResult fail(SolveStatus status, std::string detail) const;

 private:
  /// Throws PreconditionError when the request holds an option key outside
  /// option_keys(&request), listing the accepted keys.
  void validate_options(const SolveRequest& request) const;
};

/// Name-indexed solver collection. Holds and owns one instance per solver;
/// iteration order is registration order, which is stable for display.
class SolverRegistry {
 public:
  SolverRegistry() = default;
  SolverRegistry(const SolverRegistry&) = delete;
  SolverRegistry& operator=(const SolverRegistry&) = delete;

  /// Register a solver. Throws PreconditionError on a duplicate name.
  void add(std::unique_ptr<Solver> solver);

  /// nullptr when no solver has that name.
  const Solver* find(std::string_view name) const;

  /// Like find but throws PreconditionError listing the known names.
  const Solver& at(std::string_view name) const;

  std::vector<std::string> names() const;
  std::vector<const Solver*> solvers() const;
  std::size_t size() const { return solvers_.size(); }

  /// The process-wide registry, with all built-in solvers registered.
  static const SolverRegistry& instance();

 private:
  std::vector<std::unique_ptr<Solver>> solvers_;
};

/// Register every built-in adapter (greedy ×3 rules, topo, exact,
/// exact-astar, hda-astar, anytime-astar, peephole, held-karp, chain,
/// group-greedy, local-search, exhaustive-order) into `registry`. Called
/// once by SolverRegistry::instance(); exposed so tests can build private
/// registries.
void register_builtin_solvers(SolverRegistry& registry);

/// Canonical serialization of an option set: "k=v" pairs, sorted by key,
/// joined with an unprintable separator (0x1f) no CLI-supplied key or value
/// can contain a collision-free stand-in for. Two option sets serialize
/// equal iff they are equal — the stable option fingerprint the serve
/// layer's trace cache hashes into its request key.
std::string canonical_option_string(const SolverOptions& options);

/// Option-parsing helpers shared by the adapters and the CLI. All throw
/// PreconditionError with the offending key and value on malformed input.
namespace solver_options {

std::optional<std::string_view> get(const SolverOptions& options,
                                    std::string_view key);
std::size_t get_size(const SolverOptions& options, std::string_view key,
                     std::size_t fallback);
std::uint64_t get_u64(const SolverOptions& options, std::string_view key,
                      std::uint64_t fallback);
double get_double(const SolverOptions& options, std::string_view key,
                  double fallback);
/// Parse a model name via Model::from_name; throws on unknown names.
Model get_model(const SolverOptions& options, std::string_view key,
                const Model& fallback);
/// Parse a model name directly (CLI --model); throws on unknown names.
Model parse_model(std::string_view name);

}  // namespace solver_options

}  // namespace rbpeb
