#include "src/solvers/api.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "src/gadgets/transforms.hpp"
#include "src/obs/metrics.hpp"
#include "src/pebble/bounds.hpp"
#include "src/obs/trace.hpp"
#include "src/pebble/verifier.hpp"
#include "src/solvers/anytime_astar.hpp"
#include "src/solvers/bigstate/pdb.hpp"
#include "src/solvers/chain_solver.hpp"
#include "src/solvers/exact.hpp"
#include "src/solvers/exact_astar.hpp"
#include "src/solvers/greedy.hpp"
#include "src/solvers/hda/hda_astar.hpp"
#include "src/solvers/held_karp.hpp"
#include "src/solvers/local_search.hpp"
#include "src/solvers/peephole.hpp"
#include "src/solvers/topo_baseline.hpp"
#include "src/support/check.hpp"

namespace rbpeb {

const char* to_string(SolveStatus status) {
  switch (status) {
    case SolveStatus::Optimal: return "optimal";
    case SolveStatus::Heuristic: return "heuristic";
    case SolveStatus::BudgetExhausted: return "budget-exhausted";
    case SolveStatus::Inapplicable: return "inapplicable";
  }
  return "?";
}

SolveBudget& SolveBudget::with_wall_clock_ms(std::int64_t ms) {
  deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
  return *this;
}

bool certificate_holds(const SolveCertificate& certificate,
                       const Rational& audited_cost) {
  return certificate.cost == audited_cost &&
         audited_cost <=
             (Rational(1) + certificate.epsilon) * certificate.lower_bound;
}

// ---- option helpers ------------------------------------------------------

namespace solver_options {

std::optional<std::string_view> get(const SolverOptions& options,
                                    std::string_view key) {
  auto it = options.find(key);
  if (it == options.end()) return std::nullopt;
  return std::string_view(it->second);
}

namespace {

[[noreturn]] void bad_option(std::string_view key, std::string_view value,
                             std::string_view expected) {
  std::ostringstream os;
  os << "option '" << key << "': cannot parse '" << value << "' as "
     << expected;
  throw PreconditionError(os.str());
}

template <typename T>
T parse_number(std::string_view key, std::string_view value,
               std::string_view expected) {
  T out{};
  auto [ptr, ec] = std::from_chars(value.data(), value.data() + value.size(), out);
  if (ec != std::errc() || ptr != value.data() + value.size()) {
    bad_option(key, value, expected);
  }
  return out;
}

}  // namespace

std::size_t get_size(const SolverOptions& options, std::string_view key,
                     std::size_t fallback) {
  auto value = get(options, key);
  if (!value) return fallback;
  return parse_number<std::size_t>(key, *value, "a non-negative integer");
}

std::uint64_t get_u64(const SolverOptions& options, std::string_view key,
                      std::uint64_t fallback) {
  auto value = get(options, key);
  if (!value) return fallback;
  return parse_number<std::uint64_t>(key, *value, "a non-negative integer");
}

double get_double(const SolverOptions& options, std::string_view key,
                  double fallback) {
  auto value = get(options, key);
  if (!value) return fallback;
  return parse_number<double>(key, *value, "a number");
}

bool get_bool(const SolverOptions& options, std::string_view key,
              bool fallback) {
  auto value = get(options, key);
  if (!value) return fallback;
  if (*value == "1" || *value == "true" || *value == "yes" || *value == "on") {
    return true;
  }
  if (*value == "0" || *value == "false" || *value == "no" || *value == "off") {
    return false;
  }
  bad_option(key, *value, "a boolean");
}

Model parse_model(std::string_view name) {
  std::optional<Model> model = Model::from_name(name);
  if (!model) {
    std::ostringstream os;
    os << "unknown model '" << name << "'; known models:";
    for (const Model& m : all_models()) os << ' ' << m.name();
    throw PreconditionError(os.str());
  }
  return *model;
}

Model get_model(const SolverOptions& options, std::string_view key,
                const Model& fallback) {
  auto value = get(options, key);
  if (!value) return fallback;
  return parse_model(*value);
}

}  // namespace solver_options

// ---- Solver base ---------------------------------------------------------

namespace {

/// The same rules with the paper's default start/finish convention; the view
/// convention-naive strategies solve under before their trace is bridged.
Engine default_convention_view(const Engine& engine) {
  return Engine(engine.dag(), engine.model(), engine.red_limit());
}

bool nondefault_convention(const Engine& engine) {
  return engine.convention().sources_start_blue ||
         engine.convention().sinks_end_blue;
}

void fill_audit_stats(std::map<std::string, std::string>& stats,
                      const VerifyResult& vr) {
  stats["loads"] = std::to_string(vr.cost.loads);
  stats["stores"] = std::to_string(vr.cost.stores);
  stats["computes"] = std::to_string(vr.cost.computes);
  stats["deletes"] = std::to_string(vr.cost.deletes);
  stats["transfers"] = std::to_string(vr.cost.transfers());
  stats["moves"] = std::to_string(vr.length);
  stats["peak_red"] = std::to_string(vr.max_red);
}

}  // namespace

std::optional<std::string> Solver::why_inapplicable(
    const SolveRequest& request) const {
  (void)request;
  return std::nullopt;
}

std::vector<std::string_view> Solver::option_keys(
    const SolveRequest* request) const {
  (void)request;
  return {};
}

SolverOptions Solver::supported_options(const SolverOptions& options,
                                        const SolveRequest* request) const {
  const std::vector<std::string_view> keys = option_keys(request);
  SolverOptions narrowed;
  for (const auto& [key, value] : options) {
    if (std::find(keys.begin(), keys.end(), key) != keys.end()) {
      narrowed.emplace(key, value);
    }
  }
  return narrowed;
}

void Solver::validate_options(const SolveRequest& request) const {
  const std::vector<std::string_view> keys = option_keys(&request);
  for (const auto& [key, value] : request.options) {
    if (std::find(keys.begin(), keys.end(), key) != keys.end()) continue;
    std::ostringstream os;
    os << "solver '" << name() << "' does not accept option '" << key << "'";
    if (keys.empty()) {
      os << "; it takes no options";
    } else {
      os << "; accepted keys:";
      for (std::string_view k : keys) os << ' ' << k;
    }
    throw PreconditionError(os.str());
  }
}

SolveResult Solver::run(const SolveRequest& request) const {
  RBPEB_REQUIRE(request.engine != nullptr, "SolveRequest.engine is required");
  validate_options(request);
  // Span names must outlive the trace buffers; adapter names are
  // runtime strings, so intern them (only when tracing is live — the
  // disabled path stays one relaxed load).
  const obs::TraceSpan span(
      obs::trace_enabled()
          ? obs::intern(std::string("solve.") + std::string(name()))
          : nullptr,
      "nodes", request.engine->dag().node_count());
  auto& registry = obs::MetricsRegistry::instance();
  registry.counter("solve.runs").add();
  const auto start = std::chrono::steady_clock::now();
  SolveResult result;
  if (auto reason = why_inapplicable(request)) {
    result = fail(SolveStatus::Inapplicable, *reason);
  } else if (request.budget.interrupted()) {
    result = fail(SolveStatus::BudgetExhausted,
                  "budget interrupted before the solve started");
  } else {
    result = do_solve(request);
  }
  result.solver = std::string(name());
  result.elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - start);
  registry
      .counter(std::string("solve.status.") +
               std::string(to_string(result.status)))
      .add();
  registry.histogram("solve.elapsed_us")
      .record(static_cast<std::uint64_t>(result.elapsed.count()));
  return result;
}

SolveResult Solver::make_result(const SolveRequest& request, Trace trace,
                                SolveStatus status,
                                std::map<std::string, std::string> stats,
                                bool bridge_conventions) const {
  const Engine& engine = *request.engine;
  SolveResult result;
  result.status = status;
  result.stats = std::move(stats);
  if (bridge_conventions && nondefault_convention(engine)) {
    // The strategy solved the default-convention game; rewrite its trace for
    // the requested convention (Appendix C) and re-audit under the strict
    // rules. Optimality claims do not survive the bridge.
    Engine relaxed = default_convention_view(engine);
    if (engine.convention().sinks_end_blue) {
      trace = finish_sinks_blue(relaxed, trace);
    }
    if (engine.convention().sources_start_blue) {
      trace = load_blue_sources(engine.dag(), trace);
    }
    VerifyResult vr = verify(engine, trace);
    if (!vr.ok()) {
      return fail(SolveStatus::Inapplicable,
                  "strategy does not support the requested pebbling "
                  "convention: " + (vr.legal ? "incomplete pebbling" : vr.error));
    }
    if (result.status == SolveStatus::Optimal) {
      result.status = SolveStatus::Heuristic;
    }
    result.cost = vr.total;
    fill_audit_stats(result.stats, vr);
  } else {
    VerifyResult vr = verify_or_throw(engine, trace);
    result.cost = vr.total;
    fill_audit_stats(result.stats, vr);
  }
  result.trace = std::move(trace);
  return result;
}

SolveResult Solver::fail(SolveStatus status, std::string detail) const {
  SolveResult result;
  result.status = status;
  result.detail = std::move(detail);
  return result;
}

// ---- adapters ------------------------------------------------------------

namespace {

namespace so = solver_options;

GreedyRule parse_rule(std::string_view name) {
  auto rule = greedy_rule_from_name(name);
  if (!rule) {
    throw PreconditionError("option 'rule': unknown greedy rule '" +
                            std::string(name) +
                            "' (most-red-inputs, fewest-blue-inputs, "
                            "red-ratio)");
  }
  return *rule;
}

EvictionRule parse_eviction(std::string_view name) {
  auto rule = eviction_rule_from_name(name);
  if (!rule) {
    throw PreconditionError("option 'eviction': unknown eviction rule '" +
                            std::string(name) +
                            "' (lru, fewest-uses, random)");
  }
  return *rule;
}

/// The Section 8 node-level greedy; one registration per choice rule, with
/// the plain "greedy" entry accepting a rule=… option.
class GreedySolver final : public Solver {
 public:
  GreedySolver(std::string name, std::string description,
               std::optional<GreedyRule> fixed_rule)
      : name_(std::move(name)),
        description_(std::move(description)),
        fixed_rule_(fixed_rule) {}

  std::string_view name() const override { return name_; }
  std::string_view description() const override { return description_; }

  std::vector<std::string_view> option_keys(
      const SolveRequest* request) const override {
    (void)request;
    if (fixed_rule_) return {"eviction", "eager-delete", "seed"};
    return {"rule", "eviction", "eager-delete", "seed"};
  }

 protected:
  SolveResult do_solve(const SolveRequest& request) const override {
    GreedyOptions options;
    if (fixed_rule_) {
      options.rule = *fixed_rule_;
    } else if (auto rule = so::get(request.options, "rule")) {
      options.rule = parse_rule(*rule);
    }
    if (auto ev = so::get(request.options, "eviction")) {
      options.eviction = parse_eviction(*ev);
    }
    options.eager_delete_dead =
        so::get_bool(request.options, "eager-delete", options.eager_delete_dead);
    options.seed = so::get_u64(request.options, "seed", options.seed);

    Engine relaxed = default_convention_view(*request.engine);
    Trace trace = solve_greedy(relaxed, options);
    return make_result(request, std::move(trace), SolveStatus::Heuristic,
                       {{"rule", to_string(options.rule)},
                        {"eviction", to_string(options.eviction)}});
  }

 private:
  std::string name_;
  std::string description_;
  std::optional<GreedyRule> fixed_rule_;
};

/// The node greedy wrapped with the O(1) whole-instance admissible bound
/// (pebble/bounds.hpp): a size-independent certified tier. The exact and
/// anytime searches stop at 1024 nodes; this adapter attaches a
/// machine-checkable SolveCertificate to a greedy trace at *any* size —
/// absent in the models whose whole-instance bound is 0 (base, oneshot),
/// and sharp enough to prove optimality outright when the trace meets the
/// bound. This is what lets the corpus gate demand a certified or proven
/// answer on 10⁵-node file instances.
class CertifiedGreedySolver final : public Solver {
 public:
  std::string_view name() const override { return "certified-greedy"; }
  std::string_view description() const override {
    return "node greedy + whole-instance admissible bound: certificate at "
           "any instance size (opt rule=…, eviction=…, seed=N)";
  }

  std::vector<std::string_view> option_keys(
      const SolveRequest* request) const override {
    (void)request;
    return {"rule", "eviction", "eager-delete", "seed"};
  }

 protected:
  SolveResult do_solve(const SolveRequest& request) const override {
    GreedyOptions options;
    if (auto rule = so::get(request.options, "rule")) {
      options.rule = parse_rule(*rule);
    }
    if (auto ev = so::get(request.options, "eviction")) {
      options.eviction = parse_eviction(*ev);
    }
    options.eager_delete_dead = so::get_bool(request.options, "eager-delete",
                                             options.eager_delete_dead);
    options.seed = so::get_u64(request.options, "seed", options.seed);

    Engine relaxed = default_convention_view(*request.engine);
    Trace trace = solve_greedy(relaxed, options);
    SolveResult result =
        make_result(request, std::move(trace), SolveStatus::Heuristic,
                    {{"rule", to_string(options.rule)},
                     {"eviction", to_string(options.eviction)}});
    if (!result.ok() || !result.has_trace()) return result;

    const Engine& engine = *request.engine;
    const Rational bound =
        cost_lower_bound(engine.dag(), engine.model(), engine.red_limit());
    result.stats["lower_bound"] = bound.str();
    if (result.cost == bound) {
      result.status = SolveStatus::Optimal;
      result.certificate =
          SolveCertificate{bound, result.cost, Rational(0, 1)};
    } else if (Rational(0, 1) < bound) {
      // ε = (cost − bound) / bound, exactly; certificate_holds re-checks
      // the defining inequality downstream.
      const Rational gap = result.cost - bound;
      result.certificate = SolveCertificate{
          bound, result.cost,
          Rational(gap.num() * bound.den(), gap.den() * bound.num())};
    }
    return result;
  }
};

/// The Section 3 fixed-topological-order baseline.
class TopoSolver final : public Solver {
 public:
  std::string_view name() const override { return "topo"; }
  std::string_view description() const override {
    return "topological-order baseline with lazy eviction ((2Δ+1)·n bound)";
  }

  std::vector<std::string_view> option_keys(
      const SolveRequest* request) const override {
    (void)request;
    return {"eviction", "eager-delete", "seed"};
  }

 protected:
  SolveResult do_solve(const SolveRequest& request) const override {
    OrderedOptions options;
    if (auto ev = so::get(request.options, "eviction")) {
      options.eviction = parse_eviction(*ev);
    }
    options.eager_delete_dead =
        so::get_bool(request.options, "eager-delete", options.eager_delete_dead);
    options.seed = so::get_u64(request.options, "seed", options.seed);

    Engine relaxed = default_convention_view(*request.engine);
    Trace trace = solve_topo_baseline(relaxed, options);
    return make_result(request, std::move(trace), SolveStatus::Heuristic,
                       {{"eviction", to_string(options.eviction)}});
  }
};

// ---- shared option plumbing of the informed searches ---------------------
// Free helpers rather than ExactSearchSolver members so the anytime adapter
// below — which shares every option but none of the do_solve flow — can use
// them too.

/// --opt spill=auto|off|/path: auto spills to a fresh temp directory
/// whenever a memory budget is set, off restores the hard-stop budget
/// semantics, a directory path spills under it. The path form must
/// contain a '/' so typos (spill=on, spill=Auto) fail loudly instead of
/// silently creating a relative spill directory.
void parse_spill_option(const SolverOptions& options,
                        ExactSearchOptions& sopt) {
  const auto value = so::get(options, "spill");
  if (!value || *value == "auto") {
    sopt.spill = SpillMode::Auto;
  } else if (*value == "off") {
    sopt.spill = SpillMode::Off;
  } else if (value->find('/') != std::string_view::npos) {
    sopt.spill = SpillMode::Path;
    sopt.spill_path = std::string(*value);
  } else {
    throw PreconditionError(
        "option 'spill': expected auto, off, or a directory path "
        "(containing '/'); got '" +
        std::string(*value) + "'");
  }
}

PdbMode parse_pdb_mode(const SolverOptions& options) {
  const auto value = so::get(options, "pdb");
  if (!value || *value == "auto") return PdbMode::Auto;
  if (*value == "on") return PdbMode::On;
  if (*value == "off") return PdbMode::Off;
  throw PreconditionError("option 'pdb': expected auto, on, or off; got '" +
                          std::string(*value) + "'");
}

PdbPartition parse_pdb_partition(const SolverOptions& options) {
  const auto value = so::get(options, "pdb-partition");
  if (!value || *value == "cone") return PdbPartition::Cone;
  if (*value == "mincut") return PdbPartition::MinCut;
  throw PreconditionError(
      "option 'pdb-partition': expected cone or mincut; got '" +
      std::string(*value) + "'");
}

/// Whether to run a heuristic upfront and seed the incumbent: explicit
/// incumbent=greedy always, incumbent=auto (the default) exactly past the
/// fixed-width cap — where speculative expansion hurts most and where
/// smaller instances must keep their expansion counts bit-for-bit.
bool want_incumbent_seed(const SolveRequest& request) {
  const auto value = so::get(request.options, "incumbent");
  const std::string_view mode = value.value_or("auto");
  if (mode == "greedy") return true;
  if (mode == "none") return false;
  if (mode != "auto") {
    throw PreconditionError(
        "option 'incumbent': expected auto, greedy, or none; got '" +
        std::string(mode) + "'");
  }
  return request.engine->dag().node_count() > kExactAstarFixedMaxNodes;
}

/// Run the plain greedy solver on the same request (verified and bridged
/// to the requested convention by its own adapter) and turn its trace
/// into an incumbent seed. nullopt when greedy produces no usable trace.
std::optional<IncumbentSeed> greedy_incumbent_seed(
    const SolveRequest& request) {
  const GreedySolver greedy("greedy", "incumbent seeder", std::nullopt);
  SolveRequest seed_request;
  seed_request.engine = request.engine;
  seed_request.budget = request.budget;  // honors deadline / cancellation
  SolveResult heuristic;
  try {
    heuristic = greedy.run(seed_request);
  } catch (const std::exception&) {
    return std::nullopt;  // a failed seeder must not fail the search
  }
  if (!heuristic.has_trace()) return std::nullopt;
  const Rational cost = heuristic.cost;
  const std::int64_t eps_den = request.engine->model().epsilon().den();
  // Verified totals are integer multiples of 1/ε.den(), so the scaled
  // form is exact.
  RBPEB_ENSURE(eps_den % cost.den() == 0,
               "verified cost is not a multiple of 1/eps.den()");
  IncumbentSeed seed;
  seed.trace = std::move(*heuristic.trace);
  seed.g_scaled = cost.num() * (eps_den / cost.den());
  return seed;
}

/// The options every informed search reads: state budget, and — for the
/// bigstate searches — memory/disk budgets, spilling, pattern databases,
/// and incumbent seeding.
ExactSearchOptions parse_exact_search_options(const SolveRequest& request,
                                              bool bigstate) {
  const SolveBudget budget = request.budget;
  ExactSearchOptions sopt;
  sopt.max_states =
      so::get_size(request.options, "max-states", budget.max_states);
  sopt.should_stop = [budget] { return budget.interrupted(); };
  sopt.progress = request.progress;
  if (!bigstate) return sopt;
  sopt.max_memory_bytes = budget.max_memory_bytes;
  sopt.max_disk_bytes = budget.max_disk_bytes;
  parse_spill_option(request.options, sopt);
  sopt.pdb = parse_pdb_mode(request.options);
  sopt.pdb_pattern_size = so::get_size(request.options, "pdb-pattern", 0);
  if (sopt.pdb_pattern_size > PatternDatabase::kMaxHashedPatternSize) {
    throw PreconditionError(
        "option 'pdb-pattern': pattern width must be between 1 and " +
        std::to_string(PatternDatabase::kMaxHashedPatternSize) + "; got " +
        std::to_string(sopt.pdb_pattern_size));
  }
  sopt.pdb_partition = parse_pdb_partition(request.options);
  if (want_incumbent_seed(request)) {
    sopt.seed = greedy_incumbent_seed(request);
  }
  return sopt;
}

/// The single source of truth for which budget dimension actually ended a
/// BudgetExhausted solve. Stored in result.stats["limiting_resource"] at the
/// same site that builds the human-readable detail string, so the two agree
/// by construction — the post-mortem black box (obs/postmortem.hpp) copies
/// this verdict verbatim and tools/postmortem_check.py cross-checks it
/// against the CLI's stderr detail.
///
///   states          — the expansion budget (max_states) ran out
///   table-headroom  — the table's steady state fit the memory budget but
///                     the rehash transient (old+new slabs) did not
///   memory          — the memory budget tripped with spilling disabled
///   disk            — spilling was on but could not grow the runs (disk
///                     budget exhausted, or the filesystem refused writes)
///   deadline        — the wall clock or a cancellation ended the run
std::string limiting_resource_for(ExactTermination termination,
                                  const ExactSearchOptions& sopt,
                                  const ExactSearchStats& stats) {
  switch (termination) {
    case ExactTermination::StateBudget:
      return "states";
    case ExactTermination::MemoryBudget:
      if (stats.table_headroom_stop) return "table-headroom";
      if (sopt.spill == SpillMode::Off) return "memory";
      return "disk";
    default:
      return "deadline";
  }
}

/// Introspection stats every informed-search adapter reports the same way:
/// the always-counted pop/prune tallies, plus — only when a progress sampler
/// rode along — the per-expansion bound-source attribution and the observed
/// heuristic error along the returned trace.
void fill_introspection_stats(SolveResult& result,
                              const ExactSearchStats& search_stats,
                              bool attributed) {
  result.stats["dup_skipped"] = std::to_string(search_stats.dup_skipped);
  result.stats["dead_prunes"] = std::to_string(search_stats.dead_prunes);
  if (!attributed) return;
  result.stats["attr_counting"] = std::to_string(search_stats.attr_counting);
  result.stats["attr_pdb"] = std::to_string(search_stats.attr_pdb);
}

/// Replay the returned trace against the counting bounds and report how
/// tight they ran (obs::measure_heuristic_error). Only when a sampler is
/// attached — the replay is pure but costs a bound evaluation per move.
void fill_heuristic_error_stats(SolveResult& result, const Engine& engine) {
  if (!result.has_trace()) return;
  const obs::HeuristicErrorReport report =
      obs::measure_heuristic_error(engine, *result.trace);
  result.stats["h_error_max"] = std::to_string(report.max_error_scaled);
  result.stats["h_admissible"] = report.admissible ? "true" : "false";
  char tightness[32];
  std::snprintf(tightness, sizeof tightness, "%.4f", report.tightness);
  result.stats["h_tightness"] = tightness;
}

/// Shared adapter for the exhaustive configuration-graph searches: budget
/// plumbing, partial stats on exhaustion, and drained-graph handling are
/// identical; only the search routine, node cap, and (for the parallel
/// search) thread use differ. The informed searches (bigstate() true)
/// additionally honor the memory budget, pattern-database options, and
/// greedy incumbent seeding.
class ExactSearchSolver : public Solver {
 public:
  std::vector<std::string_view> option_keys(
      const SolveRequest* request) const override {
    (void)request;
    if (!bigstate()) return {"max-states"};
    return {"max-states", "pdb", "pdb-pattern", "pdb-partition", "incumbent",
            "spill"};
  }

  std::optional<std::string> why_inapplicable(
      const SolveRequest& request) const override {
    const std::size_t n = request.engine->dag().node_count();
    if (n > node_cap()) {
      return "DAG has " + std::to_string(n) + " nodes; " +
             std::string(name()) + " supports at most " +
             std::to_string(node_cap());
    }
    return std::nullopt;
  }

 protected:
  virtual std::size_t node_cap() const = 0;
  /// True for the informed searches that ride the bigstate subsystem
  /// (runtime-width states, PDB heuristics, memory-budgeted tables).
  virtual bool bigstate() const { return true; }
  virtual std::optional<ExactResult> search(const SolveRequest& request,
                                            const ExactSearchOptions& options,
                                            ExactSearchStats& stats) const = 0;

  SolveResult do_solve(const SolveRequest& request) const override {
    ExactSearchOptions sopt = parse_exact_search_options(request, bigstate());
    ExactSearchStats search_stats;
    auto solved = search(request, sopt, search_stats);
    const bool failed = !solved.has_value();
    auto fill_common_stats = [&](SolveResult& result) {
      result.stats["max_states"] = std::to_string(sopt.max_states);
      if (!bigstate()) return;
      result.stats["table_bytes"] = std::to_string(search_stats.table_bytes);
      result.stats["spilled_states"] =
          std::to_string(search_stats.spilled_states);
      result.stats["spill_bytes"] = std::to_string(search_stats.spill_bytes);
      result.stats["spill_peak_bytes"] =
          std::to_string(search_stats.spill_peak_bytes);
      result.stats["merge_passes"] = std::to_string(search_stats.merge_passes);
      if (search_stats.table_headroom_stop) {
        result.stats["table_headroom_stop"] = "true";
      }
      // On failure a seeded trace is what the caller gets back, so that is
      // its provenance; a failed search proved nothing.
      result.stats["incumbent_source"] =
          !sopt.seed ? "none"
                     : (search_stats.seed_won || failed ? "greedy" : "search");
      if (search_stats.threads_used != 0) {
        result.stats["threads_used"] =
            std::to_string(search_stats.threads_used);
      }
    };
    if (failed) {
      std::string detail;
      SolveStatus status = SolveStatus::BudgetExhausted;
      switch (search_stats.termination) {
        case ExactTermination::Exhausted:
          status = SolveStatus::Inapplicable;
          detail =
              "configuration graph exhausted without reaching a complete "
              "state; the instance admits no pebbling under these rules";
          break;
        case ExactTermination::StateBudget:
          detail = "state budget (" + std::to_string(sopt.max_states) +
                   ") exhausted before an optimum was proven";
          break;
        case ExactTermination::MemoryBudget:
          detail = "memory budget (" + std::to_string(sopt.max_memory_bytes) +
                   " bytes) exhausted before an optimum was proven";
          if (search_stats.table_headroom_stop) {
            // The table itself fit; the copy peak of its next doubling did
            // not. Without this line the stop is indistinguishable from a
            // genuinely too-small budget.
            detail +=
                "; stopped by the rehash transient: the grown table would "
                "fit the budget but old+new slabs during the copy do not "
                "(table_headroom_stop) — slightly more --budget-memory "
                "would let the search continue";
          }
          if (sopt.spill == SpillMode::Off) {
            detail += "; spilling to disk was disabled (spill=off)";
          } else if (sopt.max_disk_bytes != 0 &&
                     !search_stats.spill_io_error) {
            // With spilling on, this termination means the runs could not
            // grow either — the disk budget is what actually stopped it.
            detail += "; disk budget (" +
                      std::to_string(sopt.max_disk_bytes) +
                      " bytes) blocked further spilling (" +
                      std::to_string(search_stats.spilled_states) +
                      " states spilled)";
          } else {
            // Raising --budget-disk cannot fix this one: the filesystem
            // itself refused the write.
            detail += "; spilling to disk failed (disk full or I/O error; " +
                      std::to_string(search_stats.spilled_states) +
                      " states spilled)";
          }
          break;
        default:
          detail =
              "deadline or cancellation hit before an optimum was proven";
      }
      SolveResult result;
      if (sopt.seed && status == SolveStatus::BudgetExhausted) {
        // The verified seed trace is a legal complete pebbling — return it
        // as the best-so-far rather than discarding it (BudgetExhausted is
        // documented as "a best-so-far trace may exist").
        result = make_result(request, std::move(sopt.seed->trace), status, {},
                             /*bridge_conventions=*/false);
        result.detail = detail + "; returning the heuristic incumbent seed";
      } else {
        result = fail(status, std::move(detail));
      }
      // Partial progress still gets reported: how far the search got is
      // exactly what a caller tuning budgets needs to see.
      result.stats["states_expanded"] =
          std::to_string(search_stats.states_expanded);
      fill_common_stats(result);
      fill_introspection_stats(result, search_stats,
                               request.progress != nullptr);
      if (status == SolveStatus::BudgetExhausted) {
        result.stats["limiting_resource"] =
            limiting_resource_for(search_stats.termination, sopt, search_stats);
      }
      return result;
    }
    // The engine itself enforces the convention here — no bridging needed,
    // and the optimality claim stands for the exact rules requested.
    SolveResult result = make_result(
        request, std::move(solved->trace), SolveStatus::Optimal,
        {{"states_expanded", std::to_string(solved->states_expanded)}},
        /*bridge_conventions=*/false);
    fill_common_stats(result);
    fill_introspection_stats(result, search_stats, request.progress != nullptr);
    if (request.progress != nullptr) {
      fill_heuristic_error_stats(result, *request.engine);
    }
    return result;
  }
};

/// Dijkstra over game configurations: provably optimal, exponential.
class ExactSolver final : public ExactSearchSolver {
 public:
  std::string_view name() const override { return "exact"; }
  std::string_view description() const override {
    return "optimal pebbling via Dijkstra over configurations (≤ 21 nodes)";
  }

 protected:
  std::size_t node_cap() const override { return 21; }
  bool bigstate() const override { return false; }
  std::optional<ExactResult> search(const SolveRequest& request,
                                    const ExactSearchOptions& options,
                                    ExactSearchStats& stats) const override {
    return try_solve_exact(*request.engine, options.max_states,
                           options.should_stop, &stats);
  }
};

/// A* over packed configurations with the bounds.hpp admissible heuristic,
/// reinforced past 42 nodes by the bigstate subsystem (runtime-width
/// states, pattern databases, memory-budgeted tables, incumbent seeding).
class ExactAstarSolver final : public ExactSearchSolver {
 public:
  std::string_view name() const override { return "exact-astar"; }
  std::string_view description() const override {
    return "optimal pebbling via A* with admissible per-state bounds, "
           "pattern databases past 42 nodes, and a bucket queue (≤ 1024 "
           "nodes)";
  }

 protected:
  std::size_t node_cap() const override { return kExactAstarMaxNodes; }
  std::optional<ExactResult> search(const SolveRequest& request,
                                    const ExactSearchOptions& options,
                                    ExactSearchStats& stats) const override {
    return try_solve_exact_astar(*request.engine, options, &stats);
  }
};

/// Hash-distributed A* across worker threads — the same optimality proof as
/// exact-astar, pushed by every core the budget grants (budget.threads, or
/// the `threads` option; 0 = hardware concurrency).
class HdaAstarSolver final : public ExactSearchSolver {
 public:
  std::string_view name() const override { return "hda-astar"; }
  std::string_view description() const override {
    return "parallel optimal pebbling via hash-distributed A* over sharded "
           "closed tables (opt threads=N, ≤ 1024 nodes)";
  }

  std::vector<std::string_view> option_keys(
      const SolveRequest* request) const override {
    std::vector<std::string_view> keys =
        ExactSearchSolver::option_keys(request);
    keys.push_back("threads");
    return keys;
  }

 protected:
  std::size_t node_cap() const override { return kHdaAstarMaxNodes; }

  static std::size_t resolved_threads(const SolveRequest& request) {
    return hda_resolve_threads(
        so::get_size(request.options, "threads", request.budget.threads));
  }

  std::optional<ExactResult> search(const SolveRequest& request,
                                    const ExactSearchOptions& options,
                                    ExactSearchStats& stats) const override {
    return try_solve_hda_astar(*request.engine, resolved_threads(request),
                               options, &stats);
  }

  SolveResult do_solve(const SolveRequest& request) const override {
    SolveResult result = ExactSearchSolver::do_solve(request);
    result.stats["threads"] = std::to_string(resolved_threads(request));
    return result;
  }
};

/// --opt weights=3,2,3/2,1 — the anytime pass schedule as comma-separated
/// ratios ≥ 1, greediest first.
std::vector<AnytimeWeight> parse_weight_schedule(std::string_view text) {
  auto bad = [&](std::string_view token) -> PreconditionError {
    return PreconditionError(
        "option 'weights': expected comma-separated ratios >= 1 like "
        "3,2,3/2,1; got token '" +
        std::string(token) + "'");
  };
  auto parse_int = [&](std::string_view token,
                       std::string_view piece) -> std::int64_t {
    std::int64_t out = 0;
    auto [ptr, ec] =
        std::from_chars(piece.data(), piece.data() + piece.size(), out);
    if (ec != std::errc() || ptr != piece.data() + piece.size() || out <= 0) {
      throw bad(token);
    }
    return out;
  };
  std::vector<AnytimeWeight> weights;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t comma = text.find(',', pos);
    const std::string_view token =
        text.substr(pos, comma == std::string_view::npos ? std::string_view::npos
                                                         : comma - pos);
    AnytimeWeight w;
    const std::size_t slash = token.find('/');
    if (slash == std::string_view::npos) {
      w.num = parse_int(token, token);
    } else {
      w.num = parse_int(token, token.substr(0, slash));
      w.den = parse_int(token, token.substr(slash + 1));
    }
    if (w.num < w.den) throw bad(token);
    weights.push_back(w);
    if (comma == std::string_view::npos) break;
    pos = comma + 1;
  }
  if (weights.empty()) {
    throw PreconditionError("option 'weights': schedule must not be empty");
  }
  return weights;
}

/// The anytime tier: weighted-A* passes tightening a verified incumbent,
/// returned with a machine-checkable (1+ε) certificate. Soundness argument
/// in solvers/anytime_astar.hpp; shares every informed-search option.
class AnytimeSolver final : public Solver {
 public:
  std::string_view name() const override { return "anytime-astar"; }
  std::string_view description() const override {
    return "anytime weighted A*: best verified pebbling within budget plus "
           "a certificate cost ≤ (1+ε)·OPT (opt weights=…, epsilon=X, "
           "≤ 1024 nodes)";
  }

  std::vector<std::string_view> option_keys(
      const SolveRequest* request) const override {
    (void)request;
    return {"max-states", "pdb", "pdb-pattern", "pdb-partition", "incumbent",
            "spill", "weights", "epsilon"};
  }

  std::optional<std::string> why_inapplicable(
      const SolveRequest& request) const override {
    const std::size_t n = request.engine->dag().node_count();
    if (n > kExactAstarMaxNodes) {
      return "DAG has " + std::to_string(n) +
             " nodes; anytime-astar supports at most " +
             std::to_string(kExactAstarMaxNodes);
    }
    return std::nullopt;
  }

 protected:
  SolveResult do_solve(const SolveRequest& request) const override {
    ExactSearchOptions sopt =
        parse_exact_search_options(request, /*bigstate=*/true);
    // The anytime contract is "every instance gets an answer": unlike the
    // exact searches (which seed only past the fixed-width cap to keep
    // small-instance expansion counts bit-for-bit), incumbent=auto seeds at
    // every size here, so even a budget too small for any pass to complete
    // still returns the verified greedy trace with a certificate.
    if (!sopt.seed &&
        so::get(request.options, "incumbent").value_or("auto") == "auto") {
      sopt.seed = greedy_incumbent_seed(request);
    }
    AnytimeOptions aopt;
    aopt.target_epsilon = so::get_double(request.options, "epsilon", 0.0);
    if (aopt.target_epsilon < 0.0) {
      throw PreconditionError("option 'epsilon': must be nonnegative; got " +
                              std::to_string(aopt.target_epsilon));
    }
    if (auto schedule = so::get(request.options, "weights")) {
      aopt.weights = parse_weight_schedule(*schedule);
    }
    ExactSearchStats search_stats;
    auto solved =
        try_solve_anytime_astar(*request.engine, sopt, aopt, &search_stats);
    auto fill_common_stats = [&](SolveResult& result) {
      result.stats["max_states"] = std::to_string(sopt.max_states);
      result.stats["states_expanded"] =
          std::to_string(search_stats.states_expanded);
      result.stats["anytime_passes"] =
          std::to_string(search_stats.anytime_passes);
      result.stats["table_bytes"] = std::to_string(search_stats.table_bytes);
      result.stats["spilled_states"] =
          std::to_string(search_stats.spilled_states);
      result.stats["spill_bytes"] = std::to_string(search_stats.spill_bytes);
      result.stats["spill_peak_bytes"] =
          std::to_string(search_stats.spill_peak_bytes);
      result.stats["merge_passes"] =
          std::to_string(search_stats.merge_passes);
      if (search_stats.table_headroom_stop) {
        result.stats["table_headroom_stop"] = "true";
      }
    };
    if (!solved) {
      std::string detail;
      SolveStatus status = SolveStatus::BudgetExhausted;
      switch (search_stats.termination) {
        case ExactTermination::Exhausted:
          status = SolveStatus::Inapplicable;
          detail =
              "configuration graph exhausted without reaching a complete "
              "state; the instance admits no pebbling under these rules";
          break;
        case ExactTermination::StateBudget:
          detail = "state budget (" + std::to_string(sopt.max_states) +
                   ") exhausted before any pass found a completion";
          break;
        case ExactTermination::MemoryBudget:
          detail = "memory budget (" + std::to_string(sopt.max_memory_bytes) +
                   " bytes) exhausted before any pass found a completion";
          if (search_stats.table_headroom_stop) {
            detail +=
                "; stopped by the rehash transient: the grown table would "
                "fit the budget but old+new slabs during the copy do not "
                "(table_headroom_stop)";
          }
          break;
        default:
          detail = "deadline or cancellation hit before any pass found a "
                   "completion";
      }
      SolveResult result = fail(status, std::move(detail));
      if (search_stats.lower_bound_scaled >= 0) {
        // No trace to certify, but the lower bound the passes proved is
        // still true — report it for budget tuning.
        const std::int64_t eps_den = request.engine->model().epsilon().den();
        result.stats["lower_bound"] =
            Rational(search_stats.lower_bound_scaled, eps_den).str();
      }
      fill_common_stats(result);
      fill_introspection_stats(result, search_stats,
                               request.progress != nullptr);
      if (status == SolveStatus::BudgetExhausted) {
        result.stats["limiting_resource"] =
            limiting_resource_for(search_stats.termination, sopt, search_stats);
      }
      return result;
    }
    const bool optimal = solved->optimal;
    // The search enforced the engine's convention natively (and a seed trace
    // was bridged by the greedy adapter), so no bridging — and the Optimal
    // claim stands when the certificate's ε is zero.
    SolveResult result = make_result(
        request, std::move(solved->trace),
        optimal ? SolveStatus::Optimal : SolveStatus::Heuristic, {},
        /*bridge_conventions=*/false);
    // The certificate's incumbent is the scaled g the search proved bounds
    // on; the audited replay must price the trace identically.
    RBPEB_ENSURE(result.cost == solved->cost,
                 "anytime incumbent cost disagrees with the verified trace");
    if (solved->certified) {
      result.certificate =
          SolveCertificate{solved->lower_bound, result.cost, solved->epsilon};
      result.stats["lower_bound"] = solved->lower_bound.str();
      result.stats["epsilon"] = solved->epsilon.str();
      if (!optimal) {
        result.detail =
            "budget ended refinement; the trace is certified within (1+" +
            solved->epsilon.str() + ") of the optimum";
      }
    } else {
      result.stats["certified"] = "false";
      result.detail =
          "budget ended refinement before any nonzero lower bound was "
          "proved; the trace is verified but carries no guarantee";
    }
    result.stats["incumbent_source"] =
        search_stats.seed_won ? "greedy"
                              : (sopt.seed && search_stats.incumbent_scaled ==
                                                  sopt.seed->g_scaled
                                     ? "greedy"
                                     : "search");
    fill_common_stats(result);
    fill_introspection_stats(result, search_stats, request.progress != nullptr);
    // h-error is measured against the *optimal* remaining cost, so it is
    // only meaningful when the trace is proven optimal.
    if (request.progress != nullptr && optimal) {
      fill_heuristic_error_stats(result, *request.engine);
    }
    return result;
  }
};

/// Verification-guided post-optimizer over another registered solver.
class PeepholeSolver final : public Solver {
 public:
  explicit PeepholeSolver(const SolverRegistry& registry)
      : registry_(&registry) {}

  std::string_view name() const override { return "peephole"; }
  std::string_view description() const override {
    return "inner solver (opt inner=NAME, default greedy) plus "
           "verification-guided peephole cleanup";
  }

  std::vector<std::string_view> option_keys(
      const SolveRequest* request) const override {
    // Its own keys plus the inner solver's: options meant for the inner
    // solver arrive through the same set. With a request in hand the inner
    // solver is known, so only *its* keys pass — a key some third solver
    // would accept is as silently-ignored as a typo and fails the same way.
    // Without a request (a portfolio probing what could ever be routed),
    // every registered solver's keys count.
    std::vector<std::string_view> keys = {"inner", "max-passes"};
    auto add_keys_of = [&](const Solver* solver) {
      if (solver == nullptr || solver == this) return;
      for (std::string_view key : solver->option_keys()) {
        if (std::find(keys.begin(), keys.end(), key) == keys.end()) {
          keys.push_back(key);
        }
      }
    };
    if (request != nullptr) {
      const std::string inner(
          so::get(request->options, "inner").value_or("greedy"));
      add_keys_of(registry_->find(inner));  // unknown inner: why_inapplicable
    } else {
      for (const Solver* solver : registry_->solvers()) add_keys_of(solver);
    }
    return keys;
  }

  std::optional<std::string> why_inapplicable(
      const SolveRequest& request) const override {
    const std::string inner(
        so::get(request.options, "inner").value_or("greedy"));
    if (inner == name()) return "inner solver must not be peephole itself";
    const Solver* solver = registry_->find(inner);
    if (!solver) return "unknown inner solver '" + inner + "'";
    if (auto reason = solver->why_inapplicable(request)) {
      return "inner solver '" + inner + "' inapplicable: " + *reason;
    }
    return std::nullopt;
  }

 protected:
  SolveResult do_solve(const SolveRequest& request) const override {
    const std::string inner(
        so::get(request.options, "inner").value_or("greedy"));
    const Solver& inner_solver = registry_->at(inner);
    SolveRequest inner_request = request;
    inner_request.options = inner_solver.supported_options(request.options);
    SolveResult base = inner_solver.run(inner_request);
    // A BudgetExhausted inner run may still carry a verified best-so-far
    // trace (local-search does); optimize whatever trace exists.
    if (!base.has_trace()) {
      SolveResult result = fail(base.status, "inner solver '" + inner +
                                                "' failed: " + base.detail);
      result.stats["inner"] = inner;
      return result;
    }
    PeepholeStats stats;
    const std::size_t max_passes =
        so::get_size(request.options, "max-passes", 8);
    // The inner trace is already bridged to the request's convention, and
    // the optimizer re-verifies every candidate edit under the real engine.
    Trace optimized =
        peephole_optimize(*request.engine, *base.trace, &stats, max_passes);
    SolveResult result = make_result(
        request, std::move(optimized), base.status,
        {{"inner", inner},
         {"inner_cost", base.cost.str()},
         {"removed_moves", std::to_string(stats.removed_moves)},
         {"passes", std::to_string(stats.passes)},
         {"saved", stats.saved.str()}},
        /*bridge_conventions=*/false);
    result.detail = base.detail;
    return result;
  }

 private:
  const SolverRegistry* registry_;
};

std::optional<std::string> require_groups(const SolveRequest& request) {
  if (request.groups == nullptr) {
    return "requires the instance's input-group structure "
           "(SolveRequest.groups)";
  }
  if (request.groups->group_count() == 0) return "instance has no groups";
  return std::nullopt;
}

/// Held–Karp over group visit orders under the load-count adjacency metric
/// (exact for the Theorem 2 construction, a heuristic elsewhere).
class HeldKarpSolver final : public Solver {
 public:
  std::string_view name() const override { return "held-karp"; }
  std::string_view description() const override {
    return "Held–Karp minimum visit order under the group adjacency metric "
           "(≤ 20 groups)";
  }

  std::optional<std::string> why_inapplicable(
      const SolveRequest& request) const override {
    if (auto reason = require_groups(request)) return reason;
    if (request.groups->group_count() > 20) {
      return "instance has " + std::to_string(request.groups->group_count()) +
             " groups; Held–Karp supports at most 20";
    }
    return std::nullopt;
  }

 protected:
  SolveResult do_solve(const SolveRequest& request) const override {
    const GroupDagInstance& instance = *request.groups;
    const std::size_t m = instance.group_count();
    std::vector<std::unordered_set<NodeId>> members(m);
    for (std::size_t g = 0; g < m; ++g) {
      members[g].insert(instance.groups[g].members.begin(),
                        instance.groups[g].members.end());
    }
    // Moving from group `prev` to `next` costs one transfer per member that
    // was not already resident — the adjacency metric of the Theorem 2
    // reduction, applied as a general-purpose order heuristic.
    auto transition = [&](std::size_t prev, std::size_t next) -> std::int64_t {
      if (prev == kHeldKarpStart) {
        return static_cast<std::int64_t>(members[next].size());
      }
      std::int64_t fresh = 0;
      for (NodeId v : instance.groups[next].members) {
        if (!members[prev].contains(v)) ++fresh;
      }
      return fresh;
    };
    std::vector<std::uint32_t> dep_mask(m, 0);
    auto deps = group_dependencies(instance);
    for (std::size_t h = 0; h < m; ++h) {
      for (std::size_t g : deps[h]) {
        dep_mask[h] |= (std::uint32_t{1} << g);
      }
    }
    HeldKarpResult hk = held_karp_min_order(m, transition, dep_mask);
    if (!hk.feasible) {
      return fail(SolveStatus::Inapplicable, "group dependencies are cyclic");
    }
    Engine relaxed = default_convention_view(*request.engine);
    Trace trace = pebble_visit_order(relaxed, instance, hk.order);
    return make_result(request, std::move(trace), SolveStatus::Heuristic,
                       {{"order_metric_cost", std::to_string(hk.cost)}});
  }
};

/// The paper's constructive strategy for the Figure 3 tradeoff chain.
class ChainSolver final : public Solver {
 public:
  std::string_view name() const override { return "chain"; }
  std::string_view description() const override {
    return "constructive optimal strategy for the Figure 3 tradeoff chain";
  }

  std::optional<std::string> why_inapplicable(
      const SolveRequest& request) const override {
    if (request.chain == nullptr) {
      return "requires a TradeoffChain instance (SolveRequest.chain)";
    }
    return std::nullopt;
  }

 protected:
  SolveResult do_solve(const SolveRequest& request) const override {
    Engine relaxed = default_convention_view(*request.engine);
    Trace trace = solve_chain(relaxed, *request.chain);
    return make_result(request, std::move(trace), SolveStatus::Heuristic,
                       {{"strategy", "figure-3-constructive"}});
  }
};

/// The Section 8 greedy at group granularity.
class GroupGreedySolver final : public Solver {
 public:
  std::string_view name() const override { return "group-greedy"; }
  std::string_view description() const override {
    return "group-level greedy: visit the enabled group with the most red "
           "pebbles";
  }

  std::optional<std::string> why_inapplicable(
      const SolveRequest& request) const override {
    return require_groups(request);
  }

 protected:
  SolveResult do_solve(const SolveRequest& request) const override {
    Engine relaxed = default_convention_view(*request.engine);
    GroupSolveResult solved = solve_group_greedy(relaxed, *request.groups);
    return make_result(request, std::move(solved.trace),
                       SolveStatus::Heuristic,
                       {{"groups", std::to_string(solved.order.size())}});
  }
};

/// Simulated annealing over dependency-respecting visit orders.
class LocalSearchSolver final : public Solver {
 public:
  std::string_view name() const override { return "local-search"; }
  std::string_view description() const override {
    return "simulated annealing over group visit orders (opt iterations=N, "
           "seed=N, cooling=X)";
  }

  std::vector<std::string_view> option_keys(
      const SolveRequest* request) const override {
    (void)request;
    return {"iterations", "seed", "cooling", "initial-temperature"};
  }

  std::optional<std::string> why_inapplicable(
      const SolveRequest& request) const override {
    return require_groups(request);
  }

 protected:
  SolveResult do_solve(const SolveRequest& request) const override {
    LocalSearchOptions options;
    options.iterations = so::get_size(request.options, "iterations",
                                      request.budget.max_iterations);
    options.seed = so::get_u64(request.options, "seed", options.seed);
    options.cooling =
        so::get_double(request.options, "cooling", options.cooling);
    options.initial_temperature_fraction =
        so::get_double(request.options, "initial-temperature",
                       options.initial_temperature_fraction);
    const SolveBudget budget = request.budget;
    // Record whether the budget actually cut the anneal short: re-checking
    // interrupted() after the run would mislabel a completed anneal whose
    // deadline expires microseconds after the last iteration.
    auto stopped = std::make_shared<bool>(false);
    options.should_stop = [budget, stopped] {
      if (!budget.interrupted()) return false;
      *stopped = true;
      return true;
    };

    Engine relaxed = default_convention_view(*request.engine);
    GroupSolveResult solved =
        solve_order_local_search(relaxed, *request.groups, options);
    const bool interrupted = *stopped;
    SolveResult result = make_result(
        request, std::move(solved.trace),
        interrupted ? SolveStatus::BudgetExhausted : SolveStatus::Heuristic,
        {{"iterations", std::to_string(options.iterations)},
         {"seed", std::to_string(options.seed)}});
    if (interrupted && result.has_trace()) {
      result.detail = "deadline or cancellation hit mid-anneal; returning the "
                      "best order found so far";
    }
    return result;
  }
};

/// Exhaustive search over visit orders — optimal within the order family.
class ExhaustiveOrderSolver final : public Solver {
 public:
  std::string_view name() const override { return "exhaustive-order"; }
  std::string_view description() const override {
    return "exhaustive search over group visit orders (≤ 9 groups)";
  }

  std::optional<std::string> why_inapplicable(
      const SolveRequest& request) const override {
    if (auto reason = require_groups(request)) return reason;
    if (request.groups->group_count() > 9) {
      return "instance has " + std::to_string(request.groups->group_count()) +
             " groups; exhaustive order search supports at most 9";
    }
    return std::nullopt;
  }

 protected:
  SolveResult do_solve(const SolveRequest& request) const override {
    Engine relaxed = default_convention_view(*request.engine);
    GroupSolveResult solved =
        solve_exhaustive_order(relaxed, *request.groups);
    // Optimal among visit orders, which the paper shows is the right family
    // for its constructions — but not a global optimality proof, so the
    // status stays Heuristic and only `exact` may claim Optimal.
    return make_result(request, std::move(solved.trace),
                       SolveStatus::Heuristic,
                       {{"optimal_visit_order", "true"}});
  }
};

}  // namespace

// ---- registry ------------------------------------------------------------

void SolverRegistry::add(std::unique_ptr<Solver> solver) {
  RBPEB_REQUIRE(solver != nullptr, "cannot register a null solver");
  RBPEB_REQUIRE(find(solver->name()) == nullptr,
                "solver '" + std::string(solver->name()) +
                    "' is already registered");
  solvers_.push_back(std::move(solver));
}

const Solver* SolverRegistry::find(std::string_view name) const {
  for (const auto& solver : solvers_) {
    if (solver->name() == name) return solver.get();
  }
  return nullptr;
}

const Solver& SolverRegistry::at(std::string_view name) const {
  const Solver* solver = find(name);
  if (solver == nullptr) {
    std::ostringstream os;
    os << "unknown solver '" << name << "'; registered solvers:";
    for (const auto& s : solvers_) os << ' ' << s->name();
    throw PreconditionError(os.str());
  }
  return *solver;
}

std::vector<std::string> SolverRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(solvers_.size());
  for (const auto& solver : solvers_) out.emplace_back(solver->name());
  return out;
}

std::vector<const Solver*> SolverRegistry::solvers() const {
  std::vector<const Solver*> out;
  out.reserve(solvers_.size());
  for (const auto& solver : solvers_) out.push_back(solver.get());
  return out;
}

const SolverRegistry& SolverRegistry::instance() {
  static SolverRegistry* registry = [] {
    auto* r = new SolverRegistry();
    register_builtin_solvers(*r);
    return r;
  }();
  return *registry;
}

std::string canonical_option_string(const SolverOptions& options) {
  // SolverOptions is an ordered map, so iteration order IS key order; the
  // 0x1f separator cannot appear in CLI-supplied keys or values, so the
  // serialization is injective.
  std::string out;
  for (const auto& [key, value] : options) {
    if (!out.empty()) out.push_back('\x1f');
    out += key;
    out.push_back('=');
    out += value;
  }
  return out;
}

void register_builtin_solvers(SolverRegistry& registry) {
  registry.add(std::make_unique<GreedySolver>(
      "greedy",
      "Section 8 node greedy, most-red-inputs rule (opt rule=…, eviction=…, "
      "seed=N)",
      std::nullopt));
  registry.add(std::make_unique<GreedySolver>(
      "greedy-fewest-blue",
      "Section 8 node greedy, fewest-blue-inputs rule",
      GreedyRule::FewestBlueInputs));
  registry.add(std::make_unique<GreedySolver>(
      "greedy-red-ratio", "Section 8 node greedy, red-ratio rule",
      GreedyRule::RedRatio));
  registry.add(std::make_unique<CertifiedGreedySolver>());
  registry.add(std::make_unique<TopoSolver>());
  registry.add(std::make_unique<ExactSolver>());
  registry.add(std::make_unique<ExactAstarSolver>());
  registry.add(std::make_unique<HdaAstarSolver>());
  registry.add(std::make_unique<AnytimeSolver>());
  registry.add(std::make_unique<PeepholeSolver>(registry));
  registry.add(std::make_unique<HeldKarpSolver>());
  registry.add(std::make_unique<ChainSolver>());
  registry.add(std::make_unique<GroupGreedySolver>());
  registry.add(std::make_unique<LocalSearchSolver>());
  registry.add(std::make_unique<ExhaustiveOrderSolver>());
}

}  // namespace rbpeb
