// The two solve workloads: `exact` (sequential exact-astar proving optima
// on ≤42-node instances, all four models) and `anytime` (anytime-astar
// under fixed state budgets on 96–256-node layered DAGs plus one small case
// it proves optimal).
//
// One op is one solve. A pass runs every case of the workload once, in an
// order drawn from the seed; the run repeats passes for the requested
// seconds and reports medians. The instances are pinned, because the
// outputs are checked against pinned optima: the seed orders the cases and
// samples the probe states. Every output is checked — exact costs against
// their pinned optimum, every trace through the Verifier, every anytime
// certificate through certificate_holds, and every anytime answer against
// the run's first pass (the budget is in states, so the answer is
// deterministic).
//
// A third workload ran hda-astar at 2 threads. Its times were bimodal from
// run to run — twice as slow whenever its two threads landed on vCPUs that
// share a host core — so hda is measured in the exact workload's traced run
// instead: the over-expansion ledger below.
#include <algorithm>
#include <filesystem>
#include <iostream>
#include <optional>

#include "bench.hpp"
#include "probes.hpp"
#include "src/graph/dag_io.hpp"
#include "src/instances/binary_format.hpp"
#include "src/instances/spec.hpp"
#include "src/pebble/verifier.hpp"
#include "src/solvers/anytime_astar.hpp"
#include "src/solvers/api.hpp"
#include "src/solvers/exact_astar.hpp"
#include "src/solvers/greedy.hpp"
#include "src/solvers/hda/hda_astar.hpp"
#include "src/support/rng.hpp"

namespace perfbench {

using namespace rbpeb;

namespace {

enum class Search { ExactAstar, Anytime };

struct CaseSpec {
  const char* id;
  const char* spec;
  const char* model;
  std::size_t red_limit;
  Search search;
  std::size_t budget_states;  ///< anytime only
  const char* optimum;        ///< pinned optimal cost, nullptr = none
};

// Optima: BENCH_exact_astar.json, BENCH_bigstate.json and BENCH_anytime.json
// record 77, 7, 143/20, 6, 45, 15 and 53; 11 and 253/25 are exact-astar's
// answers, and Dijkstra (`exact`) agrees on the ≤21-node ones.
constexpr CaseSpec kExactCases[] = {
    {"stencil2x20.nodel", "stencil:width=2,steps=20", "nodel", 3,
     Search::ExactAstar, 0, "77"},
    {"stencil3x4.base", "stencil:width=3,steps=4", "base", 4,
     Search::ExactAstar, 0, "7"},
    {"stencil3x4.compcost", "stencil:width=3,steps=4", "compcost", 4,
     Search::ExactAstar, 0, "143/20"},
    {"stencil3x6.oneshot", "stencil:width=3,steps=6", "oneshot", 4,
     Search::ExactAstar, 0, "11"},
    {"tree8.oneshot", "tree:leaves=8", "oneshot", 3, Search::ExactAstar, 0,
     "6"},
    {"layered4x3.compcost", "layered:layers=4,width=3", "compcost", 3,
     Search::ExactAstar, 0, "253/25"},
    {"layered13x2.nodel", "layered:layers=13,width=2,seed=3", "nodel", 3,
     Search::ExactAstar, 0, "45"},
};

// The layered DAGs of BENCH_anytime.json, at smaller state budgets so a
// pass fits a run several times over.
constexpr CaseSpec kAnytimeCases[] = {
    {"layered16x6.nodel", "layered:layers=16,width=6,indegree=2,seed=71",
     "nodel", 3, Search::Anytime, 16'000, nullptr},
    {"layered16x6.compcost", "layered:layers=16,width=6,indegree=2,seed=71",
     "compcost", 3, Search::Anytime, 16'000, nullptr},
    {"layered24x8.nodel", "layered:layers=24,width=8,indegree=2,seed=64",
     "nodel", 3, Search::Anytime, 8'000, nullptr},
    {"layered24x8.compcost", "layered:layers=24,width=8,indegree=2,seed=64",
     "compcost", 3, Search::Anytime, 8'000, nullptr},
    {"layered32x8.nodel", "layered:layers=32,width=8,indegree=2,seed=72",
     "nodel", 3, Search::Anytime, 6'000, nullptr},
    {"stencil2x14.nodel", "stencil:width=2,steps=14", "nodel", 3,
     Search::Anytime, 200'000, "53"},
};

/// The exact cases the traced run also solves with hda-astar: the two the
/// ROADMAP records hda over-expansion on.
const char* const kHdaLedgerCases[] = {"stencil2x20.nodel", "layered13x2.nodel"};
/// hda-astar runs per ledger case; the ledger reports their medians.
constexpr int kHdaLedgerRuns = 3;

/// hda-astar threads: half of the 4-core reference machine, so the run
/// keeps a core for everything else on the box.
constexpr std::size_t kHdaThreads = 2;

Rational parse_rational(const std::string& text) {
  const auto slash = text.find('/');
  if (slash == std::string::npos) return Rational(std::stoll(text));
  return Rational(std::stoll(text.substr(0, slash)),
                  std::stoll(text.substr(slash + 1)));
}

struct Case {
  const CaseSpec* spec;
  Dag dag;
  std::optional<Engine> engine;
  std::optional<Rational> optimum;
};

/// Set-up: generate each instance, write it as an .rbg file under the work
/// directory and load it back — the solves run on the loaded DAG, so the
/// program only sees ingested inputs. A DAG that does not survive the round
/// trip byte for byte fails the run.
std::vector<std::unique_ptr<Case>> make_cases(Context& ctx,
                                              const CaseSpec* begin,
                                              const CaseSpec* end) {
  const std::string dir = ctx.config.work_dir + "/instances";
  std::filesystem::create_directories(dir);
  std::vector<std::unique_ptr<Case>> cases;
  for (const CaseSpec* s = begin; s != end; ++s) {
    auto c = std::make_unique<Case>();
    c->spec = s;
    const Dag generated = instances::resolve_instance(s->spec).dag;
    const std::string path = dir + "/" + s->id + ".rbg";
    instances::write_rbg_file(generated, path);
    c->dag = instances::resolve_instance("rbg:" + path).dag;
    ctx.ledger.check(to_text(c->dag) == to_text(generated),
                     std::string(s->id) + ": .rbg round trip changed the DAG");
    c->engine.emplace(c->dag, solver_options::parse_model(s->model),
                      s->red_limit);
    if (s->optimum != nullptr) c->optimum = parse_rational(s->optimum);
    cases.push_back(std::move(c));
  }
  return cases;
}

/// What one solve produced, as the checks and metrics need it.
struct Outcome {
  double ms = 0;          ///< whole op: solve plus verify
  double solve_ms = 0;    ///< the try_solve_* call (plus greedy seeding)
  std::size_t expanded = 0;
  Rational cost;
  Rational lower_bound;   ///< = cost for a proven optimum
};

Outcome run_case(Context& ctx, const Case& c, std::uint64_t op) {
  SpanRecorder& spans = ctx.spans;
  const CaseSpec& s = *c.spec;
  const Engine& engine = *c.engine;
  const std::string where = std::string(s.id) + ": ";
  ctx.ledger.attempt();

  Outcome out;
  const ScopedSpan op_span(spans, s.id, "bench", op);
  const auto t0 = Clock::now();
  ExactSearchStats stats;
  ExactSearchOptions options;
  options.max_states = 50'000'000;
  std::optional<Trace> trace;
  std::optional<SolveCertificate> certificate;
  if (s.search == Search::ExactAstar) {
    const ScopedSpan span(spans, "try_solve_exact_astar", "solvers", op);
    if (auto r = try_solve_exact_astar(engine, options, &stats)) {
      trace = std::move(r->trace);
      out.cost = r->cost;
    }
  } else {
    options.max_states = s.budget_states;
    {
      const ScopedSpan span(spans, "solve_greedy", "solvers", op);
      Trace seed = solve_greedy(engine);
      const Rational seed_cost = verify(engine, seed).total;
      const Rational scaled =
          seed_cost * Rational(engine.model().epsilon().den());
      options.seed = IncumbentSeed{std::move(seed), scaled.num()};
    }
    const ScopedSpan span(spans, "try_solve_anytime_astar", "solvers", op);
    if (auto r = try_solve_anytime_astar(engine, options, {}, &stats)) {
      trace = std::move(r->trace);
      out.cost = r->cost;
      if (r->certified) {
        certificate = SolveCertificate{r->lower_bound, r->cost, r->epsilon};
      }
    }
  }
  out.solve_ms = ms_between(t0, Clock::now());
  out.expanded = stats.states_expanded;

  bool ok = ctx.ledger.check(trace.has_value(), where + "no answer");
  if (ok) {
    VerifyResult verified;
    {
      const ScopedSpan span(spans, "verify", "pebble", op);
      verified = verify(engine, *trace);
    }
    ok = ctx.ledger.check(verified.ok() && verified.total == out.cost,
                          where + "trace fails verify (cost " +
                              out.cost.str() + ", replay " +
                              verified.total.str() + ")");
    if (ok && c.optimum) {
      ok = ctx.ledger.check(out.cost == *c.optimum,
                            where + "cost " + out.cost.str() +
                                " differs from pinned optimum " +
                                c.optimum->str());
    }
    if (ok && s.search == Search::Anytime) {
      ok = ctx.ledger.check(certificate.has_value() &&
                                certificate_holds(*certificate, verified.total),
                            where + "certificate fails certificate_holds");
      if (ok && c.optimum) {
        ok = ctx.ledger.check(certificate->lower_bound == *c.optimum,
                              where + "not proven optimal");
      }
    }
  }
  out.lower_bound = certificate ? certificate->lower_bound : out.cost;
  out.ms = ms_between(t0, Clock::now());
  return out;
}

/// Results of repeated passes over the case list.
struct Passes {
  std::vector<double> pass_s;                ///< wall time per pass
  std::vector<double> pass_speed;            ///< SpeedMeter factor per pass
  std::vector<std::vector<Outcome>> by_case; ///< [case][pass]
};

Passes run_passes(Context& ctx, const std::vector<std::unique_ptr<Case>>& cases,
                  double seconds, std::uint64_t* op) {
  Passes passes;
  passes.by_case.resize(cases.size());
  Rng rng(ctx.config.seed);
  const auto start = Clock::now();
  while (true) {
    std::vector<std::size_t> order(cases.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    rng.shuffle(order);
    double pass = 0;
    const std::size_t first_sample = ctx.speed.samples();
    for (std::size_t i : order) {
      ctx.speed.sample();
      const auto t0 = Clock::now();
      passes.by_case[i].push_back(run_case(ctx, *cases[i], ++*op));
      pass += seconds_between(t0, Clock::now());
    }
    const auto t1 = Clock::now();
    passes.pass_s.push_back(pass);
    passes.pass_speed.push_back(ctx.speed.factor_since(first_sample));
    std::cout << "  pass " << passes.pass_s.size() << ": " << pass
              << " s, speed factor " << passes.pass_speed.back() << "\n";
    // Start another pass only if it is expected to finish in time.
    if (seconds_between(start, t1) + pass > seconds) break;
  }
  return passes;
}

/// Anytime answers are deterministic at a fixed state budget: every pass
/// must reproduce the first pass's cost and lower bound.
void check_repeatable(Context& ctx,
                      const std::vector<std::unique_ptr<Case>>& cases,
                      const Passes& passes) {
  for (std::size_t i = 0; i < cases.size(); ++i) {
    if (cases[i]->spec->search != Search::Anytime) continue;
    const std::vector<Outcome>& runs = passes.by_case[i];
    for (std::size_t p = 1; p < runs.size(); ++p) {
      if (runs[p].cost != runs[0].cost ||
          runs[p].lower_bound != runs[0].lower_bound) {
        ctx.ledger.fail(std::string(cases[i]->spec->id) +
                        ": answer differs between passes");
      }
    }
  }
}

/// Median pass time, each pass scaled by its own speed factor.
double normalized_solve_s(const Passes& passes) {
  std::vector<double> pass_s;
  for (std::size_t p = 0; p < passes.pass_s.size(); ++p) {
    pass_s.push_back(passes.pass_s[p] * passes.pass_speed[p]);
  }
  return median(pass_s);
}

/// End-to-end metrics of a solve workload. Times are scaled by the speed
/// factor of the pass they were measured in (SpeedMeter); the raw pass
/// times are printed too. An op is one solve, and a run holds only a few
/// passes, so the latency percentiles are taken over the cases' median solve
/// times: p50_ms is their median, p99_ms the slowest case's. ops_per_s is
/// the solves completed per second.
void report_end_to_end(Context& ctx,
                       const std::vector<std::unique_ptr<Case>>& cases,
                       const Passes& passes, double setup_s) {
  Report& report = ctx.report;
  double total_s = 0;
  for (std::size_t p = 0; p < passes.pass_s.size(); ++p) {
    total_s += passes.pass_s[p] * passes.pass_speed[p];
  }
  std::vector<double> case_ms;
  std::vector<double> ratios;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    std::vector<double> ms;
    for (std::size_t p = 0; p < passes.by_case[i].size(); ++p) {
      ms.push_back(passes.by_case[i][p].ms * passes.pass_speed[p]);
    }
    case_ms.push_back(median(ms));
    const Outcome& first = passes.by_case[i].front();
    if (first.lower_bound > Rational(0)) {
      ratios.push_back(first.cost.to_double() / first.lower_bound.to_double());
    }
  }
  const double ops = static_cast<double>(cases.size() * passes.pass_s.size());
  std::cout << "  raw solve_s " << median(passes.pass_s) << " s, raw setup_s "
            << setup_s << " s\n";
  report.set("setup_s", setup_s * ctx.speed.factor(), "s");
  report.set("solve_s", normalized_solve_s(passes), "s");
  report.set("p50_ms", median(case_ms), "ms");
  report.set("p99_ms", *std::max_element(case_ms.begin(), case_ms.end()), "ms");
  report.set("ops_per_s", ops / total_s, "1/s");
  report.set("cert_ratio_geomean", geomean(ratios), "ratio");
  report.set("peak_rss_mb", peak_rss_mb(), "MB");
}

/// The per-case ledger of a traced run: ms and expansions/s per case, and
/// the workload's expansion totals.
void report_cases(Context& ctx, const std::vector<std::unique_ptr<Case>>& cases,
                  const Passes& passes) {
  Report& report = ctx.report;
  double expanded = 0;
  double solve_s = 0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    std::vector<double> ms;
    std::vector<double> solve_ms;
    std::vector<double> exp;
    for (const Outcome& o : passes.by_case[i]) {
      ms.push_back(o.ms);
      solve_ms.push_back(o.solve_ms);
      exp.push_back(static_cast<double>(o.expanded));
    }
    const double case_expanded = median(exp);
    const double case_solve_s = median(solve_ms) / 1e3;
    const std::string id = cases[i]->spec->id;
    report.set("solvers.case_ms." + id, median(ms), "ms");
    report.set("solvers.case_expansions_per_s." + id,
               case_solve_s > 0 ? case_expanded / case_solve_s : 0, "1/s");
    expanded += case_expanded;
    solve_s += case_solve_s;
  }
  report.set("solvers.expanded", expanded, "count");
  report.set("solvers.expansions_per_s", solve_s > 0 ? expanded / solve_s : 0,
             "1/s");
  report.set("solvers.ns_per_expansion",
             expanded > 0 ? solve_s * 1e9 / expanded : 0, "ns");
}

/// hda over-expansion ledger (ROADMAP item 5c): hda-astar at kHdaThreads
/// threads on the ledger cases, its expansions against the sequential
/// expansions of the same case in the run's passes.
void report_overexpansion(Context& ctx,
                          const std::vector<std::unique_ptr<Case>>& cases,
                          const Passes& passes) {
  double sequential = 0;
  double parallel = 0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Case& c = *cases[i];
    const std::string id = c.spec->id;
    if (std::find(std::begin(kHdaLedgerCases), std::end(kHdaLedgerCases), id) ==
        std::end(kHdaLedgerCases)) {
      continue;
    }
    std::vector<double> expanded;
    std::vector<double> ms;
    for (int run = 0; run < kHdaLedgerRuns; ++run) {
      ExactSearchStats stats;
      ExactSearchOptions options;
      options.max_states = 50'000'000;
      std::optional<ExactResult> result;
      ctx.ledger.attempt();
      const auto t0 = Clock::now();
      {
        const ScopedSpan span(ctx.spans, "try_solve_hda_astar", "hda", 0);
        result = try_solve_hda_astar(*c.engine, kHdaThreads, options, &stats);
      }
      ms.push_back(ms_between(t0, Clock::now()));
      expanded.push_back(static_cast<double>(stats.states_expanded));
      const bool ok = result.has_value() && result->cost == *c.optimum &&
                      verify(*c.engine, result->trace).ok();
      ctx.ledger.check(ok, id + ": hda-astar misses the pinned optimum");
    }
    std::vector<double> seq_runs;
    for (const Outcome& o : passes.by_case[i]) {
      seq_runs.push_back(static_cast<double>(o.expanded));
    }
    const double seq = median(seq_runs);
    const double hda = median(expanded);
    ctx.report.set("hda.case_ms." + id, median(ms), "ms");
    ctx.report.set("hda.expanded." + id, hda, "count");
    ctx.report.set("hda.overexpansion." + id, seq > 0 ? hda / seq : 0, "ratio");
    sequential += seq;
    parallel += hda;
  }
  ctx.report.set("hda.expanded", parallel, "count");
  ctx.report.set("hda.overexpansion", sequential > 0 ? parallel / sequential : 0,
                 "ratio");
}

void run_solve_workload(Context& ctx, const CaseSpec* begin,
                        const CaseSpec* end, Search search) {
  std::vector<std::unique_ptr<Case>> cases;
  const double setup_s =
      timed_setup([&] { cases = make_cases(ctx, begin, end); });
  std::uint64_t op = 0;
  const double seconds = ctx.config.seconds;

  if (!ctx.config.trace) {
    const Passes passes = run_passes(ctx, cases, seconds, &op);
    check_repeatable(ctx, cases, passes);
    report_end_to_end(ctx, cases, passes, setup_s);
    return;
  }

  // Traced run: half the time untraced, half traced; the difference in
  // solve_s is the tracing overhead.
  ctx.spans.set_enabled(false);
  const Passes plain = run_passes(ctx, cases, seconds / 2, &op);
  ctx.spans.set_enabled(true);
  Passes traced;
  {
    const ScopedSpan span(ctx.spans, ctx.config.workload.c_str(), "bench", 0);
    traced = run_passes(ctx, cases, seconds / 2, &op);
  }
  check_repeatable(ctx, cases, plain);
  check_repeatable(ctx, cases, traced);
  report_cases(ctx, cases, traced);
  const double plain_s = normalized_solve_s(plain);
  const double overhead_s = normalized_solve_s(traced) - plain_s;
  ctx.report.set("trace.overhead_ms", overhead_s * 1e3, "ms");
  ctx.report.set("trace.overhead_pct", 100.0 * overhead_s / plain_s, "%");
  if (search == Search::ExactAstar) report_overexpansion(ctx, cases, traced);

  std::vector<ProbeTarget> targets;
  for (const auto& c : cases) {
    targets.push_back(ProbeTarget{c->spec->id, c->spec->spec, &*c->engine});
  }
  ProbeOptions probe_options;
  probe_options.pdb = search == Search::Anytime;
  run_probes(ctx, targets, probe_options);
}

}  // namespace

void run_exact(Context& ctx) {
  run_solve_workload(ctx, std::begin(kExactCases), std::end(kExactCases),
                     Search::ExactAstar);
}

void run_anytime(Context& ctx) {
  run_solve_workload(ctx, std::begin(kAnytimeCases), std::end(kAnytimeCases),
                     Search::Anytime);
}

}  // namespace perfbench
