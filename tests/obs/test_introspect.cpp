// Search introspection: the progress sampler's bound gap is monotone
// non-increasing by construction, bound-source attribution sums exactly to
// the expansion count across models × conventions × search loops, the
// `search.expanded` counter grows by exactly the reported expansions on
// every exit path, an attached-but-idle sampler leaves costs and expansion counts byte-identical
// (the no-feedback guarantee), the h-error replay certifies admissibility
// along optimal traces, and the post-mortem writer lays out the black box it
// documents.
#include "src/obs/introspect.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/metrics.hpp"
#include "src/obs/postmortem.hpp"
#include "src/pebble/bounds.hpp"
#include "src/solvers/anytime_astar.hpp"
#include "src/solvers/api.hpp"
#include "src/solvers/exact_astar.hpp"
#include "src/solvers/hda/hda_astar.hpp"
#include "src/workloads/pyramid.hpp"
#include "src/workloads/random_layered.hpp"
#include "src/workloads/tree_reduction.hpp"

namespace rbpeb {
namespace {

using obs::ProgressObservation;
using obs::ProgressSnapshot;
using obs::SearchProgressSampler;

// ---- sampler unit behavior ----------------------------------------------

SearchProgressSampler::Options eager_options() {
  SearchProgressSampler::Options options;
  options.min_interval_us = 0;  // publish at every checkpoint offered
  return options;
}

TEST(SearchProgressSampler, BoundGapIsMonotoneUnderFluctuatingFrontier) {
  SearchProgressSampler sampler(eager_options());
  // The admissible bound is not consistent: the popped frontier f can dip.
  // The incumbent improves (decreases) as better completions are found.
  const std::int64_t frontier[] = {4, 6, 5, 7, 6, 8, 7, 9};
  const std::int64_t incumbent[] = {-1, 20, 20, 18, 18, 15, 15, 12};
  for (std::size_t i = 0; i < 8; ++i) {
    ProgressObservation ob;
    ob.expanded = (i + 1) * 1024;
    ob.frontier_f_scaled = frontier[i];
    ob.incumbent_scaled = incumbent[i];
    sampler.observe(ob);
  }
  const std::vector<ProgressSnapshot> history = sampler.history();
  ASSERT_EQ(history.size(), 8u);
  std::int64_t last_floor = -1;
  std::int64_t last_gap = std::numeric_limits<std::int64_t>::max();
  double last_progress = 0.0;
  for (const ProgressSnapshot& snap : history) {
    // f_floor is a running max; never forgets the best proved bound.
    EXPECT_GE(snap.f_floor_scaled, last_floor);
    last_floor = snap.f_floor_scaled;
    if (snap.bound_gap_scaled >= 0) {
      EXPECT_LE(snap.bound_gap_scaled, last_gap);
      last_gap = snap.bound_gap_scaled;
      EXPECT_GE(snap.progress, last_progress);
      last_progress = snap.progress;
    }
    EXPECT_GE(snap.progress, 0.0);
    EXPECT_LE(snap.progress, 1.0);
  }
  // The final snapshot: floor is the max frontier seen (9), incumbent the
  // best completion (12), so the gap closed from 20-6=14 to 3.
  EXPECT_EQ(history.back().f_floor_scaled, 9);
  EXPECT_EQ(history.back().incumbent_scaled, 12);
  EXPECT_EQ(history.back().bound_gap_scaled, 3);
}

TEST(SearchProgressSampler, IncumbentNeverRegresses) {
  SearchProgressSampler sampler(eager_options());
  ProgressObservation ob;
  ob.frontier_f_scaled = 5;
  ob.incumbent_scaled = 10;
  sampler.observe(ob);
  ob.incumbent_scaled = 12;  // a later, worse observation must not widen
  sampler.observe(ob);
  EXPECT_EQ(sampler.last_snapshot().incumbent_scaled, 10);
}

TEST(SearchProgressSampler, RingKeepsOnlyTheLastSnapshots) {
  SearchProgressSampler::Options options = eager_options();
  options.keep_last = 4;
  SearchProgressSampler sampler(options);
  for (int i = 0; i < 10; ++i) {
    ProgressObservation ob;
    ob.expanded = static_cast<std::uint64_t>(i);
    sampler.observe(ob);
  }
  const std::vector<ProgressSnapshot> history = sampler.history();
  ASSERT_EQ(history.size(), 4u);
  EXPECT_EQ(history.front().expanded, 6u);
  EXPECT_EQ(history.back().expanded, 9u);
  EXPECT_EQ(history.back().seq, 9u);
}

TEST(SearchProgressSampler, SnapshotJsonCarriesTheProgressFields) {
  SearchProgressSampler sampler(eager_options());
  ProgressObservation ob;
  ob.expanded = 2048;
  ob.frontier_f_scaled = 7;
  ob.incumbent_scaled = 10;
  ob.open_states = 55;
  sampler.observe(ob);
  const std::string json = sampler.last_snapshot().to_json();
  EXPECT_NE(json.find("\"expanded\":2048"), std::string::npos);
  EXPECT_NE(json.find("\"f_floor_scaled\":7"), std::string::npos);
  EXPECT_NE(json.find("\"incumbent_scaled\":10"), std::string::npos);
  EXPECT_NE(json.find("\"bound_gap_scaled\":3"), std::string::npos);
  EXPECT_NE(json.find("\"open_states\":55"), std::string::npos);
}

// ---- attribution invariant across the search loops -----------------------

/// Every convention pair the engine supports.
std::vector<PebblingConvention> all_conventions() {
  return {{false, false}, {true, false}, {false, true}, {true, true}};
}

TEST(Attribution, SumsExactlyToExpansionsInExactAstar) {
  const Dag dag = make_pyramid_dag(4).dag;
  for (const Model& model : all_models()) {
    for (const PebblingConvention& convention : all_conventions()) {
      const Engine engine(dag, model, min_red_pebbles(dag) + 1, convention);
      SearchProgressSampler sampler(eager_options());
      ExactSearchOptions options;
      options.progress = &sampler;
      ExactSearchStats stats;
      const auto result = try_solve_exact_astar(engine, options, &stats);
      ASSERT_TRUE(result.has_value()) << model.name();
      EXPECT_EQ(stats.attr_counting + stats.attr_pdb, stats.states_expanded)
          << model.name();
      // The ≤42-node path has no PDB: every expansion is counting-bound.
      EXPECT_EQ(stats.attr_pdb, 0u);
    }
  }
}

TEST(Attribution, SumsExactlyToExpansionsInHdaAstar) {
  const Dag dag = make_pyramid_dag(4).dag;
  for (const Model& model : all_models()) {
    for (const PebblingConvention& convention : all_conventions()) {
      const Engine engine(dag, model, min_red_pebbles(dag) + 1, convention);
      SearchProgressSampler sampler(eager_options());
      ExactSearchOptions options;
      options.progress = &sampler;
      ExactSearchStats stats;
      const auto result = try_solve_hda_astar(engine, 4, options, &stats);
      ASSERT_TRUE(result.has_value()) << model.name();
      EXPECT_EQ(stats.attr_counting + stats.attr_pdb, stats.states_expanded)
          << model.name();
    }
  }
}

TEST(Attribution, SumsExactlyToExpansionsInAnytimeAstar) {
  const Dag dag = make_pyramid_dag(4).dag;
  for (const Model& model : all_models()) {
    for (const PebblingConvention& convention : all_conventions()) {
      const Engine engine(dag, model, min_red_pebbles(dag) + 1, convention);
      SearchProgressSampler sampler(eager_options());
      ExactSearchOptions options;
      options.progress = &sampler;
      AnytimeOptions anytime;
      anytime.weights = {{2, 1}, {1, 1}};
      ExactSearchStats stats;
      const auto result =
          try_solve_anytime_astar(engine, options, anytime, &stats);
      ASSERT_TRUE(result.has_value()) << model.name();
      EXPECT_EQ(stats.attr_counting + stats.attr_pdb, stats.states_expanded)
          << model.name();
    }
  }
}

TEST(Attribution, PdbExpansionsAreAttributedWhenForced) {
  // Force the PDB on so the attribution's Pdb branch is reachable; on a
  // tree the additive projections beat the counting bounds somewhere.
  const Dag dag = make_tree_reduction_dag(8).dag;
  const Engine engine(dag, Model::oneshot(), min_red_pebbles(dag) + 1);
  SearchProgressSampler sampler(eager_options());
  ExactSearchOptions options;
  options.progress = &sampler;
  options.pdb = PdbMode::On;
  ExactSearchStats stats;
  const auto result = try_solve_exact_astar(engine, options, &stats);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(stats.attr_counting + stats.attr_pdb, stats.states_expanded);
}

// ---- the search.expanded counter -----------------------------------------

/// The `search.expanded` counter must grow by exactly the expansions a
/// solve reports — remainders below the 64-expansion poll included — on a
/// solved run and on a state-budget run, in every informed search.
TEST(ExpandedCounter, MatchesStatesExpandedOnEveryExitPath) {
  const Dag dag = make_tree_reduction_dag(8).dag;
  const Engine engine(dag, Model::oneshot(), 3);
  const obs::Counter& counter =
      obs::MetricsRegistry::instance().counter("search.expanded");
  using Solve = std::function<void(const ExactSearchOptions&,
                                   ExactSearchStats&)>;
  const std::pair<const char*, Solve> searches[] = {
      {"exact-astar",
       [&](const ExactSearchOptions& options, ExactSearchStats& stats) {
         (void)try_solve_exact_astar(engine, options, &stats);
       }},
      {"anytime-astar",
       [&](const ExactSearchOptions& options, ExactSearchStats& stats) {
         AnytimeOptions anytime;
         anytime.weights = {{2, 1}, {1, 1}};
         (void)try_solve_anytime_astar(engine, options, anytime, &stats);
       }},
      {"hda-astar",
       [&](const ExactSearchOptions& options, ExactSearchStats& stats) {
         (void)try_solve_hda_astar(engine, 2, options, &stats);
       }},
  };
  for (const auto& [name, solve] : searches) {
    for (std::size_t max_states : {std::size_t{2'000'000}, std::size_t{1000}}) {
      ExactSearchOptions options;
      options.max_states = max_states;
      ExactSearchStats stats;
      const std::uint64_t before = counter.value();
      solve(options, stats);
      const ExactTermination expected = max_states == 1000
                                            ? ExactTermination::StateBudget
                                            : ExactTermination::Solved;
      EXPECT_EQ(stats.termination, expected) << name;
      EXPECT_EQ(counter.value() - before, stats.states_expanded)
          << name << " max_states " << max_states;
    }
  }
}

// ---- the no-feedback guarantee -------------------------------------------

TEST(NoFeedback, AttachedSamplerLeavesCostAndExpansionsByteIdentical) {
  const Dag dag = make_random_layered_dag(
      {.layers = 4, .width = 3, .indegree = 2, .seed = 21});
  for (const Model& model : all_models()) {
    const Engine engine(dag, model, min_red_pebbles(dag) + 1);

    ExactSearchOptions plain;
    ExactSearchStats plain_stats;
    const auto baseline = try_solve_exact_astar(engine, plain, &plain_stats);
    ASSERT_TRUE(baseline.has_value());

    SearchProgressSampler sampler(eager_options());
    ExactSearchOptions instrumented;
    instrumented.progress = &sampler;
    ExactSearchStats instr_stats;
    const auto watched =
        try_solve_exact_astar(engine, instrumented, &instr_stats);
    ASSERT_TRUE(watched.has_value());

    EXPECT_EQ(baseline->cost, watched->cost) << model.name();
    EXPECT_EQ(plain_stats.states_expanded, instr_stats.states_expanded)
        << model.name();
    EXPECT_EQ(plain_stats.dup_skipped, instr_stats.dup_skipped);
    EXPECT_EQ(plain_stats.dead_prunes, instr_stats.dead_prunes);
  }
}

// ---- heuristic error along the optimal trace -----------------------------

TEST(HeuristicError, AdmissibleAlongOptimalTraces) {
  const Dag dag = make_pyramid_dag(4).dag;
  for (const Model& model : all_models()) {
    const Engine engine(dag, model, min_red_pebbles(dag) + 1);
    ExactSearchOptions options;
    ExactSearchStats stats;
    const auto result = try_solve_exact_astar(engine, options, &stats);
    ASSERT_TRUE(result.has_value());
    const obs::HeuristicErrorReport report =
        obs::measure_heuristic_error(engine, result->trace);
    EXPECT_TRUE(report.admissible) << model.name();
    EXPECT_EQ(report.states, result->trace.size() + 1);
    EXPECT_GE(report.max_error_scaled, 0);
    EXPECT_GE(report.mean_error_scaled, 0.0);
    // Admissibility in ratio form: mean h never exceeds mean remaining.
    EXPECT_LE(report.tightness, 1.0 + 1e-9) << model.name();
    EXPECT_GE(report.tightness, 0.0);
  }
}

// ---- solver-API integration ---------------------------------------------

TEST(SolverApi, ProgressRequestFillsAttributionAndHErrorStats) {
  const Dag dag = make_pyramid_dag(4).dag;
  const Engine engine(dag, Model::oneshot(), min_red_pebbles(dag) + 1);
  SearchProgressSampler sampler(eager_options());
  SolveRequest request;
  request.engine = &engine;
  request.progress = &sampler;
  const SolveResult result =
      SolverRegistry::instance().at("exact-astar").run(request);
  ASSERT_EQ(result.status, SolveStatus::Optimal);
  ASSERT_TRUE(result.stats.count("attr_counting"));
  ASSERT_TRUE(result.stats.count("attr_pdb"));
  const std::size_t attributed = std::stoul(result.stats.at("attr_counting")) +
                                 std::stoul(result.stats.at("attr_pdb"));
  EXPECT_EQ(attributed, std::stoul(result.stats.at("states_expanded")));
  EXPECT_EQ(result.stats.at("h_admissible"), "true");
  EXPECT_TRUE(result.stats.count("h_error_max"));
  EXPECT_TRUE(result.stats.count("h_tightness"));
}

TEST(SolverApi, LimitingResourceNamesTheBindingBudget) {
  // A pyramid too big for 50 expansions: the state budget is what binds.
  const Dag dag = make_pyramid_dag(5).dag;
  const Engine engine(dag, Model::oneshot(), min_red_pebbles(dag));
  SolveRequest request;
  request.engine = &engine;
  request.budget.max_states = 50;
  request.options["incumbent"] = "none";
  const SolveResult result =
      SolverRegistry::instance().at("exact-astar").run(request);
  ASSERT_EQ(result.status, SolveStatus::BudgetExhausted);
  ASSERT_TRUE(result.stats.count("limiting_resource"));
  EXPECT_EQ(result.stats.at("limiting_resource"), "states");
  // The verdict agrees with the human-readable detail by construction.
  EXPECT_NE(result.detail.find("state budget"), std::string::npos);
}

TEST(SolverApi, LimitingResourceMemoryWhenSpillDisabled) {
  const Dag dag = make_pyramid_dag(5).dag;
  const Engine engine(dag, Model::oneshot(), min_red_pebbles(dag));
  SolveRequest request;
  request.engine = &engine;
  request.budget.max_memory_bytes = 1;  // nothing fits
  request.options["spill"] = "off";
  request.options["incumbent"] = "none";
  const SolveResult result =
      SolverRegistry::instance().at("exact-astar").run(request);
  ASSERT_EQ(result.status, SolveStatus::BudgetExhausted);
  ASSERT_TRUE(result.stats.count("limiting_resource"));
  const std::string& verdict = result.stats.at("limiting_resource");
  // A 1-byte budget trips either the table proper or its growth headroom;
  // both verdicts blame memory, never disk or states.
  EXPECT_TRUE(verdict == "memory" || verdict == "table-headroom") << verdict;
  EXPECT_NE(result.detail.find("memory budget"), std::string::npos);
}

// ---- post-mortem black box ----------------------------------------------

TEST(Postmortem, WritesTheDocumentedBlackBoxLayout) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "rbpeb_postmortem_test_dir";
  fs::remove_all(dir);

  SearchProgressSampler sampler(eager_options());
  ProgressObservation ob;
  ob.expanded = 1024;
  ob.frontier_f_scaled = 5;
  ob.incumbent_scaled = 9;
  sampler.observe(ob);

  obs::PostmortemReport report;
  report.limiting_resource = "states";
  report.termination = "budget-exhausted";
  report.detail = "state budget (1024) exhausted";
  report.solver = "exact-astar";
  report.stats["states_expanded"] = "1024";
  report.progress = sampler.history();

  const std::string verdict_path = obs::write_postmortem(dir.string(), report);
  ASSERT_FALSE(verdict_path.empty());
  EXPECT_TRUE(fs::exists(dir / "verdict.json"));
  EXPECT_TRUE(fs::exists(dir / "progress.jsonl"));
  EXPECT_TRUE(fs::exists(dir / "metrics.json"));
  EXPECT_TRUE(fs::exists(dir / "trace_tail.json"));

  std::ifstream in(dir / "verdict.json");
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string verdict = buffer.str();
  EXPECT_NE(verdict.find("\"limiting_resource\":\"states\""),
            std::string::npos);
  EXPECT_NE(verdict.find("\"termination\":\"budget-exhausted\""),
            std::string::npos);
  EXPECT_NE(verdict.find("\"solver\":\"exact-astar\""), std::string::npos);
  EXPECT_NE(verdict.find("\"snapshots\":1"), std::string::npos);

  std::ifstream progress_in(dir / "progress.jsonl");
  std::string line;
  ASSERT_TRUE(std::getline(progress_in, line));
  EXPECT_NE(line.find("\"expanded\":1024"), std::string::npos);

  fs::remove_all(dir);
}

TEST(Postmortem, UnwritableDirectoryReturnsEmptyInsteadOfThrowing) {
  obs::PostmortemReport report;
  report.limiting_resource = "states";
  // /proc is not writable: create_directories fails, write_postmortem must
  // report that as an empty path, never as an exception — a post-mortem
  // failure must not turn a budget failure into a crash.
  EXPECT_EQ(obs::write_postmortem("/proc/rbpeb_no_such_dir", report), "");
}

}  // namespace
}  // namespace rbpeb
