// The anytime tier: weighted-A* passes must converge to the proven optimum
// when the budget allows, must return a verified incumbent with a sound
// machine-checkable certificate when it does not, and must carry that
// certificate intact through the solver registry — including on instances
// far past what exact search can finish.
#include "src/solvers/anytime_astar.hpp"

#include <gtest/gtest.h>

#include "src/graph/dag_builder.hpp"
#include "src/pebble/bounds.hpp"
#include "src/pebble/verifier.hpp"
#include "src/solvers/api.hpp"
#include "src/solvers/exact.hpp"
#include "src/solvers/exact_astar.hpp"
#include "src/solvers/greedy.hpp"
#include "src/support/check.hpp"
#include "src/workloads/chain.hpp"
#include "src/workloads/random_layered.hpp"
#include "src/workloads/stencil.hpp"

namespace rbpeb {
namespace {

/// A verified greedy pebbling as an IncumbentSeed (cost in scaled units).
IncumbentSeed greedy_seed(const Engine& engine) {
  Trace trace = solve_greedy(engine);
  const Rational cost = verify_or_throw(engine, trace).total;
  const Rational scaled = cost * Rational(engine.model().epsilon().den());
  RBPEB_ENSURE(scaled.den() == 1, "seed cost must be integral in scaled units");
  return IncumbentSeed{std::move(trace), scaled.num()};
}

// ---- convergence: full budget ⇒ a proof ----------------------------------

/// With the budget to finish, every pass schedule ends in epsilon == 0 and
/// the exact-astar optimum, on every model.
TEST(AnytimeAstar, FullBudgetProvesTheOptimumOnEveryModel) {
  Dag dag = make_random_layered_dag({.layers = 4, .width = 3, .indegree = 2,
                                     .seed = 61});  // 12 nodes
  for (const Model& model : all_models()) {
    Engine engine(dag, model, min_red_pebbles(dag));
    ExactSearchOptions options;
    options.max_states = 4'000'000;
    auto exact = try_solve_exact_astar(engine, options);
    ASSERT_TRUE(exact.has_value()) << model.name();
    ExactSearchStats stats;
    auto anytime = try_solve_anytime_astar(engine, options, {}, &stats);
    ASSERT_TRUE(anytime.has_value()) << model.name();
    EXPECT_TRUE(anytime->optimal) << model.name();
    EXPECT_TRUE(anytime->certified) << model.name();
    EXPECT_EQ(anytime->epsilon, Rational(0)) << model.name();
    EXPECT_EQ(anytime->cost, exact->cost) << model.name();
    EXPECT_EQ(anytime->lower_bound, anytime->cost) << model.name();
    EXPECT_EQ(verify_or_throw(engine, anytime->trace).total, anytime->cost)
        << model.name();
    EXPECT_EQ(stats.termination, ExactTermination::Solved) << model.name();
    EXPECT_GE(stats.anytime_passes, 1u) << model.name();
  }
}

// ---- starved budgets ⇒ a certificate, never a lie ------------------------

/// A budget too small to prove anything still returns the seed with a sound
/// certificate: cost ≤ (1+ε)·L in exact rationals, and L at or below the
/// true optimum (computed independently).
TEST(AnytimeAstar, StarvedBudgetReturnsSoundCertificate) {
  Dag dag = make_random_layered_dag({.layers = 6, .width = 4, .indegree = 2,
                                     .seed = 62});  // 24 nodes
  Engine engine(dag, Model::nodel(), min_red_pebbles(dag));
  ExactSearchOptions exact_options;
  exact_options.max_states = 4'000'000;
  auto exact = try_solve_exact_astar(engine, exact_options);
  ASSERT_TRUE(exact.has_value());

  ExactSearchOptions options;
  options.max_states = 200;  // a few hundred expansions: no proof possible
  options.seed = greedy_seed(engine);
  ExactSearchStats stats;
  auto anytime = try_solve_anytime_astar(engine, options, {}, &stats);
  ASSERT_TRUE(anytime.has_value());
  EXPECT_EQ(verify_or_throw(engine, anytime->trace).total, anytime->cost);
  ASSERT_TRUE(anytime->certified);
  // The defining inequality, in exact arithmetic.
  EXPECT_LE(anytime->cost,
            (Rational(1) + anytime->epsilon) * anytime->lower_bound);
  // The witness really is a lower bound on the optimum.
  EXPECT_LE(anytime->lower_bound, exact->cost);
  // And the incumbent is the verified seed or something cheaper.
  EXPECT_LE(anytime->cost, Rational(options.seed->g_scaled,
                                    engine.model().epsilon().den()));
  if (!anytime->optimal) {
    EXPECT_LT(anytime->lower_bound, anytime->cost);
    EXPECT_LT(Rational(0), anytime->epsilon);
  }
}

/// Tightening budgets only ever tighten the guarantee: more states must
/// never yield a larger ε on the same instance and schedule.
TEST(AnytimeAstar, LargerBudgetsNeverLoosenEpsilon) {
  Dag dag = make_random_layered_dag({.layers = 6, .width = 4, .indegree = 2,
                                     .seed = 63});  // 24 nodes
  Engine engine(dag, Model::nodel(), min_red_pebbles(dag));
  std::optional<Rational> last_epsilon;
  for (std::size_t budget : {400u, 20'000u, 1'000'000u}) {
    ExactSearchOptions options;
    options.max_states = budget;
    options.seed = greedy_seed(engine);
    auto anytime = try_solve_anytime_astar(engine, options);
    ASSERT_TRUE(anytime.has_value()) << budget;
    ASSERT_TRUE(anytime->certified) << budget;
    if (last_epsilon.has_value()) {
      EXPECT_LE(anytime->epsilon, *last_epsilon) << budget;
    }
    last_epsilon = anytime->epsilon;
  }
}

// ---- the tier's reason to exist: instances exact search cannot touch -----

/// A 192-node instance — far past the fixed-width masks and any exact-solve
/// horizon — comes back with a verified trace and a machine-checked
/// certificate on the runtime-width path.
TEST(AnytimeAstar, CertifiesA192NodeInstance) {
  Dag dag = make_random_layered_dag({.layers = 24, .width = 8, .indegree = 2,
                                     .seed = 64});  // 192 nodes
  ASSERT_EQ(dag.node_count(), 192u);
  Engine engine(dag, Model::compcost(), min_red_pebbles(dag));
  ExactSearchOptions options;
  options.max_states = 30'000;
  options.seed = greedy_seed(engine);
  ExactSearchStats stats;
  auto anytime = try_solve_anytime_astar(engine, options, {}, &stats);
  ASSERT_TRUE(anytime.has_value());
  EXPECT_EQ(verify_or_throw(engine, anytime->trace).total, anytime->cost);
  ASSERT_TRUE(anytime->certified);
  EXPECT_LT(Rational(0), anytime->lower_bound);
  EXPECT_LE(anytime->lower_bound, anytime->cost);
  EXPECT_LE(anytime->cost,
            (Rational(1) + anytime->epsilon) * anytime->lower_bound);
  // The stats mirror the certificate in scaled units.
  const std::int64_t den = engine.model().epsilon().den();
  EXPECT_EQ(Rational(stats.lower_bound_scaled, den), anytime->lower_bound);
  EXPECT_EQ(Rational(stats.incumbent_scaled, den), anytime->cost);
}

/// The target-epsilon stopping rule ends the schedule early but the
/// certificate it returns is still exact and still audited.
TEST(AnytimeAstar, TargetEpsilonStopsEarlyWithAnExactCertificate) {
  Dag dag = make_chain_dag(64);
  Engine engine(dag, Model::oneshot(), 3);
  ExactSearchOptions options;
  options.max_states = 1'000'000;
  AnytimeOptions anytime_options;
  anytime_options.target_epsilon = 1e9;  // any certificate at all satisfies it
  auto anytime = try_solve_anytime_astar(engine, options, anytime_options);
  ASSERT_TRUE(anytime.has_value());
  if (anytime->certified) {
    EXPECT_LE(anytime->cost,
              (Rational(1) + anytime->epsilon) * anytime->lower_bound);
  }
}

/// Degenerate schedules are rejected loudly: weights below 1 would break
/// the Dial-queue integrality argument, not silently misbehave.
TEST(AnytimeAstar, RejectsWeightsBelowOne) {
  Dag dag = make_chain_dag(6);
  Engine engine(dag, Model::base(), 2);
  AnytimeOptions bad;
  bad.weights = {{1, 2}};
  EXPECT_THROW(try_solve_anytime_astar(engine, {}, bad), PreconditionError);
}

// ---- through the registry ------------------------------------------------

TEST(AnytimeSolver, RegisteredAndOptimalOnSmallInstancesWithCertificate) {
  const Solver* solver = SolverRegistry::instance().find("anytime-astar");
  ASSERT_NE(solver, nullptr);
  Dag dag = make_random_layered_dag({.layers = 4, .width = 3, .indegree = 2,
                                     .seed = 65});  // 12 nodes
  Engine engine(dag, Model::oneshot(), min_red_pebbles(dag));
  SolveRequest request;
  request.engine = &engine;
  request.budget.max_states = 4'000'000;
  SolveResult result = solver->run(request);
  ASSERT_EQ(result.status, SolveStatus::Optimal) << result.detail;
  ASSERT_TRUE(result.has_trace());
  ASSERT_TRUE(result.certificate.has_value());
  EXPECT_EQ(result.certificate->epsilon, Rational(0));
  EXPECT_EQ(result.certificate->cost, result.cost);
  EXPECT_TRUE(certificate_holds(*result.certificate, result.cost));
  EXPECT_EQ(result.stats.count("anytime_passes"), 1u);
}

/// Starved through the registry: the auto greedy seed guarantees an answer
/// (Heuristic, never BudgetExhausted) and the certificate survives the
/// result plumbing.
TEST(AnytimeSolver, StarvedRequestStillAnswersWithCertificate) {
  Dag dag = make_random_layered_dag({.layers = 10, .width = 6, .indegree = 3,
                                     .seed = 66});  // 60 nodes
  Engine engine(dag, Model::compcost(), min_red_pebbles(dag));
  SolveRequest request;
  request.engine = &engine;
  request.budget.max_states = 2'000;
  SolveResult result = SolverRegistry::instance().at("anytime-astar").run(request);
  ASSERT_TRUE(result.ok()) << result.detail;
  ASSERT_TRUE(result.has_trace());
  if (result.certificate.has_value()) {
    EXPECT_TRUE(certificate_holds(*result.certificate, result.cost));
  } else {
    EXPECT_EQ(result.stats.count("certified"), 1u);
  }
}

/// A budget cut leaves the popped-but-unexpanded item open, so the frontier
/// bound must count it. Sweep tiny budgets on a 10-node DAG — where the cut
/// item is often the only one below the incumbent — across every model,
/// convention and both schedules: a certificate never claims a lower bound
/// above the Dijkstra optimum, and Optimal is claimed only at the optimum.
TEST(AnytimeSolver, CutPassesNeverOverstateTheLowerBound) {
  const Dag dag = make_random_layered_dag(
      {.layers = 5, .width = 2, .indegree = 2, .seed = 1});
  const Solver& solver = SolverRegistry::instance().at("anytime-astar");
  for (const Model& model : all_models()) {
    for (const bool sources_blue : {false, true}) {
      for (const bool sinks_blue : {false, true}) {
        for (const std::size_t red : {3u, 4u}) {
          const Engine engine(dag, model, red, {sources_blue, sinks_blue});
          const Rational optimum = solve_exact(engine).cost;
          for (const char* weights : {"1", "3,2,3/2,1"}) {
            for (std::size_t budget = 1; budget <= 40; ++budget) {
              SolveRequest request;
              request.engine = &engine;
              request.budget.max_states = budget;
              request.options["weights"] = weights;
              const SolveResult result = solver.run(request);
              const std::string where =
                  model.name() + " R=" + std::to_string(red) + " sources " +
                  (sources_blue ? "blue" : "free") + " sinks " +
                  (sinks_blue ? "blue" : "any") + " weights " + weights +
                  " budget " + std::to_string(budget);
              ASSERT_TRUE(result.ok()) << where << ": " << result.detail;
              if (result.certificate) {
                EXPECT_LE(result.certificate->lower_bound, optimum) << where;
              }
              if (result.status == SolveStatus::Optimal) {
                EXPECT_EQ(result.cost, optimum) << where;
              }
            }
          }
        }
      }
    }
  }
}

/// A memory budget that spilling cannot escape because the disk budget is
/// spent too: every informed search says so in the same words, and the
/// detail names the disk budget that limiting_resource blames.
TEST(AnytimeSolver, DiskStopDetailNamesTheDiskBudget) {
  const Dag dag = make_stencil1d_dag(2, 14).dag;  // 30 nodes
  const Engine engine(dag, Model::nodel(), min_red_pebbles(dag));
  for (const char* name : {"exact-astar", "anytime-astar"}) {
    SolveRequest request;
    request.engine = &engine;
    request.budget.max_memory_bytes = std::size_t{64} << 10;
    request.budget.max_disk_bytes = 20'000;
    request.options["incumbent"] = "none";
    const SolveResult result = SolverRegistry::instance().at(name).run(request);
    ASSERT_EQ(result.status, SolveStatus::BudgetExhausted) << name;
    EXPECT_EQ(result.stats.at("limiting_resource"), "disk") << name;
    EXPECT_NE(result.detail.find("disk budget (20000 bytes)"),
              std::string::npos)
        << name << ": " << result.detail;
  }
}

/// Each pass's bucket spine is sized from the incumbent, not the universal
/// ceiling, and the spine is charged to the memory budget. With the greedy
/// seed at about a quarter of the ceiling, an 8 MiB budget leaves room for
/// the first weight-3 pass to expand; a ceiling-sized spine (9.7 MB) would
/// end it before its first expansion.
TEST(AnytimeSolver, IncumbentSizedSpinesLeaveMemoryForTheSearch) {
  const Dag dag = make_random_layered_dag(
      {.layers = 24, .width = 8, .indegree = 2, .seed = 64});  // 192 nodes
  const Engine engine(dag, Model::compcost(), 3);
  SolveRequest request;
  request.engine = &engine;
  request.budget.max_states = 40'000;
  request.budget.max_memory_bytes = std::size_t{8} << 20;
  request.options["spill"] = "off";
  request.options["weights"] = "3,2,3/2,1";
  const SolveResult result =
      SolverRegistry::instance().at("anytime-astar").run(request);
  ASSERT_TRUE(result.ok()) << result.detail;
  EXPECT_GT(std::stoull(result.stats.at("states_expanded")), 0u);
  ASSERT_TRUE(result.certificate.has_value());
  EXPECT_TRUE(certificate_holds(*result.certificate, result.cost));
}

/// Each pass after the first starts its table at a slab sized for the
/// previous pass's final population when the budget allows it, and at the
/// 1,024-slot slab when not. Either way the passes search exactly as they
/// would growing from 1,024 slots: under budgets that end the first pass
/// (8 MiB, spilling off), leave all four passes to the state budget (16
/// MiB seeded, 22 MiB unseeded, spilling off), or make the passes evict
/// (12 MiB, spilling), the solve keeps the cost, lower bound, expansion
/// count and limiting resource that a table growing from 1,024 slots gives.
TEST(AnytimeSolver, PassTablesSizedFromThePreviousPassSearchTheSame) {
  const Dag dag = make_random_layered_dag(
      {.layers = 24, .width = 8, .indegree = 2, .seed = 64});  // 192 nodes
  const Engine engine(dag, Model::compcost(), 3);
  struct Case {
    std::size_t budget_kib;
    const char* spill;
    const char* incumbent;
    const char* cost;  ///< nullptr: no trace (BudgetExhausted)
    const char* lower_bound;
    const char* expanded;
    const char* limiting_resource;  ///< "": none (the solve answered)
  };
  for (const Case& c : {
           Case{8192, "off", "greedy", "9398/25", "67/20", "2557", ""},
           Case{16384, "off", "greedy", "9398/25", "341/100", "40000", ""},
           Case{12288, "auto", "greedy", "9398/25", "341/100", "40000", ""},
           Case{22528, "off", "none", nullptr, "341/100", "40000", "states"},
       }) {
    SCOPED_TRACE(::testing::Message() << c.budget_kib << " KiB, spill "
                                      << c.spill << ", " << c.incumbent);
    SolveRequest request;
    request.engine = &engine;
    request.budget.max_states = 40'000;
    request.budget.max_memory_bytes = c.budget_kib << 10;
    request.options["spill"] = c.spill;
    request.options["incumbent"] = c.incumbent;
    request.options["weights"] = "3,2,3/2,1";
    const SolveResult result =
        SolverRegistry::instance().at("anytime-astar").run(request);
    if (c.cost != nullptr) {
      ASSERT_TRUE(result.ok()) << result.detail;
      EXPECT_EQ(result.cost.str(), c.cost);
    } else {
      ASSERT_EQ(result.status, SolveStatus::BudgetExhausted) << result.detail;
    }
    EXPECT_EQ(result.stats.at("lower_bound"), c.lower_bound);
    EXPECT_EQ(result.stats.at("states_expanded"), c.expanded);
    const auto limiting = result.stats.find("limiting_resource");
    EXPECT_EQ(limiting == result.stats.end() ? "" : limiting->second,
              c.limiting_resource);
    if (std::string(c.spill) == "auto") {
      EXPECT_GT(std::stoull(result.stats.at("spilled_states")), 0u);
    }
  }
}

/// The closure counts ride the result stats. Every expansion enters its
/// state once, by a walk or a memo hit, so in nodel, which has no Delete,
/// they sum to the expansions; in compcost each Delete of a closure input
/// or a sink adds one more. The search revisits pebbled sets, so the memo
/// hits.
TEST(AnytimeSolver, ClosureWalkStatsCountEveryEnteredState) {
  const Dag dag = make_random_layered_dag(
      {.layers = 24, .width = 8, .indegree = 2, .seed = 64});  // 192 nodes
  for (const Model& model : {Model::nodel(), Model::compcost()}) {
    SCOPED_TRACE(model.name());
    const Engine engine(dag, model, 3);
    SolveRequest request;
    request.engine = &engine;
    request.budget.max_states = 8'000;
    const SolveResult result =
        SolverRegistry::instance().at("anytime-astar").run(request);
    ASSERT_TRUE(result.ok()) << result.detail;
    const auto stat = [&](const char* key) {
      return std::stoull(result.stats.at(key));
    };
    const std::uint64_t expanded = stat("states_expanded");
    const std::uint64_t hits = stat("closure_memo_hits");
    const std::uint64_t entered = stat("closure_walks") + hits;
    EXPECT_GT(expanded, 0u);
    EXPECT_GT(hits, 0u);
    if (model.allows_delete()) {
      EXPECT_GE(entered, expanded);
    } else {
      EXPECT_EQ(entered, expanded);
    }
  }
}

/// The weights/epsilon options parse exactly and bad values are refused
/// with the offending token named.
TEST(AnytimeSolver, WeightScheduleOptionsParseAndValidate) {
  Dag dag = make_chain_dag(8);
  Engine engine(dag, Model::base(), 2);
  SolveRequest request;
  request.engine = &engine;
  request.budget.max_states = 100'000;
  request.options["weights"] = "4,5/2,1";
  request.options["epsilon"] = "0.25";
  const Solver& solver = SolverRegistry::instance().at("anytime-astar");
  SolveResult result = solver.run(request);
  EXPECT_TRUE(result.ok()) << result.detail;

  for (const char* bad : {"0", "1/2", "2/0", "x", ""}) {
    request.options["weights"] = bad;
    EXPECT_THROW(solver.run(request), PreconditionError) << bad;
  }

  // Unbounded weights overflow a priority or the bucket spine once the
  // universal ceiling is not tiny. Weights above 16, or with a term above
  // 1000 in lowest terms, are refused; a weight of exactly 1 spelled with
  // huge terms reduces to 1/1 and solves.
  Dag layered = make_random_layered_dag(
      {.layers = 4, .width = 3, .indegree = 2, .seed = 1});
  Engine layered_engine(layered, Model::compcost(), 3);
  request.engine = &layered_engine;
  for (const char* bad : {"17", "1001/1000", "1000000000000000"}) {
    request.options["weights"] = bad;
    EXPECT_THROW(solver.run(request), PreconditionError) << bad;
  }
  request.options["weights"] = "1000000000000000000/1000000000000000000";
  result = solver.run(request);
  EXPECT_TRUE(result.ok()) << result.detail;

  request.options["weights"] = "2,1";
  request.options["epsilon"] = "-1";
  EXPECT_THROW(solver.run(request), PreconditionError);
}

}  // namespace
}  // namespace rbpeb
