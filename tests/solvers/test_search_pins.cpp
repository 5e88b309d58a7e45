// Regression pins for the sequential A* driver: exact-astar and greedy-
// seeded anytime-astar, run through the solver registry as the CLI runs
// them, on eight instances that cover one-word (≤ 21
// nodes), two-word (≤ 42) and runtime-width keys, all four models and both
// pebbling conventions. Each run's cost, expansion count and a hash of its
// trace are pinned. A change to the closed table, the open queue or the
// key layout that claims to keep searches byte-identical must leave every
// pin as it is; a change that alters the search on purpose re-pins and
// says why. A failing pin prints the row that would replace it.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>

#include "src/instances/spec.hpp"
#include "src/pebble/engine.hpp"
#include "src/pebble/trace_io.hpp"
#include "src/pebble/verifier.hpp"
#include "src/solvers/api.hpp"

namespace rbpeb {
namespace {

/// What a run leaves: its cost ("none" without a trace), its expansions,
/// its popped duplicates (which tell two expansion orders apart even when
/// a state budget cuts both at the same count) and the FNV-1a hash of its
/// trace text (0 without a trace).
struct Pin {
  std::string cost;
  std::size_t expanded;
  std::size_t dup_skipped;
  std::uint64_t trace_hash;
  bool operator==(const Pin&) const = default;
};

void PrintTo(const Pin& pin, std::ostream* os);

struct PinCase {
  const char* spec;
  const char* model;
  std::size_t red_limit;
  bool hong_kung;  ///< sources start blue and sinks end blue
  std::size_t exact_budget;
  std::size_t anytime_budget;
  Pin exact;
  Pin anytime;
};

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : text) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
  }
  return h;
}

/// Solve through the registry, as the CLI does; `incumbent` is the greedy
/// seeding option ("auto" seeds past 42 nodes, "greedy" always).
Pin solve_pin(const Engine& engine, const char* solver, std::size_t budget,
              const char* incumbent) {
  SolveRequest request;
  request.engine = &engine;
  request.budget.max_states = budget;
  request.options["incumbent"] = incumbent;
  const SolveResult result = SolverRegistry::instance().at(solver).run(request);
  const std::size_t expanded = std::stoul(result.stats.at("states_expanded"));
  const std::size_t dups = std::stoul(result.stats.at("dup_skipped"));
  if (!result.has_trace()) return Pin{"none", expanded, dups, 0};
  EXPECT_EQ(verify_or_throw(engine, *result.trace).total, result.cost);
  return Pin{result.cost.str(), expanded, dups,
             fnv1a(trace_to_text(*result.trace))};
}

std::string row(const Pin& pin) {
  char hash[32];
  std::snprintf(hash, sizeof hash, "0x%016llxull",
                static_cast<unsigned long long>(pin.trace_hash));
  return "{\"" + pin.cost + "\", " + std::to_string(pin.expanded) + ", " +
         std::to_string(pin.dup_skipped) + ", " + hash + "}";
}

void PrintTo(const Pin& pin, std::ostream* os) { *os << row(pin); }

Model model_named(const std::string& name) {
  if (name == "base") return Model::base();
  if (name == "oneshot") return Model::oneshot();
  if (name == "nodel") return Model::nodel();
  return Model::compcost();
}

// Pinned from a build of the code before the closed tables dropped their
// parent keys and the open queues moved to key records, a change that kept
// every search byte-identical. Past 42 nodes exact-astar is greedy-seeded
// and cut by its budget, so its trace is the seed's.
const PinCase kCases[] = {
    {"layered:layers=4,width=3,indegree=2,seed=61", "base", 3, false, 200000,
     4000, {"10", 90266, 0, 0x6e3b64bee9664556ull},
     {"10", 4000, 0, 0x6c09dbac60965234ull}},
    {"tree:leaves=8", "oneshot", 3, true, 200000, 4000,
     {"15", 18324, 212, 0x516205648d23520bull},
     {"15", 4000, 46, 0x87d4f7fe7d3a6002ull}},
    {"stencil:width=2,steps=10", "nodel", 3, false, 200000, 4000,
     {"37", 5826, 612, 0x5d867731af90ced8ull},
     {"37", 4000, 857, 0x29f6e550b04e817dull}},
    {"layered:layers=13,width=2,seed=3", "compcost", 3, true, 200000, 4000,
     {"none", 200000, 1481, 0x0000000000000000ull},
     {"656/25", 4000, 0, 0x8efd083b97b21f94ull}},
    {"stencil:width=3,steps=4", "base", 4, true, 200000, 4000,
     {"12", 10660, 46, 0x940eed7b8e39de74ull},
     {"16", 4000, 21, 0xa453a3e3d02b347bull}},
    {"layered:layers=16,width=6,indegree=2,seed=71", "compcost", 3, false,
     4000, 4000, {"4524/25", 4000, 127, 0xf7937cdf27d39eaeull},
     {"4524/25", 4000, 46, 0xf7937cdf27d39eaeull}},
    {"layered:layers=24,width=8,indegree=2,seed=64", "nodel", 3, true, 2000,
     4000, {"542", 2000, 9, 0x72d423ece741d50full},
     {"542", 4000, 32, 0x72d423ece741d50full}},
    {"layered:layers=32,width=8,indegree=2,seed=72", "oneshot", 3, false,
     2000, 3000, {"515", 2000, 0, 0x69b85a4572dc3c06ull},
     {"515", 3000, 0, 0x69b85a4572dc3c06ull}},
};

TEST(SearchPins, ExactAndSeededAnytimeAstarKeepTheirSearches) {
  for (const PinCase& c : kCases) {
    SCOPED_TRACE(::testing::Message() << c.spec << " " << c.model << " R "
                                      << c.red_limit
                                      << (c.hong_kung ? " hong-kung" : ""));
    const Dag dag = instances::resolve_instance(c.spec).dag;
    const Engine engine(dag, model_named(c.model), c.red_limit,
                        {c.hong_kung, c.hong_kung});
    const Pin exact = solve_pin(engine, "exact-astar", c.exact_budget, "auto");
    EXPECT_EQ(exact, c.exact) << "exact-astar is now " << row(exact);
    const Pin anytime =
        solve_pin(engine, "anytime-astar", c.anytime_budget, "greedy");
    EXPECT_EQ(anytime, c.anytime) << "anytime-astar is now " << row(anytime);
  }
}

}  // namespace
}  // namespace rbpeb
