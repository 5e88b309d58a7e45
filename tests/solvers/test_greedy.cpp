#include "src/solvers/greedy.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/graph/dag_builder.hpp"
#include "src/pebble/bounds.hpp"
#include "src/pebble/trace_io.hpp"
#include "src/pebble/verifier.hpp"
#include "src/solvers/api.hpp"
#include "src/support/rng.hpp"
#include "src/workloads/fft.hpp"
#include "src/workloads/matmul.hpp"
#include "src/workloads/random_layered.hpp"
#include "src/workloads/tree_reduction.hpp"

namespace rbpeb {
namespace {

TEST(Greedy, ZeroCostOnChainWithEnoughPebbles) {
  DagBuilder b;
  b.add_nodes(10);
  for (NodeId v = 0; v + 1 < 10; ++v) b.add_edge(v, v + 1);
  Dag dag = b.build();
  Engine engine(dag, Model::oneshot(), 2);
  Trace trace = solve_greedy(engine);
  VerifyResult vr = verify_or_throw(engine, trace);
  EXPECT_EQ(vr.total, Rational(0));  // dead nodes deleted for free
}

TEST(Greedy, ComputesEveryNodeExactlyOnce) {
  Dag dag = make_random_layered_dag({.layers = 5, .width = 6, .indegree = 3,
                                     .seed = 4});
  Engine engine(dag, Model::oneshot(), min_red_pebbles(dag) + 1);
  Trace trace = solve_greedy(engine);
  std::vector<int> computes(dag.node_count(), 0);
  for (const Move& move : trace) {
    if (move.type == MoveType::Compute) ++computes[move.node];
  }
  for (int c : computes) EXPECT_EQ(c, 1);
  EXPECT_TRUE(verify(engine, trace).ok());
}

struct GreedyCase {
  GreedyRule rule;
  EvictionRule eviction;
};

class GreedyMatrix : public ::testing::TestWithParam<GreedyCase> {};

INSTANTIATE_TEST_SUITE_P(
    RulesByEviction, GreedyMatrix,
    ::testing::Values(
        GreedyCase{GreedyRule::MostRedInputs, EvictionRule::Lru},
        GreedyCase{GreedyRule::MostRedInputs, EvictionRule::FewestRemainingUses},
        GreedyCase{GreedyRule::MostRedInputs, EvictionRule::Random},
        GreedyCase{GreedyRule::FewestBlueInputs, EvictionRule::Lru},
        GreedyCase{GreedyRule::FewestBlueInputs, EvictionRule::FewestRemainingUses},
        GreedyCase{GreedyRule::RedRatio, EvictionRule::FewestRemainingUses},
        GreedyCase{GreedyRule::RedRatio, EvictionRule::Random}),
    [](const auto& info) {
      std::string name = std::string(to_string(info.param.rule)) + "_" +
                         to_string(info.param.eviction);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// Property: every rule/eviction combination yields a legal, complete
// pebbling within the universal cost bound, in every model.
TEST_P(GreedyMatrix, ValidAndBoundedOnWorkloads) {
  GreedyOptions options;
  options.rule = GetParam().rule;
  options.eviction = GetParam().eviction;

  std::vector<Dag> dags;
  dags.push_back(make_matmul_dag(3).dag);
  dags.push_back(make_fft_dag(8).dag);
  dags.push_back(make_tree_reduction_dag(13).dag);
  for (const Dag& dag : dags) {
    for (const Model& model : all_models()) {
      Engine engine(dag, model, min_red_pebbles(dag) + 2);
      Trace trace = solve_greedy(engine, options);
      VerifyResult vr = verify(engine, trace);
      ASSERT_TRUE(vr.ok()) << model.name() << ": " << vr.error;
      EXPECT_LE(vr.total, universal_cost_upper_bound(dag, model));
    }
  }
}

TEST(Greedy, MoreRedPebblesNeverHurtMuch) {
  // Not a theorem for greedy, but a sanity property on regular workloads:
  // doubling the cache should not increase the cost.
  Dag dag = make_matmul_dag(4).dag;
  Engine small(dag, Model::oneshot(), 3);
  Engine large(dag, Model::oneshot(), 12);
  Rational cost_small = verify_or_throw(small, solve_greedy(small)).total;
  Rational cost_large = verify_or_throw(large, solve_greedy(large)).total;
  EXPECT_LE(cost_large, cost_small);
}

TEST(Greedy, DeterministicForFixedSeed) {
  Dag dag = make_fft_dag(16).dag;
  GreedyOptions options;
  options.eviction = EvictionRule::Random;
  options.seed = 99;
  Engine engine(dag, Model::oneshot(), 4);
  Trace a = solve_greedy(engine, options);
  Trace b = solve_greedy(engine, options);
  EXPECT_EQ(a.moves(), b.moves());
}

TEST(Greedy, SinksRetainPebbles) {
  Dag dag = make_fft_dag(8).dag;
  Engine engine(dag, Model::oneshot(), 3);
  VerifyResult vr = verify_or_throw(engine, solve_greedy(engine));
  for (NodeId sink : dag.sinks()) {
    EXPECT_FALSE(vr.final_state.is_empty(sink));
  }
}

/// A seeded DAG with uneven fan-in, so the three greedy rules disagree:
/// after 4 sources, node v takes 1-4 distinct inputs among the 8 nodes
/// before it.
Dag make_uneven_dag(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  DagBuilder b;
  b.add_nodes(n);
  for (std::size_t v = 4; v < n; ++v) {
    const std::size_t fan = 1 + rng.next_below(4);
    for (std::size_t i :
         rng.sample_without_replacement(std::min<std::size_t>(v, 8), fan)) {
      b.add_edge(static_cast<NodeId>(v - 1 - i), static_cast<NodeId>(v));
    }
  }
  return b.build();
}

/// FNV-1a-64 of `text` continued from `hash`, plus a terminating 0xff byte
/// so consecutive fields cannot run together.
std::uint64_t fnv1a(std::uint64_t hash, const std::string& text) {
  for (const char c : text) {
    hash = (hash ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return (hash ^ 0xffU) * 0x100000001b3ULL;
}

// Pins every trace the node-order pebblers produce over a fixed sweep:
// three seeded DAGs (two layered, one with uneven fan-in), all four models, all four conventions and all three
// eviction rules. Each registry answer (trace text, then audited cost) is
// folded in that order into one FNV-1a-64 value per solver, so a change to
// any constant below means some trace moved.
TEST(Greedy, PinnedHeuristicTraces) {
  const std::vector<Dag> dags = {
      make_random_layered_dag(
          {.layers = 5, .width = 6, .indegree = 3, .seed = 4}),
      make_random_layered_dag(
          {.layers = 8, .width = 4, .indegree = 2, .seed = 7}),
      make_uneven_dag(40, 11),
  };
  const std::pair<const char*, std::uint64_t> pinned[] = {
      {"greedy", 0x7cb4d27a222c4276ULL},
      {"greedy-fewest-blue", 0x2d98c879a70ccd4eULL},
      {"greedy-red-ratio", 0x9a009c3e485f0118ULL},
      {"certified-greedy", 0x7cb4d27a222c4276ULL},
      {"topo", 0x9248dda5da0aef65ULL},
  };
  for (const auto& [name, expected] : pinned) {
    const Solver& solver = SolverRegistry::instance().at(name);
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const Dag& dag : dags) {
      for (const Model& model : all_models()) {
        for (const bool sources_blue : {false, true}) {
          for (const bool sinks_blue : {false, true}) {
            const Engine engine(dag, model, min_red_pebbles(dag) + 1,
                                {sources_blue, sinks_blue});
            for (const char* eviction : {"lru", "fewest-uses", "random"}) {
              SolveRequest request;
              request.engine = &engine;
              request.options["eviction"] = eviction;
              const SolveResult result = solver.run(request);
              ASSERT_TRUE(result.ok() && result.has_trace())
                  << name << " " << model.name() << ": " << result.detail;
              hash = fnv1a(hash, trace_to_text(*result.trace));
              hash = fnv1a(hash, result.cost.str());
            }
          }
        }
      }
    }
    EXPECT_EQ(hash, expected) << name << " now hashes to 0x" << std::hex
                              << hash;
  }
}

TEST(GreedyRuleNames, Render) {
  EXPECT_STREQ(to_string(GreedyRule::MostRedInputs), "most-red-inputs");
  EXPECT_STREQ(to_string(GreedyRule::FewestBlueInputs), "fewest-blue-inputs");
  EXPECT_STREQ(to_string(GreedyRule::RedRatio), "red-ratio");
  EXPECT_STREQ(to_string(EvictionRule::Lru), "lru");
  EXPECT_STREQ(to_string(EvictionRule::FewestRemainingUses), "fewest-uses");
  EXPECT_STREQ(to_string(EvictionRule::Random), "random");
}

}  // namespace
}  // namespace rbpeb
