// Canonicalization invariants (src/serve/canonical.hpp): the fingerprint
// must be INVARIANT under node relabeling — a renumbered isomorph is the
// same instance and must land on the same cache entry — and must SEPARATE
// every request dimension that changes the answer: model, ε, convention
// bits, R, solver, and options must all produce distinct fingerprints on
// the same DAG.
#include "src/serve/canonical.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "src/graph/dag_builder.hpp"
#include "src/instances/spec.hpp"
#include "src/support/rng.hpp"
#include "src/workloads/chain.hpp"
#include "src/workloads/fft.hpp"
#include "src/workloads/stencil.hpp"
#include "src/workloads/tree_reduction.hpp"

namespace rbpeb::serve {
namespace {

/// Rebuild `dag` with node i renamed perm[i]; the edge set is the same
/// relation, so the result is isomorphic by construction.
Dag relabel(const Dag& dag, const std::vector<NodeId>& perm) {
  DagBuilder builder;
  builder.add_nodes(dag.node_count());
  for (NodeId v = 0; v < dag.node_count(); ++v) {
    for (const NodeId succ : dag.successors(v)) {
      builder.add_edge(perm[v], perm[succ]);
    }
  }
  return builder.build();
}

std::vector<NodeId> random_permutation(std::size_t n, Rng& rng) {
  std::vector<NodeId> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = static_cast<NodeId>(i);
  rng.shuffle(perm);
  return perm;
}

std::string fingerprint_of(const Dag& dag, const Model& model = Model::oneshot(),
                           const PebblingConvention& convention = {},
                           std::size_t r = 3,
                           const std::string& solver = "portfolio",
                           const SolverOptions& options = {}) {
  return instance_fingerprint(canonicalize(dag), model, convention, r, solver,
                              options);
}

TEST(Canonical, HashInvariantUnderRelabeling) {
  const std::vector<Dag> dags = {
      make_tree_reduction_dag(8).dag,   make_tree_reduction_dag(16).dag,
      make_chain_dag(12),               make_fft_dag(8).dag,
      make_stencil1d_dag(5, 3).dag,
  };
  Rng rng(42);
  for (const Dag& dag : dags) {
    const CanonicalForm original = canonicalize(dag);
    const std::string original_fp = fingerprint_of(dag);
    for (int round = 0; round < 8; ++round) {
      const auto perm = random_permutation(dag.node_count(), rng);
      const Dag shuffled = relabel(dag, perm);
      const CanonicalForm relabeled = canonicalize(shuffled);
      EXPECT_EQ(original.dag_hash, relabeled.dag_hash)
          << "relabeling changed the WL hash (round " << round << ")";
      EXPECT_EQ(original_fp, fingerprint_of(shuffled))
          << "relabeling changed the fingerprint (round " << round << ")";
    }
  }
}

TEST(Canonical, OrderIsAPermutation) {
  Rng rng(7);
  const Dag dag = make_fft_dag(8).dag;
  for (int round = 0; round < 4; ++round) {
    const Dag shuffled =
        relabel(dag, random_permutation(dag.node_count(), rng));
    const CanonicalForm form = canonicalize(shuffled);
    ASSERT_EQ(form.order.size(), shuffled.node_count());
    std::set<NodeId> seen(form.order.begin(), form.order.end());
    EXPECT_EQ(seen.size(), shuffled.node_count());
  }
}

/// The shapes the serve pool draws from, plus matmul, wide and layered
/// DAGs, with dag_hash and the default fingerprint_of() taken from a build
/// before the incremental refiner: every cache key must stay the same.
struct PinnedShape {
  const char* spec;
  std::uint64_t dag_hash;
  const char* fingerprint;
};

const PinnedShape kPinnedShapes[] = {
    {"tree:leaves=64", 0xb47d7fbc62303152ULL,
     "120f857ae4c15f1f-826de42f17eff89e"},
    {"tree:leaves=128", 0x5e6253f1139dc9c8ULL,
     "5e01b3f125945abc-68ec64af9c9d5271"},
    {"fft:size=16", 0x02537724ba40feb0ULL,
     "382c0dd9952aee2a-9e9975bbc4627e41"},
    {"fft:size=32", 0x494eb17ed8250aa5ULL,
     "37cc061a8f6b65b7-a625382a5daea04e"},
    {"fft:size=64", 0xa9622f2eda5f9b65ULL,
     "fae43e7ea9e49095-2fd12be7c05d2e28"},
    {"stencil2d:width=4,height=4,steps=4", 0xb963d7af432a7495ULL,
     "7a955d153825cf04-6f1ed795e5147bc9"},
    {"stencil2d:width=6,height=6,steps=3", 0x24d398638d063857ULL,
     "41b5639a740a6160-5e9829666836284b"},
    {"stencil2d:width=8,height=8,steps=4", 0xbb80e6c9d38bd1dcULL,
     "fe0d15a169fcf4f9-1a1a76ad5072d5c9"},
    {"matmul:n=4", 0x17f9828c3ac5f348ULL,
     "9f16a42726d611aa-98bb3f08b8a79f23"},
    {"wide:width=64,depth=3", 0x5248b25e12205f26ULL,
     "26b52551977237e1-71e7398ac31e62a8"},
    {"layered:layers=8,width=8,seed=3", 0x1d688e224b4f8812ULL,
     "63bbdd0fd2d36cab-62733233e4cdc415"},
    {"layered:layers=16,width=12,seed=5", 0xf1acb9da061eb9e6ULL,
     "522b4eb78b500d3f-3694543631035086"},
    {"layered:layers=20,width=20,seed=9", 0xbf4f2726da29cb06ULL,
     "763143cb3a027769-b7df9ece5edd9ef9"},
};

TEST(Canonical, FingerprintsMatchThePinnedParentValues) {
  for (const PinnedShape& pinned : kPinnedShapes) {
    const Dag dag = instances::resolve_instance(pinned.spec).dag;
    EXPECT_EQ(canonicalize(dag).dag_hash, pinned.dag_hash) << pinned.spec;
    EXPECT_EQ(fingerprint_of(dag), pinned.fingerprint) << pinned.spec;
  }
}

TEST(Canonical, OrderComposesToAnIsomorphismOnRegularWorkloads) {
  // For the workloads the serve cache actually sees, individualization-
  // refinement must produce orders that map entry nodes onto request nodes
  // edge-preservingly — this is what lets a cached trace replay on a
  // relabeled isomorph (the Verifier audit backstops any residue).
  std::vector<std::pair<std::string, Dag>> dags = {
      {"tree:leaves=8", make_tree_reduction_dag(8).dag},
      {"fft:size=4", make_fft_dag(4).dag},
      {"stencil:width=4,steps=3", make_stencil1d_dag(4, 3).dag}};
  for (const PinnedShape& pinned : kPinnedShapes) {
    dags.emplace_back(pinned.spec, instances::resolve_instance(pinned.spec).dag);
  }
  Rng rng(99);
  for (const auto& [spec, dag] : dags) {
    const CanonicalForm a = canonicalize(dag);
    EXPECT_EQ(a.order, canonicalize(dag).order)
        << spec << ": two calls returned different orders";
    for (int round = 0; round < 8; ++round) {
      const Dag shuffled =
          relabel(dag, random_permutation(dag.node_count(), rng));
      const CanonicalForm b = canonicalize(shuffled);
      ASSERT_EQ(a.order.size(), b.order.size());
      // map a-node → b-node through canonical positions.
      std::vector<NodeId> map(dag.node_count(), kInvalidNode);
      for (std::size_t i = 0; i < a.order.size(); ++i) {
        map[a.order[i]] = b.order[i];
      }
      std::size_t preserved = 0, edges = 0;
      for (NodeId v = 0; v < dag.node_count(); ++v) {
        for (const NodeId succ : dag.successors(v)) {
          ++edges;
          preserved += shuffled.has_edge(map[v], map[succ]) ? 1 : 0;
        }
      }
      EXPECT_EQ(preserved, edges) << spec << " (relabeling " << round << ")";
    }
  }
}

TEST(Canonical, DistinctDagsAlmostSurelyDistinctHashes) {
  // Not isomorphic, so their hashes must differ (collision would cost an
  // audited re-solve, not a wrong answer — but these easy separations are
  // exactly what WL refinement distinguishes).
  const std::vector<Dag> dags = {
      make_tree_reduction_dag(8).dag, make_tree_reduction_dag(16).dag,
      make_chain_dag(15),             make_chain_dag(16),
      make_fft_dag(8).dag,            make_stencil1d_dag(5, 3).dag,
  };
  std::set<std::uint64_t> hashes;
  for (const Dag& dag : dags) hashes.insert(canonicalize(dag).dag_hash);
  EXPECT_EQ(hashes.size(), dags.size());
}

TEST(Canonical, FingerprintSeparatesEveryRequestDimension) {
  const Dag dag = make_tree_reduction_dag(8).dag;
  std::set<std::string> fingerprints;
  const auto insert_unique = [&fingerprints](const std::string& fp) {
    EXPECT_TRUE(fingerprints.insert(fp).second)
        << "two distinct request dimensions collided on " << fp;
  };
  // Models — including two compcost parameterizations with different ε.
  insert_unique(fingerprint_of(dag, Model::base()));
  insert_unique(fingerprint_of(dag, Model::oneshot()));
  insert_unique(fingerprint_of(dag, Model::nodel()));
  insert_unique(fingerprint_of(dag, Model::compcost(1, 100)));
  insert_unique(fingerprint_of(dag, Model::compcost(1, 10)));
  // Convention bits.
  insert_unique(fingerprint_of(dag, Model::oneshot(), {true, false}));
  insert_unique(fingerprint_of(dag, Model::oneshot(), {false, true}));
  insert_unique(fingerprint_of(dag, Model::oneshot(), {true, true}));
  // R.
  insert_unique(fingerprint_of(dag, Model::oneshot(), {}, 4));
  insert_unique(fingerprint_of(dag, Model::oneshot(), {}, 5));
  // Solver.
  insert_unique(fingerprint_of(dag, Model::oneshot(), {}, 3, "greedy"));
  insert_unique(fingerprint_of(dag, Model::oneshot(), {}, 3, "exact"));
  // Options (and option VALUES).
  insert_unique(fingerprint_of(dag, Model::oneshot(), {}, 3, "greedy",
                               {{"rule", "lru"}}));
  insert_unique(fingerprint_of(dag, Model::oneshot(), {}, 3, "greedy",
                               {{"rule", "mru"}}));
}

TEST(Canonical, FingerprintIsStableAcrossCalls) {
  const Dag dag = make_fft_dag(8).dag;
  EXPECT_EQ(fingerprint_of(dag), fingerprint_of(dag));
}

}  // namespace
}  // namespace rbpeb::serve
