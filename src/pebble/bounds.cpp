#include "src/pebble/bounds.hpp"

#include <bit>
#include <limits>

#include "src/graph/dag_algorithms.hpp"
#include "src/solvers/bigstate/pdb.hpp"
#include "src/support/check.hpp"

namespace rbpeb {

std::size_t min_red_pebbles(const Dag& dag) {
  if (dag.node_count() == 0) return 0;
  return dag.max_indegree() + 1;
}

Rational universal_cost_upper_bound(const Dag& dag, const Model& model) {
  const std::int64_t n = static_cast<std::int64_t>(dag.node_count());
  const std::int64_t delta = static_cast<std::int64_t>(dag.max_indegree());
  // (2Δ+1)·n transfers; compcost adds at most ε per node computation in the
  // greedy strategy of Section 3 (each node computed exactly once there).
  Rational bound((2 * delta + 1) * n);
  if (model.kind() == ModelKind::Compcost) {
    bound += model.epsilon() * Rational(n);
  }
  return bound;
}

Rational cost_lower_bound(const Dag& dag, const Model& model,
                          std::size_t red_limit) {
  const std::int64_t n = static_cast<std::int64_t>(dag.node_count());
  switch (model.kind()) {
    case ModelKind::Base:
    case ModelKind::Oneshot:
      return Rational(0);
    case ModelKind::Nodel: {
      // Every node eventually holds a pebble which cannot be deleted; at most
      // R of them can stay red, so at least n - R Step-2 operations happen.
      std::int64_t r = static_cast<std::int64_t>(red_limit);
      return Rational(n > r ? n - r : 0);
    }
    case ModelKind::Compcost: {
      // Each non-source node must be computed at least once, at ε apiece.
      std::int64_t non_sources =
          n - static_cast<std::int64_t>(dag.sources().size());
      return model.epsilon() * Rational(non_sources);
    }
  }
  RBPEB_ENSURE(false, "unreachable");
  return Rational(0);
}

std::int64_t universal_search_ceiling_scaled(const Dag& dag,
                                             const Model& model) {
  const auto n = static_cast<std::int64_t>(dag.node_count());
  const auto delta = static_cast<std::int64_t>(dag.max_indegree());
  const std::int64_t eps_num = model.epsilon().num();
  const std::int64_t eps_den = model.epsilon().den();
  return (2 * delta + 1) * n * eps_den + n * eps_num + 2 * n * eps_den;
}

void check_mask_width(std::size_t words, std::size_t node_count) {
  RBPEB_REQUIRE(node_count <= StateBoundEvaluator::kVecMaskMaxNodes,
                "bound masks cover at most 1024 nodes");
  RBPEB_REQUIRE(words == mask_words(node_count),
                "mask width must be ceil(n/64) words for the DAG");
}

StateBoundEvaluator::StateBoundEvaluator(const Engine& engine)
    : engine_(&engine),
      eps_num_(engine.model().epsilon().num()),
      eps_den_(engine.model().epsilon().den()) {
  const Dag& dag = engine.dag();
  const std::size_t n = dag.node_count();
  if (n > kVecMaskMaxNodes) return;  // nothing to price past the cap
  const std::size_t W = mask_words(n);
  Caches& c = caches_;
  c.words = W;
  c.pred.assign(n * W, 0);
  c.cone.assign(n * W, 0);
  c.sinks.assign(W, 0);
  c.sources.assign(W, 0);
  auto set = [](std::uint64_t* mask, std::size_t v) {
    mask[v >> 6] |= std::uint64_t{1} << (v & 63);
  };
  for (std::size_t v = 0; v < n; ++v) {
    const NodeId node = static_cast<NodeId>(v);
    for (NodeId p : dag.predecessors(node)) set(&c.pred[v * W], p);
    if (dag.is_sink(node)) set(c.sinks.data(), v);
    if (dag.is_source(node)) set(c.sources.data(), v);
  }
  // Ancestor cones compose along a topological order: by the time v is
  // visited every predecessor's cone is final.
  for (NodeId v : topological_order(dag)) {
    std::uint64_t* cone = &c.cone[static_cast<std::size_t>(v) * W];
    set(cone, v);
    for (NodeId p : dag.predecessors(v)) {
      const std::uint64_t* pcone = &c.cone[static_cast<std::size_t>(p) * W];
      for (std::size_t w = 0; w < W; ++w) cone[w] |= pcone[w];
    }
  }
  scratch_.assign(5 * W, 0);
}

template <std::size_t kWords>
std::optional<std::int64_t> StateBoundEvaluator::lower_bound_scaled(
    const Masks<kWords>& state) {
  RBPEB_REQUIRE(caches_.words != 0 && state.words() == caches_.words,
                "mask width must be ceil(n/64) words for a DAG of at most "
                "1024 nodes");
  last_source_ = BoundSource::Counting;
  const Model& model = engine_->model();
  const PebblingConvention& conv = engine_->convention();
  const Caches& caches = caches_;
  const std::size_t W = state.words();
  const std::uint64_t* red = state.red();
  const std::uint64_t* blue = state.blue();
  const std::uint64_t* computed = state.computed();

  // Scratch planes: pebbled, empty, frontier, closure, blue_inputs — on the
  // stack at a fixed width, in the evaluator's buffer at the runtime width.
  std::array<std::uint64_t, 5 * (kWords != 0 ? kWords : 1)> fixed{};
  std::uint64_t* pebbled = kWords != 0 ? fixed.data() : scratch_.data();
  std::uint64_t* empty = pebbled + W;
  std::uint64_t* frontier = empty + W;
  std::uint64_t* closure = frontier + W;
  std::uint64_t* blue_inputs = closure + W;
  // Seeds plus the stores owed by non-blue sinks under the blue convention.
  std::int64_t sink_stores_owed = 0;
  for (std::size_t w = 0; w < W; ++w) {
    pebbled[w] = red[w] | blue[w];
    empty[w] = ~pebbled[w];  // junk above bit n never enters
    closure[w] = 0;
    blue_inputs[w] = 0;
    if (conv.sinks_end_blue) {
      // blue arrives via Store
      sink_stores_owed += std::popcount(caches.sinks[w] & ~blue[w]);
    }
    frontier[w] = caches.sinks[w] & empty[w];
  }

  // Requirement closure, composed from the construction-time caches: a
  // frontier node whose whole ancestor cone is pebble-free contributes its
  // cached cone in one OR (every such ancestor is empty, hence also owed a
  // computation, and none of them can have blue inputs); anything else
  // advances one cached predecessor word at a time.
  for (;;) {
    std::size_t w = 0;
    while (w < W && frontier[w] == 0) ++w;
    if (w == W) break;
    const int b = std::countr_zero(frontier[w]);
    frontier[w] &= frontier[w] - 1;
    const std::size_t v = (w << 6) | static_cast<std::size_t>(b);
    const std::uint64_t bit = std::uint64_t{1} << b;
    if ((closure[w] & bit) != 0) continue;
    const std::uint64_t* cone = caches.cone.data() + v * W;
    bool cone_unpebbled = true;
    for (std::size_t i = 0; i < W; ++i) {
      if ((cone[i] & pebbled[i]) != 0) cone_unpebbled = false;
    }
    if (cone_unpebbled) {
      for (std::size_t i = 0; i < W; ++i) closure[i] |= cone[i];
      continue;
    }
    closure[w] |= bit;
    const std::uint64_t* preds = caches.pred.data() + v * W;
    for (std::size_t i = 0; i < W; ++i) {
      blue_inputs[i] |= preds[i] & blue[i];
      frontier[i] |= preds[i] & empty[i] & ~closure[i];
    }
  }

  // Dead states: a needed oneshot value already spent, or a needed (hence
  // empty) Hong–Kung source — uncomputable and, with no pebble, unloadable.
  std::int64_t closure_count = 0;
  for (std::size_t w = 0; w < W; ++w) {
    if (!model.allows_recompute() && (closure[w] & computed[w]) != 0) {
      return std::nullopt;
    }
    if (conv.sources_start_blue && (closure[w] & caches.sources[w]) != 0) {
      return std::nullopt;
    }
    closure_count += std::popcount(closure[w]);
  }

  std::int64_t bound = closure_count * eps_num_;
  // Blue inputs that can never be recomputed owe a full Load; the rest owe
  // whichever of reload / recompute is cheaper.
  for (std::size_t w = 0; w < W; ++w) {
    std::uint64_t no_recompute = 0;
    if (!model.allows_recompute()) no_recompute |= computed[w];
    if (conv.sources_start_blue) no_recompute |= caches.sources[w];
    bound += static_cast<std::int64_t>(
                 std::popcount(blue_inputs[w] & no_recompute)) *
             eps_den_;
    bound += static_cast<std::int64_t>(
                 std::popcount(blue_inputs[w] & ~no_recompute)) *
             std::min(eps_num_, eps_den_);
  }

  std::int64_t stores_owed = sink_stores_owed;
  if (model.kind() == ModelKind::Nodel) {
    // No deletions: currently pebbled nodes and the closure all hold pebbles
    // at the end, at most R of them red. Stores minus loads equals the net
    // blue growth, so stores >= final_blue - current_blue.
    std::int64_t pebbled_count = 0;
    std::int64_t blue_count = 0;
    for (std::size_t w = 0; w < W; ++w) {
      pebbled_count += std::popcount(pebbled[w]);
      blue_count += std::popcount(blue[w]);
    }
    const std::int64_t final_pebbled = pebbled_count + closure_count;
    const std::int64_t r = static_cast<std::int64_t>(engine_->red_limit());
    // Max, not sum: this and the sink term lower-bound the same stores.
    stores_owed = std::max(stores_owed, final_pebbled - r - blue_count);
  }
  std::int64_t total = bound + stores_owed * eps_den_;
  if (pdb_ != nullptr) {
    // The pattern-database floor, read through each node's 3-bit
    // color|computed field.
    const std::optional<std::int64_t> floor = pdb_->sum_scaled([&](NodeId v) {
      const std::size_t w = v >> 6;
      const std::uint64_t bit = std::uint64_t{1} << (v & 63);
      unsigned f = (red[w] & bit) != 0    ? 1u
                   : (blue[w] & bit) != 0 ? 2u
                                                : 0u;
      if ((computed[w] & bit) != 0) f |= 4u;
      return f;
    });
    if (!floor) {
      last_source_ = BoundSource::Pdb;  // a projection proved the state dead
      return std::nullopt;
    }
    if (*floor > total) {
      total = *floor;
      last_source_ = BoundSource::Pdb;
    }
  }
  return total;
}

template std::optional<std::int64_t> StateBoundEvaluator::lower_bound_scaled(
    const Masks<0>&);
template std::optional<std::int64_t> StateBoundEvaluator::lower_bound_scaled(
    const Masks<1>&);
template std::optional<std::int64_t> StateBoundEvaluator::lower_bound_scaled(
    const Masks<2>&);

std::optional<Rational> state_cost_lower_bound(const Engine& engine,
                                               const GameState& state) {
  StateBoundEvaluator evaluator(engine);
  std::optional<std::int64_t> scaled = evaluator.lower_bound_scaled(state);
  if (!scaled) return std::nullopt;
  return Rational(*scaled, engine.model().epsilon().den());
}

std::size_t optimal_length_upper_bound(const Dag& dag, const Model& model) {
  const std::size_t n = dag.node_count();
  const std::size_t delta = dag.max_indegree();
  const std::size_t transfers = (2 * delta + 1) * n;
  switch (model.kind()) {
    case ModelKind::Base:
      // The base model admits optimal pebblings of superpolynomial length
      // (paper, Section 4); no finite bound is claimed.
      return std::numeric_limits<std::size_t>::max();
    case ModelKind::Oneshot:
      // ≤ n computes; a deleted node can never be re-pebbled, so ≤ n deletes.
      return transfers + 2 * n;
    case ModelKind::Nodel:
      // ≤ n first computes; every recomputation consumes a blue pebble
      // created by a Step 2, of which there are at most `transfers`.
      return 2 * transfers + n;
    case ModelKind::Compcost: {
      // Lemma 1: p ≤ (2/ε)·(2Δ+1+ε)·n non-transfer steps.
      Rational eps = model.epsilon();
      Rational cost_cap = universal_cost_upper_bound(dag, model);
      // p ≤ 2 · cost_cap / ε  ⇒  p ≤ ceil(2 · num · eps_den / (den · eps_num))
      __int128 num = static_cast<__int128>(2) * cost_cap.num() * eps.den();
      __int128 den = static_cast<__int128>(cost_cap.den()) * eps.num();
      std::size_t p = static_cast<std::size_t>((num + den - 1) / den);
      return transfers + p;
    }
  }
  RBPEB_ENSURE(false, "unreachable");
  return 0;
}

}  // namespace rbpeb
