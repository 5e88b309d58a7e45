#include "src/pebble/bounds.hpp"

#include <algorithm>
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
  scratch_.assign(3 * W, 0);
}

namespace {

/// Node v's pattern-database digit (PatternDatabase::digit) in `state`.
template <std::size_t W>
unsigned digit_of(const Masks<W>& state, NodeId v) {
  const std::size_t w = v >> 6;
  const std::uint64_t bit = std::uint64_t{1} << (v & 63);
  const PebbleColor color = (state.red()[w] & bit) != 0    ? PebbleColor::Red
                            : (state.blue()[w] & bit) != 0 ? PebbleColor::Blue
                                                           : PebbleColor::None;
  return PatternDatabase::digit(color, (state.computed()[w] & bit) != 0);
}

}  // namespace

// Requirement closure, composed from the construction-time caches: a
// frontier node whose whole ancestor cone is pebble-free contributes its
// cached cone in one OR (every such ancestor is empty, hence also owed a
// computation, and none of them can have blue inputs); anything else joins
// alone, its predecessor mask joins PU, and its empty predecessors join the
// frontier. Grows (closure, inputs) until the frontier is spent.
template <std::size_t kWords>
void StateBoundEvaluator::walk(const Masks<kWords>& state,
                               std::uint64_t* __restrict frontier,
                               std::uint64_t* __restrict closure,
                               std::uint64_t* __restrict inputs) const {
  const std::size_t W = state.words();
  const std::uint64_t* red = state.red();
  const std::uint64_t* blue = state.blue();
  for (;;) {
    std::size_t w = 0;
    while (w < W && frontier[w] == 0) ++w;
    if (w == W) break;
    const int b = std::countr_zero(frontier[w]);
    frontier[w] &= frontier[w] - 1;
    const std::size_t v = (w << 6) | static_cast<std::size_t>(b);
    const std::uint64_t bit = std::uint64_t{1} << b;
    if ((closure[w] & bit) != 0) continue;
    const std::uint64_t* cone = caches_.cone.data() + v * W;
    bool cone_unpebbled = true;
    for (std::size_t i = 0; i < W; ++i) {
      if ((cone[i] & (red[i] | blue[i])) != 0) cone_unpebbled = false;
    }
    if (cone_unpebbled) {
      for (std::size_t i = 0; i < W; ++i) closure[i] |= cone[i];
      continue;
    }
    closure[w] |= bit;
    const std::uint64_t* preds = caches_.pred.data() + v * W;
    for (std::size_t i = 0; i < W; ++i) {
      inputs[i] |= preds[i];
      frontier[i] |= preds[i] & ~(red[i] | blue[i]) & ~closure[i];
    }
  }
}

template <std::size_t kWords>
void StateBoundEvaluator::walk_from_sinks(const Masks<kWords>& state,
                                          std::uint64_t* frontier,
                                          std::uint64_t* closure,
                                          std::uint64_t* inputs) const {
  for (std::size_t w = 0; w < state.words(); ++w) {
    frontier[w] = caches_.sinks[w] & ~(state.red()[w] | state.blue()[w]);
    closure[w] = 0;
    inputs[w] = 0;
  }
  walk(state, frontier, closure, inputs);
}

template <std::size_t kWords, class PdbFloor>
std::optional<std::int64_t> StateBoundEvaluator::tail(
    const Masks<kWords>& state, const std::uint64_t* closure,
    const std::uint64_t* inputs, PdbFloor&& pdb_floor) {
  last_source_ = BoundSource::Counting;
  const Model& model = engine_->model();
  const PebblingConvention& conv = engine_->convention();
  const bool oneshot = !model.allows_recompute();
  const std::size_t W = state.words();
  const std::uint64_t* red = state.red();
  const std::uint64_t* blue = state.blue();
  const std::uint64_t* computed = state.computed();
  const std::uint64_t* sources = caches_.sources.data();

  std::int64_t closure_count = 0;
  std::int64_t pebbled_count = 0;
  std::int64_t blue_count = 0;
  std::int64_t full_loads = 0;
  std::int64_t cheap_loads = 0;
  // Stores owed by non-blue sinks under the blue convention.
  std::int64_t sink_stores_owed = 0;
  for (std::size_t w = 0; w < W; ++w) {
    // Dead states: a needed oneshot value already spent, or a needed (hence
    // empty) Hong–Kung source — uncomputable and, with no pebble,
    // unloadable.
    if (oneshot && (closure[w] & computed[w]) != 0) return std::nullopt;
    if (conv.sources_start_blue && (closure[w] & sources[w]) != 0) {
      return std::nullopt;
    }
    closure_count += std::popcount(closure[w]);
    pebbled_count += std::popcount(red[w] | blue[w]);
    blue_count += std::popcount(blue[w]);
    if (conv.sinks_end_blue) {
      // blue arrives via Store
      sink_stores_owed += std::popcount(caches_.sinks[w] & ~blue[w]);
    }
    // Blue inputs that can never be recomputed owe a full Load; the rest
    // owe whichever of reload / recompute is cheaper.
    std::uint64_t no_recompute = 0;
    if (oneshot) no_recompute |= computed[w];
    if (conv.sources_start_blue) no_recompute |= sources[w];
    const std::uint64_t blue_inputs = inputs[w] & blue[w];
    full_loads += std::popcount(blue_inputs & no_recompute);
    cheap_loads += std::popcount(blue_inputs & ~no_recompute);
  }

  const std::int64_t bound = closure_count * eps_num_ +
                             full_loads * eps_den_ +
                             cheap_loads * std::min(eps_num_, eps_den_);
  std::int64_t stores_owed = sink_stores_owed;
  if (model.kind() == ModelKind::Nodel) {
    // No deletions: currently pebbled nodes and the closure all hold pebbles
    // at the end, at most R of them red. Stores minus loads equals the net
    // blue growth, so stores >= final_blue - current_blue.
    const std::int64_t final_pebbled = pebbled_count + closure_count;
    const std::int64_t r = static_cast<std::int64_t>(engine_->red_limit());
    // Max, not sum: this and the sink term lower-bound the same stores.
    stores_owed = std::max(stores_owed, final_pebbled - r - blue_count);
  }
  std::int64_t total = bound + stores_owed * eps_den_;
  if (pdb_ != nullptr) {
    const std::optional<std::int64_t> floor = pdb_floor();
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

template <std::size_t kWords>
std::optional<std::int64_t> StateBoundEvaluator::lower_bound_scaled(
    const Masks<kWords>& state) {
  RBPEB_REQUIRE(caches_.words != 0 && state.words() == caches_.words,
                "mask width must be ceil(n/64) words for a DAG of at most "
                "1024 nodes");
  const std::size_t W = state.words();
  // Scratch planes: frontier, closure, inputs — on the stack at a fixed
  // width, in the evaluator's buffer at the runtime width.
  std::array<std::uint64_t, 3 * (kWords != 0 ? kWords : 1)> fixed{};
  std::uint64_t* frontier = kWords != 0 ? fixed.data() : scratch_.data();
  std::uint64_t* closure = frontier + W;
  std::uint64_t* inputs = closure + W;
  walk_from_sinks(state, frontier, closure, inputs);
  return tail(state, closure, inputs, [&] {
    return pdb_->sum_scaled([&](NodeId v) { return digit_of(state, v); });
  });
}

template <std::size_t kWords>
std::pair<std::uint64_t*, bool> StateBoundEvaluator::memo_entry(
    const Masks<kWords>& state) {
  static_assert(std::has_single_bit(kClosureMemoSlots));
  const std::size_t W = state.words();
  if (memo_.empty()) {
    // Empty entries hold P = all ones, C = PU = ∅ (see bounds.hpp).
    memo_.assign(kClosureMemoSlots * 3 * W, 0);
    for (std::size_t e = 0; e < kClosureMemoSlots; ++e) {
      std::fill_n(memo_.begin() + static_cast<std::ptrdiff_t>(e * 3 * W), W,
                  ~std::uint64_t{0});
    }
  }
  const std::uint64_t* red = state.red();
  const std::uint64_t* blue = state.blue();
  std::uint64_t hash = 0;
  for (std::size_t w = 0; w < W; ++w) {
    hash = (hash ^ (red[w] | blue[w])) * 0x9E3779B97F4A7C15ull;
  }
  std::uint64_t* entry =
      memo_.data() +
      (hash >> (64 - std::countr_zero(kClosureMemoSlots))) * 3 * W;
  bool hit = true;
  for (std::size_t w = 0; w < W; ++w) hit &= entry[w] == (red[w] | blue[w]);
  return {entry, hit};
}

template <std::size_t kWords>
void StateBoundEvaluator::enter_parent(const Masks<kWords>& state,
                                       ParentBound<kWords>& parent) {
  RBPEB_REQUIRE(caches_.words != 0 && state.words() == caches_.words &&
                    parent.closure.words() == caches_.words,
                "mask width must be ceil(n/64) words for a DAG of at most "
                "1024 nodes");
  const std::size_t W = state.words();
  const auto [entry, hit] = memo_entry(state);
  if (hit) {
    ++counts_.memo_hits;
    std::copy_n(entry + W, W, parent.closure.nodes());
    std::copy_n(entry + 2 * W, W, parent.closure.inputs());
  } else {
    ++counts_.walks;
    std::array<std::uint64_t, kWords != 0 ? kWords : 1> fixed{};
    std::uint64_t* frontier = kWords != 0 ? fixed.data() : scratch_.data();
    walk_from_sinks(state, frontier, parent.closure.nodes(),
                    parent.closure.inputs());
    for (std::size_t w = 0; w < W; ++w) {
      entry[w] = state.red()[w] | state.blue()[w];
    }
    std::copy_n(parent.closure.nodes(), W, entry + W);
    std::copy_n(parent.closure.inputs(), W, entry + 2 * W);
  }
  if (pdb_ == nullptr) return;
  RBPEB_REQUIRE(parent.projection.size() == pdb_->term_count(),
                "ParentBound must be sized for the attached PDB's terms");
  std::int64_t sum = 0;
  bool dead = false;
  for (std::size_t t = 0; t < parent.projection.size(); ++t) {
    const std::size_t index = pdb_->projection(t, [&](NodeId v) {
      return parent.digit[v] = static_cast<std::uint8_t>(digit_of(state, v));
    });
    const std::int32_t d = pdb_->distance(t, index);
    parent.projection[t] = index;
    parent.distance[t] = d;
    if (d == PatternDatabase::kUnreachable) dead = true;
    sum += d;
  }
  parent.pdb_sum = dead ? std::nullopt : std::optional<std::int64_t>(sum);
}

template <std::size_t kWords>
std::optional<std::int64_t> StateBoundEvaluator::successor_bound(
    ParentBound<kWords>& parent, const Move& move,
    const Masks<kWords>& child) {
  const std::size_t W = child.words();
  const NodeId v = move.node;
  const std::size_t vw = v >> 6;
  const std::uint64_t bit = std::uint64_t{1} << (v & 63);
  const std::uint64_t* closure = parent.closure.nodes();
  const std::uint64_t* inputs = parent.closure.inputs();
  if (move.type == MoveType::Compute && (closure[vw] & bit) != 0) {
    // v leaves C and nothing else moves: C' = C \ {v} with the parent's
    // PU (see bounds.hpp).
    std::copy_n(closure, W, parent.child.nodes());
    parent.child.nodes()[vw] &= ~bit;
    closure = parent.child.nodes();
  } else if (move.type == MoveType::Delete &&
             ((inputs[vw] | caches_.sinks[vw]) & bit) != 0) {
    // v joins the closure. A memo hit is the child's fresh walk; on a miss,
    // continue the parent's walk from {v}.
    const auto [entry, hit] = memo_entry(child);
    if (hit) {
      ++counts_.memo_hits;
      closure = entry + W;
      inputs = entry + 2 * W;
    } else {
      ++counts_.walks;
      std::array<std::uint64_t, kWords != 0 ? kWords : 1> fixed{};
      std::uint64_t* frontier = kWords != 0 ? fixed.data() : scratch_.data();
      std::uint64_t* next_closure = parent.child.nodes();
      std::uint64_t* next_inputs = parent.child.inputs();
      std::copy_n(closure, W, next_closure);
      std::copy_n(inputs, W, next_inputs);
      std::fill_n(frontier, W, std::uint64_t{0});
      frontier[vw] = bit;
      walk(child, frontier, next_closure, next_inputs);
      closure = next_closure;
      inputs = next_inputs;
    }
  }
  return tail(child, closure, inputs, [&]() -> std::optional<std::int64_t> {
    if (!parent.pdb_sum) {
      // A parent the PDB calls dead has no sum to patch.
      return pdb_->sum_scaled([&](NodeId u) { return digit_of(child, u); });
    }
    const PatternDatabase::NodeTerm term = pdb_->node_term(v);
    if (term.term == PatternDatabase::kNoTerm) return parent.pdb_sum;
    const std::size_t index = parent.projection[term.term] +
                              digit_of(child, v) * term.weight -
                              parent.digit[v] * term.weight;
    const std::int32_t d = pdb_->distance(term.term, index);
    if (d == PatternDatabase::kUnreachable) return std::nullopt;
    return *parent.pdb_sum - parent.distance[term.term] + d;
  });
}

template <std::size_t kWords>
std::optional<std::int64_t> StateBoundEvaluator::entered_bound(
    const Masks<kWords>& state, const ParentBound<kWords>& parent) {
  return tail(state, parent.closure.nodes(), parent.closure.inputs(),
              [&] { return parent.pdb_sum; });
}

template std::optional<std::int64_t> StateBoundEvaluator::lower_bound_scaled(
    const Masks<0>&);
template std::optional<std::int64_t> StateBoundEvaluator::lower_bound_scaled(
    const Masks<1>&);
template std::optional<std::int64_t> StateBoundEvaluator::lower_bound_scaled(
    const Masks<2>&);
template void StateBoundEvaluator::enter_parent(const Masks<0>&,
                                                ParentBound<0>&);
template void StateBoundEvaluator::enter_parent(const Masks<1>&,
                                                ParentBound<1>&);
template void StateBoundEvaluator::enter_parent(const Masks<2>&,
                                                ParentBound<2>&);
template std::optional<std::int64_t> StateBoundEvaluator::successor_bound(
    ParentBound<0>&, const Move&, const Masks<0>&);
template std::optional<std::int64_t> StateBoundEvaluator::successor_bound(
    ParentBound<1>&, const Move&, const Masks<1>&);
template std::optional<std::int64_t> StateBoundEvaluator::successor_bound(
    ParentBound<2>&, const Move&, const Masks<2>&);
template std::optional<std::int64_t> StateBoundEvaluator::entered_bound(
    const Masks<0>&, const ParentBound<0>&);
template std::optional<std::int64_t> StateBoundEvaluator::entered_bound(
    const Masks<1>&, const ParentBound<1>&);
template std::optional<std::int64_t> StateBoundEvaluator::entered_bound(
    const Masks<2>&, const ParentBound<2>&);

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
