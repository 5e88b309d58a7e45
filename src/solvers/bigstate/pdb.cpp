#include "src/solvers/bigstate/pdb.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <tuple>

#include "src/graph/dag_algorithms.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/pebble/bounds.hpp"
#include "src/solvers/bucket_queue.hpp"

namespace rbpeb {

std::vector<std::vector<NodeId>> partition_into_patterns(
    const Dag& dag, std::size_t max_pattern_size) {
  const std::size_t cap =
      std::clamp<std::size_t>(max_pattern_size, 1,
                              PatternDatabase::kMaxPatternSize);
  const std::size_t n = dag.node_count();
  std::vector<std::vector<NodeId>> patterns;
  std::vector<std::size_t> pattern_of(n, static_cast<std::size_t>(-1));
  for (NodeId v : topological_order(dag)) {
    // Count how many of v's direct predecessors each open pattern holds;
    // joining the densest one keeps ancestor cones together, which is where
    // the pebbling interaction the heuristic should see lives.
    std::size_t best = static_cast<std::size_t>(-1);
    std::size_t best_preds = 0;
    for (NodeId p : dag.predecessors(v)) {
      const std::size_t candidate = pattern_of[p];
      if (patterns[candidate].size() >= cap) continue;
      std::size_t preds_here = 0;
      for (NodeId q : dag.predecessors(v)) {
        if (pattern_of[q] == candidate) ++preds_here;
      }
      if (preds_here > best_preds) {
        best_preds = preds_here;
        best = candidate;
      }
    }
    if (best == static_cast<std::size_t>(-1)) {
      // No predecessor pattern has room (or v is a source): reuse the most
      // recently opened pattern when it has room — fewer, fuller patterns
      // mean fewer table lookups per evaluation — else open a fresh one.
      if (!patterns.empty() && patterns.back().size() < cap) {
        best = patterns.size() - 1;
      } else {
        patterns.emplace_back();
        best = patterns.size() - 1;
      }
    }
    pattern_of[v] = best;
    patterns[best].push_back(v);
  }
  return patterns;
}

std::vector<std::vector<NodeId>> partition_into_patterns_mincut(
    const Dag& dag, std::size_t max_pattern_size) {
  const std::size_t cap =
      std::clamp<std::size_t>(max_pattern_size, 1,
                              PatternDatabase::kMaxPatternSize);
  const std::size_t n = dag.node_count();
  if (n == 0) return {};
  const std::vector<NodeId> order = topological_order(dag);
  std::vector<std::size_t> pos(n, 0);
  for (std::size_t i = 0; i < n; ++i) pos[order[i]] = i;

  // crossing[k] = number of edges (u, v) with pos[u] < k <= pos[v] — the
  // edges a segment boundary at k abstracts away. Built as a difference
  // array: each edge crosses every boundary in (pos[u], pos[v]].
  std::vector<std::int64_t> crossing(n + 2, 0);
  for (std::size_t v = 0; v < n; ++v) {
    for (NodeId u : dag.predecessors(static_cast<NodeId>(v))) {
      const std::size_t lo = pos[u];
      const std::size_t hi = pos[v];
      crossing[lo + 1] += 1;
      crossing[hi + 1] -= 1;
    }
  }
  for (std::size_t k = 1; k <= n; ++k) crossing[k] += crossing[k - 1];

  // dp[k] = cheapest total crossing weight of the boundaries partitioning
  // the first k order positions into segments of at most `cap` nodes.
  constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max() / 2;
  std::vector<std::int64_t> dp(n + 1, kInf);
  std::vector<std::size_t> parent(n + 1, 0);
  dp[0] = 0;
  for (std::size_t k = 1; k <= n; ++k) {
    const std::size_t lo = k > cap ? k - cap : 0;
    for (std::size_t j = lo; j < k; ++j) {
      if (dp[j] == kInf) continue;
      // The boundary at k costs its crossing edges; the final boundary at n
      // closes the last segment for free (nothing crosses past the end).
      const std::int64_t cost = dp[j] + (k < n ? crossing[k] : 0);
      if (cost < dp[k]) {
        dp[k] = cost;
        parent[k] = j;
      }
    }
  }

  std::vector<std::size_t> cuts;
  for (std::size_t k = n; k > 0; k = parent[k]) cuts.push_back(k);
  std::reverse(cuts.begin(), cuts.end());
  std::vector<std::vector<NodeId>> patterns;
  std::size_t start = 0;
  for (std::size_t cut : cuts) {
    patterns.emplace_back(order.begin() + static_cast<std::ptrdiff_t>(start),
                          order.begin() + static_cast<std::ptrdiff_t>(cut));
    start = cut;
  }
  return patterns;
}

PatternDatabase::PatternDatabase(const Engine& engine,
                                 std::size_t max_pattern_size,
                                 const StopPredicate& should_stop,
                                 PdbPartition partition) {
  const Dag& dag = engine.dag();
  const std::size_t size =
      max_pattern_size == 0 ? kDefaultPatternSize : max_pattern_size;
  std::vector<std::vector<NodeId>> node_sets =
      partition == PdbPartition::MinCut
          ? partition_into_patterns_mincut(dag, size)
          : partition_into_patterns(dag, size);
  const std::int64_t cost_cap =
      universal_search_ceiling_scaled(dag, engine.model());
  const obs::TraceSpan build_span("pdb.build", "patterns", node_sets.size());
  // Patterns of one shape play the same abstract game under this engine,
  // so the first of them builds the table and the rest share it.
  using Shape = std::tuple<std::vector<std::vector<std::size_t>>,
                           std::vector<bool>, std::vector<std::size_t>>;
  std::map<Shape, std::size_t> table_of_shape;
  patterns_.resize(node_sets.size());
  node_terms_.assign(dag.node_count(), NodeTerm{kNoTerm, 0});
  for (std::size_t p = 0; p < node_sets.size(); ++p) {
    if (aborted_) break;
    const obs::TraceSpan pattern_span("pdb.pattern", "width",
                                      node_sets[p].size());
    Pattern& pattern = patterns_[p];
    pattern.nodes = std::move(node_sets[p]);
    const std::size_t width = pattern.nodes.size();
    pattern.pred_positions.resize(width);
    pattern.is_source.resize(width);
    for (std::size_t i = 0; i < width; ++i) {
      const NodeId v = pattern.nodes[i];
      pattern.is_source[i] = dag.is_source(v);
      if (dag.is_sink(v)) pattern.sink_positions.push_back(i);
      for (NodeId u : dag.predecessors(v)) {
        for (std::size_t j = 0; j < width; ++j) {
          if (pattern.nodes[j] == u) pattern.pred_positions[i].push_back(j);
        }
      }
    }
    // A sink-free pattern's abstract game requires nothing: every valid
    // projection is a goal at distance 0. It builds no table and adds
    // nothing to the sum.
    if (pattern.sink_positions.empty()) continue;
    const auto t = static_cast<std::uint32_t>(terms_.size());
    std::uint32_t weight = 1;
    for (std::size_t i = 0; i < width; ++i, weight *= 6) {
      node_terms_[pattern.nodes[i]] = {t, weight};
    }
    const auto [shape, fresh] = table_of_shape.try_emplace(
        Shape{pattern.pred_positions, pattern.is_source,
              pattern.sink_positions},
        tables_.size());
    if (fresh) {
      tables_.emplace_back();
      build_pattern(engine, pattern, tables_.back(), cost_cap, should_stop);
      table_bytes_ += tables_.back().size() * sizeof(std::int32_t);
    }
    // Growing tables_ moves the tables, never their storage.
    terms_.push_back({p, tables_[shape->second].data()});
  }
  // An aborted build's tables are discarded unread: it counts as no build.
  if (aborted_) return;
  auto& registry = obs::MetricsRegistry::instance();
  registry.counter("pdb.builds").add();
  registry.gauge("pdb.table_bytes").set(static_cast<std::int64_t>(table_bytes_));
}

void PatternDatabase::build_pattern(const Engine& engine,
                                    const Pattern& pattern,
                                    std::vector<std::int32_t>& completion,
                                    std::int64_t cost_cap,
                                    const StopPredicate& should_stop) {
  const Model& model = engine.model();
  const PebblingConvention& conv = engine.convention();
  const std::size_t p = pattern.nodes.size();
  const std::int64_t r = static_cast<std::int64_t>(engine.red_limit());
  const std::int64_t eps_num = model.epsilon().num();
  const std::int64_t eps_den = model.epsilon().den();
  constexpr unsigned kNone = digit(PebbleColor::None, false);
  constexpr unsigned kRed = digit(PebbleColor::Red, false);
  constexpr unsigned kBlue = digit(PebbleColor::Blue, false);
  constexpr unsigned kComputed = digit(PebbleColor::None, true);
  std::vector<std::size_t> weight(p + 1, 1);
  for (std::size_t i = 0; i < p; ++i) weight[i + 1] = 6 * weight[i];
  const std::size_t table_size = weight[p];

  // The digits of the state at hand: the goal sweep's odometer, then each
  // popped state decoded once.
  std::vector<unsigned> digits(p, 0);
  auto is_goal = [&] {
    for (std::size_t i : pattern.sink_positions) {
      const unsigned color = digits[i] % 3;
      if (conv.sinks_end_blue ? color != kBlue : color == kNone) return false;
    }
    return true;
  };

  // Backward Dijkstra from every complete projection over move pre-images.
  // Distances clamp at cost_cap (an underestimate, so still admissible —
  // and never reached in practice: cost_cap is the Section 3 universal
  // ceiling for the whole DAG).
  completion.assign(table_size, kUnreachable);
  BucketQueue<std::uint32_t> queue(static_cast<std::size_t>(cost_cap) + 1);
  // The goal sweep and the Dijkstra below are the only unbounded loops in a
  // PDB build; both poll the cooperative stop hook so a cancelled solve is
  // never pinned behind a 6^8-entry table (the searches' poll cadence,
  // scaled up — these iterations are far cheaper than an expansion).
  constexpr std::size_t kStopPollMask = 0xFFFu;
  for (std::size_t index = 0; index < table_size; ++index) {
    if ((index & kStopPollMask) == 0 && should_stop && should_stop()) {
      aborted_ = true;
      return;
    }
    if (is_goal()) {
      completion[index] = 0;
      queue.push(0, static_cast<std::uint32_t>(index));
    }
    for (std::size_t i = 0; i < p && ++digits[i] == 6; ++i) digits[i] = 0;
  }

  std::size_t pops = 0;
  while (!queue.empty()) {
    if ((pops++ & kStopPollMask) == 0 && should_stop && should_stop()) {
      aborted_ = true;
      return;
    }
    auto [d, popped] = queue.pop();
    const auto index = static_cast<std::size_t>(popped);
    if (completion[index] != d) continue;  // stale duplicate
    std::int64_t red = 0;
    for (std::size_t i = 0, rest = index; i < p; ++i, rest /= 6) {
      digits[i] = static_cast<unsigned>(rest % 6);
      if (digits[i] % 3 == kRed) ++red;
    }
    // Each pre-image differs from the popped state at position i alone, and
    // is legal there under every rule of Engine::why_illegal that mentions
    // only pattern nodes — so a concrete-legal move is always abstract-legal
    // on the projection, which is what makes the table admissible.
    for (std::size_t i = 0; i < p; ++i) {
      const unsigned to = digits[i];
      const unsigned computed = to - to % 3;
      auto relax = [&](unsigned from, std::int64_t cost) {
        const std::size_t pre = index - to * weight[i] + from * weight[i];
        const std::int64_t nd = std::min(d + cost, cost_cap);
        std::int32_t& entry = completion[pre];
        if (entry != kUnreachable && entry <= nd) return;
        entry = static_cast<std::int32_t>(nd);
        queue.push(nd, static_cast<std::uint32_t>(pre));
      };
      switch (to % 3) {
        case kRed: {
          // Load and Compute both need a free red pebble in the pre-image,
          // which holds one red fewer.
          if (red - 1 >= r) break;
          // Load lands on Red from Blue, computed untouched.
          relax(kBlue + computed, eps_den);
          // Compute lands on Red+computed from None or Blue, either prior
          // computed flag unless recomputation is forbidden.
          if (computed == 0) break;
          if (conv.sources_start_blue && pattern.is_source[i]) break;
          const bool preds_red = std::all_of(
              pattern.pred_positions[i].begin(),
              pattern.pred_positions[i].end(),
              [&](std::size_t j) { return digits[j] % 3 == kRed; });
          if (!preds_red) break;
          for (unsigned from : {kNone, kBlue}) {
            relax(from, eps_num);
            if (model.allows_recompute()) relax(from + kComputed, eps_num);
          }
          break;
        }
        case kBlue:
          relax(kRed + computed, eps_den);  // Store from Red
          break;
        case kNone:
          if (!model.allows_delete()) break;
          relax(kRed + computed, 0);  // Delete from Red or Blue
          relax(kBlue + computed, 0);
          break;
      }
    }
  }
}

}  // namespace rbpeb
