#include "src/solvers/greedy.hpp"

#include <algorithm>
#include <span>

#include "src/graph/dag_algorithms.hpp"
#include "src/support/check.hpp"

namespace rbpeb {

const char* to_string(GreedyRule rule) {
  switch (rule) {
    case GreedyRule::MostRedInputs: return "most-red-inputs";
    case GreedyRule::FewestBlueInputs: return "fewest-blue-inputs";
    case GreedyRule::RedRatio: return "red-ratio";
  }
  return "?";
}

std::optional<GreedyRule> greedy_rule_from_name(std::string_view name) {
  for (GreedyRule rule : {GreedyRule::MostRedInputs, GreedyRule::FewestBlueInputs,
                          GreedyRule::RedRatio}) {
    if (name == to_string(rule)) return rule;
  }
  return std::nullopt;
}

namespace {

/// Incremental solver state shared by the phases of one run. The next node
/// comes from the fixed `order` when one is given, else from scoring the
/// ready set under options.rule; everything else is shared.
class GreedyRun {
 public:
  GreedyRun(const Engine& engine, const GreedyOptions& options,
            std::span<const NodeId> order)
      : engine_(engine),
        dag_(engine.dag()),
        options_(options),
        order_(order),
        rng_(options.seed),
        state_(engine.initial_state()),
        n_(dag_.node_count()),
        red_pred_count_(n_, 0),
        remaining_uses_(n_, 0),
        last_use_tick_(n_, -1),
        uncomputed_pred_count_(n_, 0),
        in_ready_(n_, false),
        is_sink_(n_, false) {
    for (std::size_t v = 0; v < n_; ++v) {
      NodeId id = static_cast<NodeId>(v);
      remaining_uses_[v] = static_cast<std::int64_t>(dag_.outdegree(id));
      uncomputed_pred_count_[v] = dag_.indegree(id);
      is_sink_[v] = dag_.is_sink(id);
      if (scored() && uncomputed_pred_count_[v] == 0) push_ready(id);
    }
  }

  Trace run() {
    for (std::size_t computed = 0; computed < n_; ++computed) {
      compute_node(scored() ? take_candidate() : order_[computed]);
    }
    return std::move(trace_);
  }

 private:
  /// Whether the next node is picked by scoring (no fixed order). The ready
  /// set and red-input counts are kept only for scoring.
  bool scored() const { return order_.empty(); }

  NodeId take_candidate() {
    RBPEB_ENSURE(!ready_.empty(),
                 "greedy deadlock: no candidate node is computable");
    NodeId v = pick_candidate();
    remove_ready(v);
    return v;
  }

  void push_ready(NodeId v) {
    if (!in_ready_[v]) {
      in_ready_[v] = true;
      ready_.push_back(v);
    }
  }

  void remove_ready(NodeId v) {
    auto it = std::find(ready_.begin(), ready_.end(), v);
    RBPEB_ENSURE(it != ready_.end(), "candidate missing from ready set");
    *it = ready_.back();
    ready_.pop_back();
    in_ready_[v] = false;
  }

  /// Apply a move through the engine and keep red_pred_count_ incremental.
  void apply(Move move) {
    bool was_red = state_.is_red(move.node);
    engine_.apply(state_, move, cost_);
    trace_.push(move);
    bool now_red = state_.is_red(move.node);
    if (scored() && was_red != now_red) {
      int delta = now_red ? 1 : -1;
      for (NodeId w : dag_.successors(move.node)) red_pred_count_[w] += delta;
    }
  }

  /// The Section 8 node-choice rules, with deterministic smallest-id
  /// tie-breaking. Higher score wins.
  NodeId pick_candidate() const {
    NodeId best = kInvalidNode;
    // Scores compared as exact fractions score_num/score_den.
    std::int64_t best_num = 0, best_den = 1;
    for (NodeId v : ready_) {
      std::int64_t num = 0, den = 1;
      const auto indeg = static_cast<std::int64_t>(dag_.indegree(v));
      const std::int64_t red = red_pred_count_[v];
      switch (options_.rule) {
        case GreedyRule::MostRedInputs:
          num = red;
          break;
        case GreedyRule::FewestBlueInputs:
          // All inputs of a candidate are computed and never deleted while
          // still needed, so blue inputs = indegree - red inputs.
          num = red - indeg;
          break;
        case GreedyRule::RedRatio:
          // Sources have no inputs; by convention their ratio is 0 so that
          // nodes with actual red inputs are preferred.
          num = red;
          den = indeg > 0 ? indeg : 1;
          break;
      }
      bool better;
      if (best == kInvalidNode) {
        better = true;
      } else {
        // num/den > best_num/best_den, denominators positive.
        std::int64_t lhs = num * best_den;
        std::int64_t rhs = best_num * den;
        better = lhs > rhs || (lhs == rhs && v < best);
      }
      if (better) {
        best = v;
        best_num = num;
        best_den = den;
      }
    }
    return best;
  }

  /// Evict red pebbles (never the protected ones) until `slots` are free.
  void make_room(std::size_t slots, const std::span<const NodeId> protect) {
    if (state_.red_count() + slots <= engine_.red_limit()) return;
    // Gather candidates once. `protect` is one node's predecessor list
    // (≤ Δ entries), so a linear membership scan beats the O(n) stamp
    // vector this used to allocate on every eviction — that allocation was
    // quadratic over a whole solve and dominated 10⁵-node instances.
    auto is_protected = [&protect](NodeId r) {
      return std::find(protect.begin(), protect.end(), r) != protect.end();
    };
    std::vector<NodeId> dead, live;
    for (NodeId r : state_.red_nodes()) {
      if (is_protected(r)) continue;
      if (remaining_uses_[r] == 0 && !is_sink_[r]) dead.push_back(r);
      else live.push_back(r);
    }
    while (state_.red_count() + slots > engine_.red_limit()) {
      NodeId victim;
      bool victim_dead;
      if (!dead.empty()) {
        victim = dead.back();
        dead.pop_back();
        victim_dead = true;
      } else {
        victim = choose_victim(options_.eviction, live, remaining_uses_,
                               last_use_tick_, rng_);
        live.erase(std::find(live.begin(), live.end(), victim));
        victim_dead = false;
      }
      if (victim_dead && engine_.model().allows_delete()) {
        apply(erase(victim));
      } else {
        apply(store(victim));
      }
    }
  }

  void compute_node(NodeId v) {
    auto preds = dag_.predecessors(v);

    // Bring blue inputs back to red. Inputs are never deleted while they
    // still have uncomputed consumers, so each non-red input is blue.
    std::vector<NodeId> to_load;
    for (NodeId p : preds) {
      if (!state_.is_red(p)) {
        RBPEB_ENSURE(state_.is_blue(p),
                     "input of the next node is neither red nor blue");
        to_load.push_back(p);
      }
    }
    make_room(to_load.size() + 1, preds);
    for (NodeId p : to_load) apply(load(p));

    apply(compute(v));
    ++tick_;
    for (NodeId p : preds) last_use_tick_[p] = tick_;
    last_use_tick_[v] = tick_;

    // Consume one use of each input; drop inputs that just died.
    for (NodeId p : preds) {
      if (--remaining_uses_[p] == 0 && !is_sink_[p] &&
          engine_.model().allows_delete() && !state_.is_empty(p)) {
        apply(erase(p));
      }
    }

    if (!scored()) return;
    for (NodeId w : dag_.successors(v)) {
      if (--uncomputed_pred_count_[w] == 0) push_ready(w);
    }
  }

  const Engine& engine_;
  const Dag& dag_;
  GreedyOptions options_;
  std::span<const NodeId> order_;  ///< Fixed computation order; empty = scored.
  Rng rng_;
  GameState state_;
  Cost cost_;
  Trace trace_;
  const std::size_t n_;
  std::vector<std::int64_t> red_pred_count_;
  std::vector<std::int64_t> remaining_uses_;
  std::vector<std::int64_t> last_use_tick_;
  std::vector<std::size_t> uncomputed_pred_count_;
  std::vector<NodeId> ready_;
  std::vector<bool> in_ready_;
  std::vector<bool> is_sink_;
  std::int64_t tick_ = 0;
};

}  // namespace

Trace solve_greedy(const Engine& engine, const GreedyOptions& options) {
  return GreedyRun(engine, options, {}).run();
}

Trace pebble_in_order(const Engine& engine, const std::vector<NodeId>& order,
                      const GreedyOptions& options) {
  RBPEB_REQUIRE(is_topological_order(engine.dag(), order),
                "computation order must be topological");
  return GreedyRun(engine, options, order).run();
}

Trace solve_topo_baseline(const Engine& engine, const GreedyOptions& options) {
  return pebble_in_order(engine, topological_order(engine.dag()), options);
}

}  // namespace rbpeb
