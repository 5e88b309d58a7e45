#include "src/solvers/exact_astar.hpp"

#include <utility>

#include "src/pebble/bounds.hpp"
#include "src/solvers/anytime_astar.hpp"
#include "src/solvers/expander.hpp"

namespace rbpeb {

static_assert(kExactAstarMaxNodes == StateBoundEvaluator::kVecMaskMaxNodes,
              "the search cap is the runtime-width bound cap");
static_assert(kExactAstarFixedMaxNodes == PackedKey<2>::max_nodes(),
              "the fixed-width cap is the two-word packing limit");

std::optional<ExactResult> try_solve_exact_astar(
    const Engine& engine, const ExactSearchOptions& options,
    ExactSearchStats* stats) {
  ExactSearchStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  AnytimeOptions one_pass;
  one_pass.weights = {{1, 1}};
  std::optional<AnytimeResult> run = run_astar_driver(
      engine, options, one_pass,
      AstarTraceNames{"astar.search", "astar.pass", "astar.checkpoint"},
      stats);
  // exact-astar emits no certificate: the anytime-only fields keep their
  // defaults, and an answer short of a proof is no answer.
  stats->lower_bound_scaled = -1;
  stats->incumbent_scaled = -1;
  stats->anytime_passes = 0;
  if (!run || !run->optimal) return std::nullopt;
  return ExactResult{std::move(run->trace), run->cost, run->states_expanded};
}

std::optional<ExactResult> try_solve_exact_astar(
    const Engine& engine, std::size_t max_states,
    const StopPredicate& should_stop, ExactSearchStats* stats) {
  ExactSearchOptions options;
  options.max_states = max_states;
  options.should_stop = should_stop;
  return try_solve_exact_astar(engine, options, stats);
}

ExactResult solve_exact_astar(const Engine& engine, std::size_t max_states) {
  ExactSearchStats stats;
  auto result = try_solve_exact_astar(engine, max_states, {}, &stats);
  return result_or_throw(std::move(result), stats.termination,
                         "solve_exact_astar");
}

}  // namespace rbpeb
