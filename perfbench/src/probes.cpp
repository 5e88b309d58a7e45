// The probe pass of a traced run: drives the public functions of each layer
// on seeded states sampled from the workload's own instances and reports
// time per call. Every batch of calls is one span, named by the layer that
// owns the function.
#include "probes.hpp"

#include <algorithm>
#include <filesystem>
#include <memory>

#include "src/graph/dag_io.hpp"
#include "src/instances/binary_format.hpp"
#include "src/instances/spec.hpp"
#include "src/pebble/bounds.hpp"
#include "src/pebble/verifier.hpp"
#include "src/serve/canonical.hpp"
#include "src/serve/trace_cache.hpp"
#include "src/solvers/bigstate/ddd.hpp"
#include "src/solvers/bigstate/pdb.hpp"
#include "src/solvers/bigstate/var_state.hpp"
#include "src/solvers/bucket_queue.hpp"
#include "src/solvers/greedy.hpp"
#include "src/solvers/packed_state.hpp"
#include "src/support/rng.hpp"

namespace perfbench {

using namespace rbpeb;

namespace {

/// Results the probes compute go here, so no timed call is optimized away.
volatile std::int64_t g_sink = 0;

constexpr MoveType kMoveTypes[] = {MoveType::Load, MoveType::Store,
                                   MoveType::Compute, MoveType::Delete};

/// A seeded random walk from the initial state: its legal moves and every
/// state it passed through (the sample the probes run on).
struct Walk {
  std::vector<Move> moves;
  std::vector<GameState> states;
};

/// Candidate probes per target, so 512-node instances cost no more than
/// small ones.
constexpr std::size_t kProbeBudget = 24'000;

Walk random_walk(const Engine& engine, Rng& rng, std::size_t length) {
  const std::size_t n = engine.dag().node_count();
  Walk walk;
  GameState state = engine.initial_state();
  walk.states.push_back(state);
  std::vector<Move> legal;
  Cost cost;
  for (std::size_t step = 0; step < length; ++step) {
    legal.clear();
    for (std::size_t v = 0; v < n; ++v) {
      for (MoveType type : kMoveTypes) {
        const Move move{type, static_cast<NodeId>(v)};
        if (engine.is_legal(state, move)) legal.push_back(move);
      }
    }
    if (legal.empty() || engine.is_complete(state)) break;
    // Prefer computes so walks make progress into the DAG, as searches do.
    std::vector<Move> computes;
    for (const Move& m : legal) {
      if (m.type == MoveType::Compute) computes.push_back(m);
    }
    const std::vector<Move>& pool =
        !computes.empty() && rng.next_bool(0.6) ? computes : legal;
    const Move move = pool[rng.next_below(pool.size())];
    engine.apply(state, move, cost);
    walk.moves.push_back(move);
    walk.states.push_back(state);
  }
  return walk;
}

/// ns per call of `fn` over `count` calls, timed as one batch in one span.
template <class Fn>
double time_batch_ns(SpanRecorder& spans, const char* name, const char* layer,
                     std::size_t count, Fn&& fn) {
  const ScopedSpan span(spans, name, layer, 0);
  const auto t0 = Clock::now();
  fn();
  const double ns = ms_between(t0, Clock::now()) * 1e6;
  return count == 0 ? 0 : ns / static_cast<double>(count);
}

/// Mean of per-call times, weighted by call count.
struct Mean {
  double total_ns = 0;
  double calls = 0;
  void add(double ns_per_call, std::size_t n) {
    total_ns += ns_per_call * static_cast<double>(n);
    calls += static_cast<double>(n);
  }
  double value() const { return calls == 0 ? 0 : total_ns / calls; }
};

template <class Packed>
double relax_walk_keys(SpanRecorder& spans, const std::vector<Walk>& walks,
                       std::size_t node_count, std::size_t* table_bytes,
                       std::size_t* relaxes) {
  std::vector<typename Packed::Key> keys;
  std::vector<typename Packed::Key> parents;
  std::vector<Move> via;
  for (const Walk& walk : walks) {
    for (std::size_t i = 1; i < walk.states.size(); ++i) {
      keys.push_back(Packed::from_state(walk.states[i]).key());
      parents.push_back(Packed::from_state(walk.states[i - 1]).key());
      via.push_back(walk.moves[i - 1]);
    }
  }
  SpillingClosedTable<Packed> table(node_count, 0, "", 0);
  const double ns = time_batch_ns(spans, "SpillingClosedTable::relax",
                                  "bigstate", keys.size(), [&] {
    for (std::size_t i = 0; i < keys.size(); ++i) {
      table.relax(keys[i], static_cast<std::int64_t>(i % 97), parents[i],
                  via[i]);
    }
  });
  *table_bytes = std::max(*table_bytes, table.bytes());
  *relaxes = keys.size();
  return ns;
}

}  // namespace

void run_probes(Context& ctx, const std::vector<ProbeTarget>& targets,
                const ProbeOptions& options) {
  SpanRecorder& spans = ctx.spans;
  Report& report = ctx.report;
  Rng rng(ctx.config.seed * 0x9E3779B97F4A7C15ULL + 17);
  const ScopedSpan pass_span(spans, "probe_pass", "bench", 0);

  Mean probe, apply, bound_w1, bound_w2, bound_wn, queue_push, queue_pop,
      relax, pdb_lookup, from_text_us, rbg_load_us, resolve_ms, greedy_ms;
  std::size_t legal = 0;
  std::size_t probes = 0;
  double verify_us = 0;
  double verify_kmoves = 0;
  double pdb_build_ms = 0;
  std::size_t pdb_bytes = 0;
  std::size_t table_bytes = 0;
  std::vector<double> canonicalize_us;
  Mean lookup_us, insert_us;

  const std::filesystem::path rbg_dir =
      std::filesystem::path(ctx.config.work_dir) / "probe";
  std::filesystem::create_directories(rbg_dir);

  for (std::size_t t = 0; t < targets.size(); ++t) {
    const ProbeTarget& target = targets[t];
    const Engine& engine = *target.engine;
    const Dag& dag = engine.dag();
    const std::size_t n = dag.node_count();

    // ---- sample: seeded walks over legal moves ---------------------------
    std::vector<Walk> walks;
    std::size_t sampled = 0;
    const std::size_t want = std::max<std::size_t>(8, kProbeBudget / (4 * n));
    while (sampled < want && walks.size() < 64) {
      walks.push_back(random_walk(engine, rng, 3 * n));
      sampled += walks.back().states.size();
    }
    std::vector<const GameState*> states;
    for (const Walk& walk : walks) {
      for (const GameState& s : walk.states) states.push_back(&s);
    }
    rng.shuffle(states);
    if (states.size() > want) states.resize(want);

    // ---- instances: resolve, text parse, .rbg load -----------------------
    if (!target.spec.empty()) {
      resolve_ms.add(time_batch_ns(spans, "resolve_instance", "instances", 1,
                                   [&] {
                                     instances::resolve_instance(target.spec);
                                   }) / 1e6,
                     1);
    }
    const std::string text = to_text(dag);
    from_text_us.add(
        time_batch_ns(spans, "from_text", "instances", 1,
                      [&] { from_text(text); }) / 1e3,
        1);
    const std::string rbg_path =
        (rbg_dir / ("target" + std::to_string(t) + ".rbg")).string();
    instances::write_rbg_file(dag, rbg_path);
    rbg_load_us.add(time_batch_ns(spans, "load_rbg_file", "instances", 1,
                                  [&] { instances::load_rbg_file(rbg_path); }) /
                        1e3,
                    1);

    // ---- pebble: legality probes, apply, bounds, verify ------------------
    std::size_t target_probes = 0;
    std::size_t target_legal = 0;
    const double probe_ns = time_batch_ns(
        spans, "Engine::is_legal", "pebble", states.size() * 4 * n, [&] {
          for (const GameState* s : states) {
            for (std::size_t v = 0; v < n; ++v) {
              for (MoveType type : kMoveTypes) {
                ++target_probes;
                if (engine.is_legal(*s, Move{type, static_cast<NodeId>(v)})) {
                  ++target_legal;
                }
              }
            }
          }
        });
    probe.add(probe_ns, target_probes);
    probes += target_probes;
    legal += target_legal;

    std::size_t applies = 0;
    for (const Walk& walk : walks) applies += walk.moves.size();
    const double apply_ns =
        time_batch_ns(spans, "Engine::apply", "pebble", applies, [&] {
          for (const Walk& walk : walks) {
            GameState state = engine.initial_state();
            Cost cost;
            for (const Move& move : walk.moves) engine.apply(state, move, cost);
          }
        });
    apply.add(apply_ns, applies);

    // The mask width the searches use at this size: one word, two, or
    // runtime-width.
    StateBoundEvaluator evaluator(engine);
    std::int64_t bound_sink = 0;
    std::vector<std::int64_t> bounds(states.size(), 0);
    const auto time_bounds = [&]<class Masks>(const char* name, Mean& mean) {
      std::vector<Masks> masks;
      for (const GameState* s : states) masks.push_back(Masks::from(*s, n));
      mean.add(time_batch_ns(spans, name, "pebble", masks.size(), [&] {
                 for (std::size_t i = 0; i < masks.size(); ++i) {
                   bounds[i] = evaluator.lower_bound_scaled(masks[i]).value_or(-1);
                 }
               }),
               masks.size());
    };
    using Eval = StateBoundEvaluator;
    if (n <= Eval::kMaskMaxNodes) {
      time_bounds.operator()<Eval::StateMasks>("lower_bound_scaled(StateMasks)",
                                               bound_w1);
    } else if (n <= Eval::kWideMaskMaxNodes) {
      time_bounds.operator()<Eval::WideStateMasks>(
          "lower_bound_scaled(WideStateMasks)", bound_w2);
    } else if (n <= Eval::kVecMaskMaxNodes) {
      time_bounds.operator()<Eval::MaskVec>("lower_bound_scaled(MaskVec)",
                                            bound_wn);
    }
    for (std::int64_t b : bounds) bound_sink += b;

    Trace greedy_trace;
    greedy_ms.add(time_batch_ns(spans, "solve_greedy", "solvers", 1,
                                [&] { greedy_trace = solve_greedy(engine); }) /
                      1e6,
                  1);
    VerifyResult verified;
    const double verify_ns = time_batch_ns(
        spans, "verify", "pebble", 1,
        [&] { verified = verify(engine, greedy_trace); });
    ctx.ledger.check(verified.ok(), "probe: greedy trace fails verify on " +
                                       target.id);
    verify_us += verify_ns / 1e3;
    verify_kmoves += static_cast<double>(greedy_trace.size()) / 1e3;

    // ---- solvers: the Dial bucket queue, fed the sampled f-values --------
    {
      std::vector<std::int64_t> priorities;
      for (std::size_t i = 0; i < bounds.size(); ++i) {
        if (bounds[i] < 0) continue;
        priorities.push_back(bounds[i] +
                             static_cast<std::int64_t>(rng.next_below(64)));
      }
      // Repeat the sample so a batch is long enough to time.
      const std::size_t reps =
          priorities.empty() ? 0 : std::max<std::size_t>(1, 20'000 / priorities.size());
      std::int64_t max_priority = 0;
      for (std::int64_t p : priorities) max_priority = std::max(max_priority, p);
      BucketQueue<std::uint64_t> queue(static_cast<std::size_t>(max_priority) + 1);
      const std::size_t count = reps * priorities.size();
      queue_push.add(time_batch_ns(spans, "BucketQueue::push", "solvers", count,
                                   [&] {
                                     for (std::size_t r = 0; r < reps; ++r) {
                                       for (std::size_t i = 0; i < priorities.size(); ++i) {
                                         queue.push(priorities[i], i);
                                       }
                                     }
                                   }),
                     count);
      std::uint64_t pop_sink = 0;
      queue_pop.add(time_batch_ns(spans, "BucketQueue::pop", "solvers", count,
                                  [&] {
                                    while (!queue.empty()) pop_sink += queue.pop().second;
                                  }),
                    count);
      bound_sink += static_cast<std::int64_t>(pop_sink & 1);
    }

    // ---- bigstate: closed-table relax and pattern databases --------------
    std::size_t relaxes = 0;
    double relax_ns = 0;
    if (n <= PackedState64::max_nodes()) {
      relax_ns = relax_walk_keys<PackedState64>(spans, walks, n, &table_bytes,
                                                &relaxes);
    } else if (n <= PackedState128::max_nodes()) {
      relax_ns = relax_walk_keys<PackedState128>(spans, walks, n, &table_bytes,
                                                 &relaxes);
    } else {
      relax_ns = relax_walk_keys<VarPackedState>(spans, walks, n, &table_bytes,
                                                 &relaxes);
    }
    relax.add(relax_ns, relaxes);

    if (options.pdb) {
      std::unique_ptr<PatternDatabase> pdb;
      pdb_build_ms += time_batch_ns(spans, "PatternDatabase", "bigstate", 1, [&] {
                        pdb = std::make_unique<PatternDatabase>(engine);
                      }) /
                      1e6;
      pdb_bytes += pdb->table_bytes();
      pdb_lookup.add(time_batch_ns(spans, "PatternDatabase::lower_bound_scaled",
                                   "bigstate", states.size(), [&] {
                                     for (const GameState* s : states) {
                                       bound_sink += pdb->lower_bound_scaled(*s).value_or(-1);
                                     }
                                   }),
                     states.size());
    }

    // ---- serve: canonicalization, fingerprint, cache insert and lookup ----
    if (options.serve) {
      serve::CanonicalForm form;
      canonicalize_us.push_back(
          time_batch_ns(spans, "canonicalize", "serve", 1,
                        [&] { form = serve::canonicalize(dag); }) /
          1e3);
      const std::string fingerprint = serve::instance_fingerprint(
          form, engine.model(), engine.convention(), engine.red_limit(),
          "greedy", {});
      serve::TraceCache cache(0);
      bool inserted = false;
      insert_us.add(time_batch_ns(spans, "TraceCache::insert", "serve", 1,
                                  [&] {
                                    inserted = cache.insert(
                                        fingerprint, engine, form, greedy_trace,
                                        SolveStatus::Heuristic, "greedy");
                                  }) /
                        1e3,
                    1);
      std::optional<serve::CachedAnswer> hit;
      lookup_us.add(time_batch_ns(spans, "TraceCache::lookup", "serve", 1,
                                  [&] { hit = cache.lookup(fingerprint, engine, form); }) /
                        1e3,
                    1);
      ctx.ledger.check(inserted && hit.has_value(),
                       "probe: trace cache round trip failed on " + target.id);
    }
    g_sink = g_sink + bound_sink;
  }
  std::filesystem::remove_all(rbg_dir);

  report.set("pebble.probe_ns", probe.value(), "ns");
  report.set("pebble.legal_ratio",
             probes == 0 ? 0 : static_cast<double>(legal) / static_cast<double>(probes),
             "ratio");
  report.set("pebble.apply_ns", apply.value(), "ns");
  report.set("pebble.bound_w1_ns", bound_w1.value(), "ns");
  report.set("pebble.bound_w2_ns", bound_w2.value(), "ns");
  report.set("pebble.bound_wn_ns", bound_wn.value(), "ns");
  report.set("pebble.verify_us_per_kmove",
             verify_kmoves == 0 ? 0 : verify_us / verify_kmoves, "us");
  report.set("solvers.greedy_ms", greedy_ms.value(), "ms");
  report.set("solvers.queue_push_ns", queue_push.value(), "ns");
  report.set("solvers.queue_pop_ns", queue_pop.value(), "ns");
  report.set("bigstate.table_relax_ns", relax.value(), "ns");
  report.set("bigstate.table_bytes", static_cast<double>(table_bytes), "bytes");
  report.set("bigstate.pdb_build_ms", pdb_build_ms, "ms");
  report.set("bigstate.pdb_lookup_ns", pdb_lookup.value(), "ns");
  report.set("bigstate.pdb_bytes", static_cast<double>(pdb_bytes), "bytes");
  report.set("instances.from_text_us", from_text_us.value(), "us");
  report.set("instances.rbg_load_us", rbg_load_us.value(), "us");
  report.set("instances.resolve_ms", resolve_ms.value(), "ms");
  if (options.serve) {
    report.set("serve.canonicalize_us.p50", percentile(canonicalize_us, 0.5), "us");
    report.set("serve.canonicalize_us.p99", percentile(canonicalize_us, 0.99), "us");
    report.set("serve.lookup_us", lookup_us.value(), "us");
    report.set("serve.insert_us", insert_us.value(), "us");
  }
}

}  // namespace perfbench
