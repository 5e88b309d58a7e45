// Serve traffic: the rbpeb_serve subsystem under Zipfian request streams.
//
// Real solve workloads are heavily skewed — the same few instances (a
// tuning sweep's inner kernel, a CI suite's fixed cases) arrive over and
// over, while a long tail of one-offs trickles in. This bench drives the
// serve Server with exactly that shape: a fixed pool of distinct instances
// sampled Zipfian(s = 1.1) by closed-loop clients at 1, 8 and 64 ways of
// concurrency, and reports to BENCH_serve.json (or argv[1]) in the
// bench/report.hpp schema, one case per client count ("clients=<N>") and
// one per pool instance ("instance=<name>"):
//
//  * hit counts and hit rate — with a fresh per-run cache that never evicts
//    (the pool is tiny), hits are DETERMINISTIC: every distinct instance is
//    solved exactly once (single-flight collapses concurrent identical
//    requests), so hits = requests − distinct at every client count. CI
//    gates hit_rate > 0 on this.
//  * per-request latency (p50 / p99 microseconds) and throughput — the
//    cache's point: repeat latency is an audit replay, not a solve. These
//    are machine-dependent and informational (hardware_concurrency is
//    recorded alongside).
//  * the byte-identity audit, enforced by the exit code: within each run,
//    every cache/flight answer must match its instance's cold (miss) answer
//    byte-for-byte in both cost and trace text; across runs, every
//    instance's audited cost must agree at all client counts.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <iostream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/report.hpp"
#include "src/graph/dag_io.hpp"
#include "src/instances/spec.hpp"
#include "src/serve/server.hpp"
#include "src/support/rng.hpp"

namespace {

using namespace rbpeb;
using namespace rbpeb::serve;

constexpr std::size_t kRequests = 384;  ///< per run (shared by all clients)
constexpr double kZipfS = 1.1;
constexpr std::uint64_t kSeedBase = 0x5EE7BEEF;

struct Instance {
  std::string name;
  std::string dag_text;
  std::size_t red_limit;
  std::string solver;  ///< also part of the fingerprint
};

/// The instance pool: every miss must solve in milliseconds (the bench
/// measures the serve layer, not the solvers), the solvers chosen must be
/// deterministic so costs agree across runs (single-threaded heuristics,
/// or exact solvers that PROVE optimal within the small budget — optimal
/// cost is unique), and the total footprint must fit the default cache
/// without evicting, keeping the hit count deterministic.
std::vector<Instance> make_pool() {
  std::vector<Instance> pool;
  // The pool arrives through the InstanceSpec grammar — the same strings the
  // CLI and the corpus manifest use, so a bench instance can be regenerated
  // with `rbpeb_cli gen <spec>`.
  const auto add = [&pool](std::string name, const std::string& spec,
                           std::size_t r, std::string solver) {
    pool.push_back({std::move(name),
                    to_text(instances::resolve_instance(spec).dag), r,
                    std::move(solver)});
  };
  add("tree4@portfolio", "tree:leaves=4", 3, "portfolio");
  add("fft4@portfolio", "fft:size=4", 3, "portfolio");
  add("stencil4x3@portfolio", "stencil:width=4,steps=3", 4, "portfolio");
  add("chain6@exact", "chain:n=6", 2, "exact");
  add("chain10@exact", "chain:n=10", 2, "exact");
  add("chain14@greedy", "chain:n=14", 3, "greedy");
  add("fft4r4@exact-astar", "fft:size=4", 4, "exact-astar");
  add("tree16@peephole", "tree:leaves=16", 4, "peephole");
  add("tree8r3@greedy", "tree:leaves=8", 3, "greedy");
  add("tree8r4@greedy", "tree:leaves=8", 4, "greedy");
  add("stencil5x2@greedy", "stencil:width=5,steps=2", 4, "greedy");
  add("tree16@fewest-blue", "tree:leaves=16", 4, "greedy-fewest-blue");
  return pool;
}

/// Small per-request budgets: misses must stay fast, and the exact racers
/// in the portfolio instances still prove optimality inside them.
constexpr std::size_t kBudgetStates = 20'000;
constexpr std::size_t kBudgetIterations = 200;

/// Zipfian CDF over the pool (rank popularity 1/(k+1)^s).
std::vector<double> zipf_cdf(std::size_t n, double s) {
  std::vector<double> cdf(n);
  double total = 0;
  for (std::size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf[k] = total;
  }
  for (double& v : cdf) v /= total;
  return cdf;
}

std::size_t zipf_sample(const std::vector<double>& cdf, Rng& rng) {
  const double u = rng.next_double();
  const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
  return static_cast<std::size_t>(std::min<std::ptrdiff_t>(
      it - cdf.begin(), static_cast<std::ptrdiff_t>(cdf.size()) - 1));
}

struct RunResult {
  std::size_t clients = 0;
  std::size_t requests = 0;
  std::size_t distinct = 0;
  std::uint64_t hits = 0;    ///< cache + flight
  std::uint64_t solves = 0;  ///< dispatched fresh
  std::uint64_t solved_ok = 0;
  std::uint64_t audit_failures = 0;
  std::int64_t p50_us = 0;
  std::int64_t p99_us = 0;
  std::int64_t wall_ms = 0;
  double throughput_rps = 0;
  std::size_t trace_mismatches = 0;  ///< hit answer != cold answer, bytes
  /// Per-instance audited cost (all answers for an instance must agree).
  std::map<std::string, std::string> costs;
};

RunResult run_traffic(const std::vector<Instance>& pool, std::size_t clients) {
  ServerOptions options;
  options.workers = std::max<std::size_t>(2, clients > 8 ? 8 : clients);
  Server server(options);

  // Pre-draw the whole request schedule so the sampled mix is identical at
  // every client count (the seed covers the run, not the thread).
  Rng rng(kSeedBase + clients);
  const std::vector<double> cdf = zipf_cdf(pool.size(), kZipfS);
  std::vector<std::size_t> schedule(kRequests);
  std::vector<bool> seen(pool.size(), false);
  std::size_t distinct = 0;
  for (std::size_t i = 0; i < kRequests; ++i) {
    schedule[i] = zipf_sample(cdf, rng);
    if (!seen[schedule[i]]) {
      seen[schedule[i]] = true;
      ++distinct;
    }
  }

  std::mutex collect_mutex;
  std::vector<std::int64_t> latencies_us;
  latencies_us.reserve(kRequests);
  // instance → (cost, trace) of each answer kind, for the byte audit.
  std::map<std::string, std::pair<std::string, std::string>> cold;
  std::map<std::string, std::pair<std::string, std::string>> served;
  std::size_t trace_mismatches = 0;

  const auto start = std::chrono::steady_clock::now();
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      // Closed loop: each client takes the next scheduled request, waits
      // for its answer, repeats.
      for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
           i < kRequests;
           i = next.fetch_add(1, std::memory_order_relaxed)) {
        const Instance& instance = pool[schedule[i]];
        RequestMessage request;
        request.id = instance.name + "#" + std::to_string(i);
        request.dag_text = instance.dag_text;
        request.red_limit = instance.red_limit;
        request.solver = instance.solver;
        request.budget_states = kBudgetStates;
        request.budget_iterations = kBudgetIterations;
        const auto t0 = std::chrono::steady_clock::now();
        ResponseMessage response = server.solve(std::move(request));
        const auto t1 = std::chrono::steady_clock::now();

        const std::lock_guard<std::mutex> lock(collect_mutex);
        latencies_us.push_back(
            std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0)
                .count());
        auto answer = std::make_pair(response.cost, response.trace_text);
        if (response.cache == "miss") {
          cold[instance.name] = std::move(answer);
        } else if (response.cache == "hit" || response.cache == "flight") {
          const auto it = served.find(instance.name);
          if (it == served.end()) {
            served[instance.name] = std::move(answer);
          } else if (it->second != answer) {
            ++trace_mismatches;  // two served answers disagree — impossible
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const auto end = std::chrono::steady_clock::now();

  // The byte-identity audit: every served (cached) answer must equal the
  // run's own cold answer for that instance, cost and trace alike.
  for (const auto& [name, answer] : served) {
    const auto it = cold.find(name);
    if (it == cold.end() || it->second != answer) ++trace_mismatches;
  }

  RunResult result;
  result.clients = clients;
  result.requests = kRequests;
  result.distinct = distinct;
  const ServerStats& stats = server.stats();
  result.hits = stats.cache_hits.load() + stats.flight_hits.load();
  result.solves = stats.solves.load();
  result.solved_ok = stats.solved_ok.load();
  result.audit_failures = stats.audit_failures.load() +
                          server.cache_stats().audit_failures;
  result.trace_mismatches = trace_mismatches;
  for (const auto& [name, answer] : cold) result.costs[name] = answer.first;

  std::sort(latencies_us.begin(), latencies_us.end());
  if (!latencies_us.empty()) {
    result.p50_us = latencies_us[latencies_us.size() / 2];
    result.p99_us = latencies_us[latencies_us.size() * 99 / 100];
  }
  result.wall_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(end - start)
          .count();
  result.throughput_rps =
      result.wall_ms > 0
          ? 1000.0 * static_cast<double>(kRequests) /
                static_cast<double>(result.wall_ms)
          : 0.0;
  // The run's metrics snapshot: server counters, cache accounting (always
  // byte-consistent with TraceCache::Stats), and the server-side latency /
  // queue-depth distributions. Informational — stdout, not the report.
  std::cout << server.metrics_snapshot_json() << "\n";
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_serve.json";
  const std::vector<Instance> pool = make_pool();

  std::vector<RunResult> runs;
  for (const std::size_t clients : {std::size_t{1}, std::size_t{8},
                                    std::size_t{64}}) {
    RunResult run = run_traffic(pool, clients);
    std::cout << "clients=" << run.clients << " requests=" << run.requests
              << " distinct=" << run.distinct << " hits=" << run.hits
              << " solves=" << run.solves << " p50=" << run.p50_us
              << "us p99=" << run.p99_us << "us throughput="
              << run.throughput_rps << "rps wall=" << run.wall_ms << "ms\n";
    runs.push_back(std::move(run));
  }

  // Cross-run cost agreement: the audited cost of every instance must be
  // the same number at every client count.
  std::size_t cost_mismatches = 0;
  std::map<std::string, std::string> reference_costs;
  for (const RunResult& run : runs) {
    for (const auto& [name, cost] : run.costs) {
      const auto [it, inserted] = reference_costs.emplace(name, cost);
      if (!inserted && it->second != cost) ++cost_mismatches;
    }
  }

  std::size_t trace_mismatches = 0;
  std::uint64_t total_hits = 0;
  std::uint64_t audit_failures = 0;
  for (const RunResult& run : runs) {
    trace_mismatches += run.trace_mismatches;
    total_hits += run.hits;
    audit_failures += run.audit_failures;
  }

  bench::Report report("serve");
  // Byte-identity counters are absolute: any nonzero value means a served
  // answer differed from a cold solve, which the subsystem exists to forbid.
  report.exact.set("audit_failures", audit_failures)
      .set("cost_mismatches", cost_mismatches)
      .set("trace_mismatches", trace_mismatches);
  report.rises.set("total_hits", total_hits);
  report.info.set("requests_per_run", kRequests)
      .set("pool_size", pool.size())
      .set("zipf_s", kZipfS, 3);
  for (const RunResult& run : runs) {
    bench::Case& c = report.add_case("clients=" + std::to_string(run.clients));
    // Hits are deterministic (fixed seed, single-flight, no eviction). More
    // solves for the same traffic means the cache deduplicated less.
    c.rises.set("hits", run.hits).set("solved", run.solved_ok);
    c.falls.set("solves", run.solves);
    c.timing.set("p50_us", run.p50_us)
        .set("p99_us", run.p99_us)
        .set("throughput_rps", run.throughput_rps, 2)
        .set("wall_ms", run.wall_ms);
    c.info.set("requests", run.requests)
        .set("distinct", run.distinct)
        .set("hit_rate",
             static_cast<double>(run.hits) / static_cast<double>(run.requests),
             5);
  }
  for (const auto& [name, cost] : reference_costs) {
    report.add_case("instance=" + name).exact.set("cost", cost);
  }
  report.write(out_path);
  std::cout << "report written to " << out_path << '\n';

  // Exit on correctness, not wall clock: served answers must be
  // byte-identical to cold answers, costs must agree across runs, and the
  // cache must actually hit (the subsystem's reason to exist).
  if (cost_mismatches != 0 || trace_mismatches != 0 || audit_failures != 0) {
    std::cerr << "FAIL: cost_mismatches=" << cost_mismatches
              << " trace_mismatches=" << trace_mismatches
              << " audit_failures=" << audit_failures << '\n';
    return 1;
  }
  if (total_hits == 0) {
    std::cerr << "FAIL: the trace cache never hit\n";
    return 1;
  }
  return 0;
}
