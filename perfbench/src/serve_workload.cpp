// The `serve` workload: one client sends requests to an in-process
// serve::Server in a closed loop — the next request goes out when the
// previous one has answered.
//
// The pool mixes symmetric shapes (fft, tree, stencil2d) with random layered
// DAGs of 64–512 nodes, each solved by greedy, certified-greedy or
// greedy-fewest-blue. Popularity is Zipf(1.1) over a fixed rank order, and
// model, R and solver follow the rank, so every seed serves the same mix of
// work; the seed draws the layered DAGs, the relabelings, which instances
// arrive as .rbg files, the one-off tail and the request sequence. Every
// symmetric instance is also sent under a seeded relabeling, and a one-off
// tail of fresh instances adds misses, inserts and LRU evictions under the
// cache's byte budget.
//
// An open loop of Poisson arrivals was tried first. On the shared 4-vCPU
// host its latencies moved by 25–55% of their median between runs, mostly
// queueing behind the 13 ms fft:size=64 hits, so the loop is closed and the
// whole run is pinned to one CPU (see pin_to_one_cpu).
//
// One op is one request. The run first sends every pool instance once, in
// turn, on a fresh server (the cold pass, whose wall time is solve_s), then
// runs the loop. Checks: every answer is heuristic or optimal, never
// rejected; every distinct answer replays through the Verifier at its
// reported cost; every answer to an instance's original labeling is
// byte-identical to that run's cold answer (the solvers are deterministic,
// so re-solves after an eviction must agree too); a relabeled hit carries
// the cost of an answer solved in this run; and every cold pass reproduces
// the others.
#include <sched.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <filesystem>
#include <iostream>
#include <map>
#include <set>

#include "bench.hpp"
#include "probes.hpp"
#include "src/graph/dag_builder.hpp"
#include "src/graph/dag_io.hpp"
#include "src/instances/binary_format.hpp"
#include "src/instances/spec.hpp"
#include "src/pebble/bounds.hpp"
#include "src/pebble/trace_io.hpp"
#include "src/pebble/verifier.hpp"
#include "src/serve/server.hpp"
#include "src/support/rng.hpp"

namespace perfbench {

using namespace rbpeb;

namespace {

constexpr double kZipfS = 1.1;
/// Share of requests that go to a fresh one-off instance.
constexpr double kTailShare = 0.05;
/// Share of a symmetric instance's requests sent under its relabeling.
constexpr double kRelabelShare = 0.5;
/// Share of pool instances that arrive as .rbg files.
constexpr double kFileShare = 0.33;
/// Server workers (see pin_to_one_cpu).
constexpr std::size_t kWorkers = 1;
/// Trace-cache byte budget: the pool fits, the one-off tail pushes it into
/// LRU evictions partway through the run.
constexpr std::size_t kCacheBytes = std::size_t{512} << 10;
/// Arrivals per p99 window (see windowed_p99).
constexpr std::size_t kWindowRequests = 1000;
/// Speed-meter samples taken around the cold passes and the loop stretches.
constexpr int kSpeedSamples = 5;
/// Cold passes per run; solve_s is their median.
constexpr int kColdPasses = 15;
/// Stretches of the closed loop, with speed samples between them.
constexpr int kLoopStretches = 5;
/// Bound on the closed loop's request rate, for sizing the one-off tail.
constexpr double kMaxRequestsPerSecond = 1000;

const char* const kSolvers[] = {"greedy", "certified-greedy",
                                "greedy-fewest-blue"};
const char* const kModels[] = {"oneshot", "nodel", "compcost", "base"};

// Symmetric shapes, in popularity-rank order among themselves.
// Canonicalizing fft:size=64 costs about 13 ms, 20–100 times a layered DAG
// of its size, and dominates its hit latency. At rank 7 it draws about 3.5%
// of the requests, so p99 falls inside its band rather than on its edge.
const char* const kSymmetric[] = {
    "tree:leaves=64",
    "stencil2d:width=4,height=4,steps=4",
    "fft:size=16",
    "fft:size=64",
    "tree:leaves=128",
    "stencil2d:width=6,height=6,steps=3",
    "fft:size=32",
    "stencil2d:width=8,height=8,steps=4",
};

// Random layered shapes (layers, width): 64 to 512 nodes; the seed draws
// each DAG's generator seed.
const std::pair<int, int> kLayered[] = {
    {8, 8},   {16, 8},  {12, 12}, {10, 20}, {16, 16}, {24, 12},
    {20, 20}, {32, 16}, {8, 16},  {16, 12}, {24, 8},  {12, 24},
};

/// The tail's one-off instances: 128-node layered DAGs.
constexpr int kTailLayers = 16;
constexpr int kTailWidth = 8;

struct Form {
  Dag dag;
  std::string text;
  std::string file;  ///< path under the instance root, "" = inline text
};

struct PoolInstance {
  std::string id;
  std::string spec;
  std::string model;
  std::size_t red_limit = 0;
  std::string solver;
  bool symmetric = false;
  Form base;
  Form relabeled;  ///< symmetric instances only
};

struct TailInstance {
  std::string id;
  std::string model;
  std::size_t red_limit = 0;
  std::string solver;
  Form form;
};

struct Inputs {
  std::vector<PoolInstance> pool;
  std::vector<TailInstance> tail;
  std::vector<double> zipf_cdf;
};

Dag relabel(const Dag& dag, const std::vector<NodeId>& perm) {
  DagBuilder builder;
  builder.add_nodes(dag.node_count());
  for (std::size_t v = 0; v < dag.node_count(); ++v) {
    for (NodeId u : dag.predecessors(static_cast<NodeId>(v))) {
      builder.add_edge(perm[u], perm[v]);
    }
  }
  return builder.build();
}

Form make_form(Dag dag, const std::string& root, const std::string& file) {
  Form form;
  form.text = to_text(dag);
  if (!file.empty()) {
    instances::write_rbg_file(dag, root + "/" + file);
    form.file = file;
  }
  form.dag = std::move(dag);
  return form;
}

std::size_t draw_red_limit(const Dag& dag, Rng& rng) {
  return min_red_pebbles(dag) + static_cast<std::size_t>(rng.next_below(3));
}

Inputs make_inputs(std::uint64_t seed, const std::string& root,
                   std::size_t tail_count) {
  Rng rng(seed);
  Inputs in;
  std::filesystem::create_directories(root);
  // Ranks alternate symmetric and random shapes.
  std::vector<std::string> specs;
  std::vector<bool> symmetric_rank;
  for (std::size_t i = 0; i < std::max(std::size(kSymmetric), std::size(kLayered)); ++i) {
    if (i < std::size(kSymmetric)) {
      specs.push_back(kSymmetric[i]);
      symmetric_rank.push_back(true);
    }
    if (i < std::size(kLayered)) {
      const auto [layers, width] = kLayered[i];
      specs.push_back("layered:layers=" + std::to_string(layers) +
                      ",width=" + std::to_string(width) + ",indegree=2,seed=" +
                      std::to_string(1 + rng.next_below(1'000'000)));
      symmetric_rank.push_back(false);
    }
  }
  for (std::size_t rank = 0; rank < specs.size(); ++rank) {
    const std::string& spec = specs[rank];
    const bool symmetric = symmetric_rank[rank];
    PoolInstance p;
    p.spec = spec;
    Dag dag = instances::resolve_instance(spec).dag;
    p.symmetric = symmetric;
    // Model, R and solver follow the rank, so every seed serves the same
    // mix of work; a third of the pool is certified.
    p.model = kModels[rank % std::size(kModels)];
    p.red_limit = min_red_pebbles(dag) + rank % 3;
    p.solver = kSolvers[rank % std::size(kSolvers)];
    p.id = spec + "@" + p.model + "/r" + std::to_string(p.red_limit) + "/" +
           p.solver;
    const bool as_file = rng.next_bool(kFileShare);
    const std::string file =
        as_file ? "pool" + std::to_string(rank) + ".rbg" : "";
    if (symmetric) {
      std::vector<NodeId> perm(dag.node_count());
      for (std::size_t v = 0; v < perm.size(); ++v) perm[v] = static_cast<NodeId>(v);
      rng.shuffle(perm);
      const std::string rfile =
          as_file ? "pool" + std::to_string(rank) + "-relabeled.rbg" : "";
      p.relabeled = make_form(relabel(dag, perm), root, rfile);
    }
    p.base = make_form(std::move(dag), root, file);
    in.pool.push_back(std::move(p));
  }
  for (std::size_t i = 0; i < tail_count; ++i) {
    TailInstance t;
    const std::string spec =
        "layered:layers=" + std::to_string(kTailLayers) +
        ",width=" + std::to_string(kTailWidth) +
        ",indegree=2,seed=" + std::to_string(1'000'000 + rng.next_below(1'000'000'000));
    Dag dag = instances::resolve_instance(spec).dag;
    t.model = kModels[rng.next_below(std::size(kModels))];
    t.red_limit = draw_red_limit(dag, rng);
    t.solver = kSolvers[rng.next_below(std::size(kSolvers))];
    t.id = spec + "@" + t.model;
    t.form = make_form(std::move(dag), root, "");
    in.tail.push_back(std::move(t));
  }
  double total = 0;
  for (std::size_t k = 0; k < in.pool.size(); ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), kZipfS);
    in.zipf_cdf.push_back(total);
  }
  for (double& v : in.zipf_cdf) v /= total;
  return in;
}

/// Which instance and labeling a request is for; instance == kTailInstance
/// marks a one-off tail request.
struct Target {
  std::size_t instance = 0;
  bool relabeled = false;
  std::size_t tail = 0;
};
constexpr std::size_t kTailInstance = static_cast<std::size_t>(-1);

struct Answer {
  std::string cost;
  std::string trace;
  bool operator==(const Answer&) const = default;
};

/// The serve run's shared state: inputs, server, and the correctness books.
class ServeRun {
 public:
  ServeRun(Context& ctx, const Inputs& inputs, const std::string& root)
      : ctx_(ctx), in_(inputs), root_(root) {}

  serve::Server& server() { return *server_; }

  serve::RequestMessage request(const Target& t, std::uint64_t id) const {
    serve::RequestMessage r;
    r.id = std::to_string(id);
    const Form* form = nullptr;
    if (t.instance == kTailInstance) {
      const TailInstance& tail = in_.tail[t.tail];
      form = &tail.form;
      r.model = tail.model;
      r.red_limit = tail.red_limit;
      r.solver = tail.solver;
    } else {
      const PoolInstance& p = in_.pool[t.instance];
      form = t.relabeled ? &p.relabeled : &p.base;
      r.model = p.model;
      r.red_limit = p.red_limit;
      r.solver = p.solver;
    }
    if (form->file.empty()) {
      r.dag_text = form->text;
    } else {
      r.dag_file = form->file;
    }
    return r;
  }

  /// The cold pass: a fresh server answers every pool instance once, in
  /// turn; returns its wall time. Then each symmetric instance is sent
  /// relabeled, which the cache answers. The answers of the last cold pass
  /// are the run's cold answers; every cold pass must reproduce them.
  double cold_pass() {
    server_.reset();
    server_ = std::make_unique<serve::Server>(options(root_));
    std::vector<std::array<Answer, 2>> cold(in_.pool.size());
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < in_.pool.size(); ++i) {
      const Target t{i, false, 0};
      cold[i][0] = answer_of(t, server_->solve(request(t, ++ids_)));
    }
    const double solve_s = seconds_between(t0, Clock::now());
    for (std::size_t i = 0; i < in_.pool.size(); ++i) {
      if (in_.pool[i].symmetric) {
        const Target t{i, true, 0};
        cold[i][1] = answer_of(t, server_->solve(request(t, ++ids_)));
      }
      if (!cold_.empty() && cold[i] != cold_[i]) {
        ctx_.ledger.fail(in_.pool[i].id + ": cold answer differs between cold passes");
      }
    }
    cold_ = std::move(cold);
    return solve_s;
  }

  /// Check one response of the loop against the cold answers.
  void check(const Target& t, const serve::ResponseMessage& response) {
    ctx_.ledger.attempt();
    if (response.cache == "hit" || response.cache == "flight") ++hits_;
    if (response.cache == "miss") ++misses_;
    if (!ctx_.ledger.check(response.status == "heuristic" ||
                               response.status == "optimal",
                           "request " + response.id + ": status " +
                               response.status + " " + response.detail)) {
      return;
    }
    Answer a{response.cost, response.trace_text};
    if (t.instance == kTailInstance) {
      pending_verify(t, std::move(a));
      return;
    }
    const Answer& cold = cold_[t.instance][t.relabeled ? 1 : 0];
    if (a == cold) return;
    const PoolInstance& p = in_.pool[t.instance];
    if (!p.symmetric) {
      ctx_.ledger.fail("request " + response.id + " (" + p.id +
                       "): answer differs from the cold answer");
      return;
    }
    // A symmetric instance's entry may have been re-solved under the other
    // labeling after an eviction; its answer then arrives remapped.
    if (response.cache == "miss") {
      if (!t.relabeled) {
        ctx_.ledger.fail("request " + response.id + " (" + p.id +
                         "): re-solve differs from the cold answer");
        return;
      }
      fresh_costs_[t.instance].insert(a.cost);
    } else if (a.cost != cold_[t.instance][0].cost &&
               a.cost != cold_[t.instance][1].cost &&
               fresh_costs_[t.instance].count(a.cost) == 0) {
      ctx_.ledger.fail("request " + response.id + " (" + p.id +
                       "): hit cost " + a.cost +
                       " matches no answer solved in this run");
      return;
    }
    pending_verify(t, std::move(a));
  }

  /// Replay every distinct answer not already checked byte-for-byte.
  void verify_pending() {
    for (auto& [key, answer] : pending_) {
      const Target& t = key.first;
      const Form& form = t.instance == kTailInstance
                             ? in_.tail[t.tail].form
                             : (t.relabeled ? in_.pool[t.instance].relabeled
                                            : in_.pool[t.instance].base);
      const std::string& model_name = t.instance == kTailInstance
                                          ? in_.tail[t.tail].model
                                          : in_.pool[t.instance].model;
      const std::size_t r = t.instance == kTailInstance
                                ? in_.tail[t.tail].red_limit
                                : in_.pool[t.instance].red_limit;
      const Engine engine(form.dag, solver_options::parse_model(model_name), r);
      const VerifyResult v = verify(engine, trace_from_text(answer.trace));
      ctx_.ledger.check(v.ok() && v.total.str() == answer.cost,
                        "answer for " + std::string(t.instance == kTailInstance
                                                        ? in_.tail[t.tail].id
                                                        : in_.pool[t.instance].id) +
                            " fails verify at cost " + answer.cost);
    }
    pending_.clear();
  }

  /// Geometric mean of cost / lower bound over the certified cold answers.
  double cert_ratio_geomean() const {
    std::vector<double> ratios;
    for (std::size_t i = 0; i < cold_certs_.size(); ++i) {
      if (cold_certs_[i] > 0) ratios.push_back(cold_certs_[i]);
    }
    return geomean(ratios);
  }

  std::uint64_t next_id() { return ++ids_; }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  static serve::ServerOptions options(const std::string& root) {
    serve::ServerOptions o;
    o.workers = kWorkers;
    o.solver_threads = kWorkers;
    o.cache_bytes = kCacheBytes;
    o.max_queue = 1'000'000;  // requests wait, never rejected
    o.instance_root = root;
    return o;
  }

  static double parse_ratio(const std::string& cost, const std::string& lb) {
    auto value = [](const std::string& s) {
      const auto slash = s.find('/');
      if (slash == std::string::npos) return std::stod(s);
      return std::stod(s.substr(0, slash)) / std::stod(s.substr(slash + 1));
    };
    const double l = value(lb);
    return l > 0 ? value(cost) / l : 0;
  }

  Answer answer_of(const Target& t, const serve::ResponseMessage& response) {
    ctx_.ledger.attempt();
    ctx_.ledger.check(response.status == "heuristic" ||
                          response.status == "optimal",
                      "cold request for " + in_.pool[t.instance].id +
                          ": status " + response.status + " " + response.detail);
    if (!t.relabeled) {
      cold_certs_.resize(in_.pool.size(), 0);
      if (!response.lower_bound.empty()) {
        cold_certs_[t.instance] =
            parse_ratio(response.cost, response.lower_bound);
      }
    }
    Answer a{response.cost, response.trace_text};
    pending_verify(t, a);
    return a;
  }

  void pending_verify(const Target& t, Answer a) {
    const auto key = std::make_pair(t, std::hash<std::string>{}(a.trace));
    pending_.emplace(key, std::move(a));
  }

  struct TargetLess {
    bool operator()(const std::pair<Target, std::size_t>& a,
                    const std::pair<Target, std::size_t>& b) const {
      return std::tie(a.first.instance, a.first.relabeled, a.first.tail, a.second) <
             std::tie(b.first.instance, b.first.relabeled, b.first.tail, b.second);
    }
  };

  Context& ctx_;
  const Inputs& in_;
  const std::string root_;
  std::unique_ptr<serve::Server> server_;
  std::uint64_t ids_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::vector<std::array<Answer, 2>> cold_;
  std::vector<double> cold_certs_;
  std::map<std::size_t, std::set<std::string>> fresh_costs_;
  std::map<std::pair<Target, std::size_t>, Answer, TargetLess> pending_;
};

/// What a closed-loop stretch of requests measured.
struct Loop {
  std::vector<double> latency_ms;  ///< per request, in send order
  std::vector<double> hit_ms;
  std::vector<double> miss_ms;
  std::vector<double> queue_us;
  double seconds = 0;              ///< wall time of the whole stretch
};

/// Send requests one at a time for `seconds`: each goes out when the
/// previous one has answered. Targets follow the Zipf popularity, symmetric
/// instances go out relabeled half the time, and kTailShare of the requests
/// go to a fresh one-off instance.
Loop run_loop(Context& ctx, ServeRun& run, const Inputs& in, Rng& rng,
              std::size_t* next_tail, double seconds, int parent_span) {
  Loop loop;
  const bool traced = parent_span >= 0;
  const auto start = Clock::now();
  while (seconds_between(start, Clock::now()) < seconds) {
    Target target;
    if (rng.next_bool(kTailShare) && *next_tail < in.tail.size()) {
      target.instance = kTailInstance;
      target.tail = (*next_tail)++;
    } else {
      const double u = rng.next_double();
      target.instance = std::min<std::size_t>(
          static_cast<std::size_t>(
              std::lower_bound(in.zipf_cdf.begin(), in.zipf_cdf.end(), u) -
              in.zipf_cdf.begin()),
          in.pool.size() - 1);
      target.relabeled =
          in.pool[target.instance].symmetric && rng.next_bool(kRelabelShare);
    }
    serve::RequestMessage request = run.request(target, run.next_id());
    const std::uint64_t op = std::stoull(request.id);
    const auto sent = Clock::now();
    serve::ResponseMessage response = run.server().solve(std::move(request));
    const auto done = Clock::now();
    const double ms = ms_between(sent, done);
    loop.latency_ms.push_back(ms);
    loop.queue_us.push_back(static_cast<double>(response.queue_us));
    const bool hit = response.cache == "hit" || response.cache == "flight";
    (hit ? loop.hit_ms : loop.miss_ms).push_back(ms);
    if (traced) {
      ctx.spans.add("request", "serve", op, sent, done, parent_span);
      const int request_span = static_cast<int>(ctx.spans.size()) - 1;
      if (response.solve_us > 0) {
        const auto solve_start =
            done - std::chrono::microseconds(response.solve_us);
        ctx.spans.add("solve", "solvers", op, std::max(solve_start, sent),
                      done, request_span);
      }
    }
    run.check(target, response);
  }
  loop.seconds = seconds_between(start, Clock::now());
  return loop;
}

/// The p99 over consecutive windows of kWindowRequests requests, medianed:
/// each window's p99 has ten requests beyond it, and a host stall inside
/// one window does not move the result.
double windowed_p99(const std::vector<double>& latency_ms) {
  if (latency_ms.size() < 2 * kWindowRequests) {
    return percentile(latency_ms, 0.99);
  }
  std::vector<double> p99s;
  for (std::size_t begin = 0; begin + kWindowRequests <= latency_ms.size();
       begin += kWindowRequests) {
    const auto first = latency_ms.begin() + static_cast<std::ptrdiff_t>(begin);
    p99s.push_back(percentile(
        std::vector<double>(first,
                            first + static_cast<std::ptrdiff_t>(kWindowRequests)),
        0.99));
  }
  return median(p99s);
}

/// One-off instances a run can draw: a generous bound on the requests one
/// run sends, times the tail share.
std::size_t tail_budget(double seconds) {
  return static_cast<std::size_t>(seconds * kMaxRequestsPerSecond * kTailShare) +
         32;
}

/// Run the client, the server and the speed meter on one CPU (the last this
/// process may use; threads inherit it). Spread over several vCPUs, the
/// latencies were bimodal from run to run — twice as slow whenever two busy
/// threads landed on vCPUs sharing a host core — and the speed meter timed a
/// different CPU than the one serving.
void pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  int last = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) last = cpu;
  }
  if (last < 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(last, &one);
  sched_setaffinity(0, sizeof one, &one);
}

}  // namespace

void run_serve(Context& ctx) {
  const RunConfig& config = ctx.config;
  pin_to_one_cpu();
  const std::string root = config.work_dir + "/instances";
  Inputs inputs;
  const double setup_s = timed_setup([&] {
    std::filesystem::remove_all(root);
    inputs = make_inputs(config.seed, root, tail_budget(config.seconds));
  });

  const auto sample_speed = [&ctx] {
    for (int i = 0; i < kSpeedSamples; ++i) ctx.speed.sample();
  };
  ServeRun run(ctx, inputs, root);
  std::vector<double> cold_s;
  double cold_total_s = 0;
  const std::size_t cold_first_sample = ctx.speed.samples();
  for (int pass = 0; pass < kColdPasses; ++pass) {
    ctx.speed.sample();
    cold_s.push_back(run.cold_pass());
    cold_total_s += cold_s.back();
  }
  ctx.speed.sample();
  const double cold_speed = ctx.speed.factor_since(cold_first_sample);
  run.verify_pending();
  Rng rng(config.seed ^ 0x5e7e5e7eULL);
  std::size_t next_tail = 0;
  const double remaining = std::max(1.0, config.seconds - cold_total_s);

  if (!config.trace) {
    // Sample the speed meter between stretches of the loop, so its factor
    // follows the host through the run.
    std::vector<Loop> loops;
    for (int i = 0; i < kLoopStretches; ++i) {
      loops.push_back(run_loop(ctx, run, inputs, rng, &next_tail,
                               remaining / kLoopStretches, -1));
      sample_speed();
    }
    run.verify_pending();
    Loop all;
    for (const Loop& l : loops) {
      all.latency_ms.insert(all.latency_ms.end(), l.latency_ms.begin(),
                            l.latency_ms.end());
      all.seconds += l.seconds;
    }
    const auto cache = run.server().cache_stats();
    std::cout << "  " << all.latency_ms.size() << " requests; cache: "
              << cache.entries << " entries, " << cache.bytes << " bytes, "
              << cache.evictions << " evictions, " << cache.audit_failures
              << " audit failures\n";
    const double speed = ctx.speed.factor();
    const double p50 = percentile(all.latency_ms, 0.5);
    const double p99 = windowed_p99(all.latency_ms);
    const double rate = static_cast<double>(all.latency_ms.size()) / all.seconds;
    std::cout << "  speed factor " << speed << " over " << ctx.speed.samples()
              << " samples; raw solve_s " << median(cold_s) << " s, raw p50 "
              << p50 << " ms, raw p99 " << p99 << " ms, raw " << rate
              << " requests/s\n";
    ctx.report.set("setup_s", setup_s * speed, "s");
    ctx.report.set("solve_s", median(cold_s) * cold_speed, "s");
    ctx.report.set("p50_ms", p50 * speed, "ms");
    ctx.report.set("p99_ms", p99 * speed, "ms");
    ctx.report.set("ops_per_s", rate / speed, "1/s");
    ctx.report.set("cert_ratio_geomean", run.cert_ratio_geomean(), "ratio");
    ctx.report.set("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  // Traced run: the loop untraced, then traced, for under half the time
  // each; the difference in p50 is the tracing overhead.
  const Loop plain =
      run_loop(ctx, run, inputs, rng, &next_tail, remaining * 0.45, -1);
  ctx.spans.set_enabled(true);
  Loop traced;
  {
    const ScopedSpan span(ctx.spans, "serve", "bench", 0);
    traced = run_loop(ctx, run, inputs, rng, &next_tail, remaining * 0.45,
                      span.index());
  }
  run.verify_pending();
  const double plain_p50 = percentile(plain.latency_ms, 0.5);
  const double traced_p50 = percentile(traced.latency_ms, 0.5);
  Report& report = ctx.report;
  report.set("trace.overhead_ms", traced_p50 - plain_p50, "ms");
  report.set("trace.overhead_pct", 100.0 * (traced_p50 - plain_p50) / plain_p50,
             "%");
  report.set("serve.hit_ms", median(traced.hit_ms), "ms");
  report.set("serve.miss_ms", median(traced.miss_ms), "ms");
  report.set("serve.queue_wait_us", median(traced.queue_us), "us");
  const auto& stats = run.server().stats();
  const auto cache = run.server().cache_stats();
  report.set("serve.hit_ratio",
             static_cast<double>(run.hits()) /
                 static_cast<double>(
                     std::max<std::uint64_t>(1, run.hits() + run.misses())),
             "ratio");
  report.set("serve.evictions", static_cast<double>(cache.evictions), "count");
  report.set("serve.audit_failures",
             static_cast<double>(cache.audit_failures +
                                 stats.audit_failures.load()),
             "count");
  report.set("serve.rejected",
             static_cast<double>(stats.rejected_queue_full.load() +
                                 stats.shed_deadline.load()),
             "count");
  std::cout << run.server().metrics_snapshot_json() << "\n";

  std::vector<std::unique_ptr<Engine>> engines;
  std::vector<ProbeTarget> targets;
  for (const PoolInstance& p : inputs.pool) {
    engines.push_back(std::make_unique<Engine>(
        p.base.dag, solver_options::parse_model(p.model), p.red_limit));
    targets.push_back(ProbeTarget{p.id, p.spec, engines.back().get()});
  }
  ProbeOptions probe_options;
  probe_options.serve = true;
  run_probes(ctx, targets, probe_options);
}

}  // namespace perfbench
