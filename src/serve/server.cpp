#include "src/serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <thread>
#include <utility>

#include "src/graph/dag_io.hpp"
#include "src/instances/spec.hpp"
#include "src/obs/postmortem.hpp"
#include "src/obs/trace.hpp"
#include "src/pebble/trace_io.hpp"
#include "src/serve/canonical.hpp"
#include "src/solvers/portfolio.hpp"
#include "src/support/check.hpp"
#include "src/support/json.hpp"

namespace rbpeb::serve {

namespace {

std::int64_t elapsed_us(std::chrono::steady_clock::time_point from,
                        std::chrono::steady_clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::microseconds>(to - from)
      .count();
}

std::string status_string(SolveStatus status) {
  switch (status) {
    case SolveStatus::Optimal:
      return "optimal";
    case SolveStatus::Heuristic:
      return "heuristic";
    case SolveStatus::BudgetExhausted:
      return "budget_exhausted";
    case SolveStatus::Inapplicable:
      return "inapplicable";
  }
  return "error";
}

}  // namespace

std::map<std::string, std::string> ServerStats::snapshot() const {
  std::map<std::string, std::string> out;
  const auto put = [&out](const char* key,
                          const std::atomic<std::uint64_t>& value) {
    out[key] = std::to_string(value.load(std::memory_order_relaxed));
  };
  put("received", received);
  put("completed", completed);
  put("rejected_queue_full", rejected_queue_full);
  put("shed_deadline", shed_deadline);
  put("cache_hits", cache_hits);
  put("flight_hits", flight_hits);
  put("solves", solves);
  put("solved_ok", solved_ok);
  put("audit_failures", audit_failures);
  put("errors", errors);
  return out;
}

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      registry_(options_.registry != nullptr ? *options_.registry
                                             : SolverRegistry::instance()),
      cache_(options_.cache_bytes) {
  std::size_t workers = options_.workers;
  if (workers == 0) {
    const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
    workers = std::min<std::size_t>(hw, 8);
  }
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

Server::~Server() {
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

std::future<ResponseMessage> Server::submit(RequestMessage request) {
  stats_.received.fetch_add(1, std::memory_order_relaxed);
  QueuedRequest queued;
  queued.request = std::move(request);
  queued.arrival = Clock::now();
  std::future<ResponseMessage> future = queued.promise.get_future();
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    if (!stopping_ && queue_.size() < options_.max_queue) {
      queue_.push_back(std::move(queued));
      queue_depth_.set(static_cast<std::int64_t>(queue_.size()));
      queue_cv_.notify_one();
      return future;
    }
  }
  // Admission control: an overfull queue answers NOW with a structured
  // rejection instead of queueing unbounded work behind a deadline it
  // cannot meet. (A stopping server sheds the same way.)
  stats_.rejected_queue_full.fetch_add(1, std::memory_order_relaxed);
  ResponseMessage response;
  response.id = queued.request.id;
  response.status = "rejected";
  response.detail = "server queue is full";
  queued.promise.set_value(std::move(response));
  stats_.completed.fetch_add(1, std::memory_order_relaxed);
  return future;
}

ResponseMessage Server::solve(RequestMessage request) {
  return submit(std::move(request)).get();
}

void Server::worker_loop() {
  for (;;) {
    QueuedRequest queued;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and drained
      queued = std::move(queue_.front());
      queue_.pop_front();
      queue_depth_.set(static_cast<std::int64_t>(queue_.size()));
    }
    ResponseMessage response;
    try {
      response = handle(queued.request, queued.arrival);
    } catch (const std::exception& e) {
      stats_.errors.fetch_add(1, std::memory_order_relaxed);
      response.id = queued.request.id;
      response.status = "error";
      response.detail = e.what();
    }
    response.id = queued.request.id;
    stats_.completed.fetch_add(1, std::memory_order_relaxed);
    latency_us_.record(
        static_cast<std::uint64_t>(elapsed_us(queued.arrival, Clock::now())));
    queued.promise.set_value(std::move(response));
  }
}

ResponseMessage Server::handle(const RequestMessage& request,
                               Clock::time_point arrival) {
  // Tag every span this request produces — lookup, flight wait, solver
  // internals — with its server-wide sequence number, so a flight recording
  // of a busy server can be filtered back to one originating request.
  const std::uint64_t req_seq =
      1 + request_seq_.fetch_add(1, std::memory_order_relaxed);
  const obs::ScopedTraceContext trace_ctx(req_seq);
  const obs::TraceSpan span("serve.request");
  ResponseMessage response;
  response.id = request.id;

  // Deadline shedding: a queued request whose whole budget drained in the
  // queue is answered `rejected` without burning a solver on it. The
  // deadline is anchored at ARRIVAL throughout, so queue wait always counts
  // against the caller's ms budget.
  const std::int64_t deadline_ms = request.budget_ms != 0
                                       ? request.budget_ms
                                       : options_.default_deadline_ms;
  const auto dispatch_time = Clock::now();
  response.queue_us = elapsed_us(arrival, dispatch_time);
  queue_us_.record(static_cast<std::uint64_t>(response.queue_us));
  if (deadline_ms > 0 &&
      dispatch_time >= arrival + std::chrono::milliseconds(deadline_ms)) {
    stats_.shed_deadline.fetch_add(1, std::memory_order_relaxed);
    response.status = "rejected";
    response.detail = "deadline expired while queued";
    // A shed is a deadline-limited non-answer: it gets the same black box a
    // budget-exhausted solve does, minus the progress ring it never had.
    write_request_postmortem(request, req_seq, nullptr, "deadline", "rejected",
                             response.detail, "", {});
    return response;
  }

  // Malformed instances (bad DAG text, unknown model, R=0) are request
  // errors, not server errors: report and move on.
  const std::optional<Model> model = Model::from_name(request.model);
  if (!model.has_value()) {
    stats_.errors.fetch_add(1, std::memory_order_relaxed);
    response.status = "error";
    response.detail = "unknown model '" + request.model + "'";
    return response;
  }
  Dag dag = [&] {
    try {
      if (!request.dag_file.empty()) {
        // File-backed instances go through the InstanceSource jail: only
        // paths inside options_.instance_root resolve, and an empty root
        // rejects them all. An .rbg file is served zero-copy off its
        // mapping, which the Dag keeps alive for the solve.
        instances::InstanceSpec spec;
        spec.kind = instances::InstanceKind::File;
        spec.path = request.dag_file;
        spec.format =
            request.dag_format.empty() ? "auto" : request.dag_format;
        spec.canonical = spec.format + ":" + spec.path;
        instances::InstanceSourceOptions access;
        access.allow_files = !options_.instance_root.empty();
        access.root = options_.instance_root;
        return instances::resolve_instance(spec, access).dag;
      }
      return from_text(request.dag_text);
    } catch (const std::exception& e) {
      throw PreconditionError(std::string("bad dag: ") + e.what());
    }
  }();
  const PebblingConvention convention{request.sources_blue,
                                      request.sinks_blue};
  const Engine engine(dag, *model, request.red_limit, convention);

  const std::string solver_name =
      request.solver.empty() ? options_.default_solver : request.solver;
  if (solver_name != "portfolio" && registry_.find(solver_name) == nullptr) {
    stats_.errors.fetch_add(1, std::memory_order_relaxed);
    response.status = "error";
    response.detail = "unknown solver '" + solver_name + "'";
    return response;
  }

  const CanonicalForm form = canonicalize(dag);
  const std::string fingerprint = instance_fingerprint(
      form, *model, convention, request.red_limit, solver_name,
      request.options);

  const auto fill_cached = [](ResponseMessage& out,
                              const CachedAnswer& cached) {
    out.status = status_string(cached.status);
    out.solver = cached.solver;
    out.cost = cached.cost.str();
    out.trace_text = trace_to_text(cached.trace);
    if (cached.certificate) {
      out.epsilon = cached.certificate->epsilon.str();
      out.lower_bound = cached.certificate->lower_bound.str();
    }
  };

  // Fast path: the verified cache. lookup() audits before answering —
  // certificate inequality included for certified entries.
  std::optional<CachedAnswer> cached_fast;
  {
    const obs::TraceSpan lookup_span("serve.lookup");
    cached_fast = cache_.lookup(fingerprint, engine, form);
  }
  if (cached_fast) {
    std::optional<CachedAnswer>& cached = cached_fast;
    stats_.cache_hits.fetch_add(1, std::memory_order_relaxed);
    fill_cached(response, *cached);
    response.cache = "hit";
    return response;
  }

  // Single-flight: exactly one solve per fingerprint at a time. The first
  // miss becomes the leader; concurrent identical requests wait on its
  // flight, then re-read the cache it populated. A follower whose leader
  // failed (or whose answer was evicted under memory pressure) falls back
  // to solving for itself — correctness never depends on the dedup.
  std::shared_ptr<Flight> flight;
  bool leader = false;
  {
    const std::lock_guard<std::mutex> lock(flights_mutex_);
    auto it = flights_.find(fingerprint);
    if (it == flights_.end()) {
      flight = std::make_shared<Flight>();
      flights_[fingerprint] = flight;
      leader = true;
    } else {
      flight = it->second;
    }
  }
  if (!leader) {
    {
      const obs::TraceSpan wait_span("serve.flight_wait");
      std::unique_lock<std::mutex> lock(flight->mutex);
      flight->cv.wait(lock, [&flight] { return flight->done; });
    }
    if (std::optional<CachedAnswer> cached =
            cache_.lookup(fingerprint, engine, form)) {
      stats_.flight_hits.fetch_add(1, std::memory_order_relaxed);
      fill_cached(response, *cached);
      response.cache = "flight";
      return response;
    }
    // Leader failed or the answer was already evicted: solve it ourselves,
    // as a fresh leaderless dispatch (no flight — the herd has passed).
    return dispatch_solve(request, engine, arrival, req_seq);
  }

  // The leader MUST land the flight even when the solve throws, or its
  // followers wait forever; they re-read the cache, find nothing, and solve
  // for themselves.
  const auto land_flight = [&] {
    {
      const std::lock_guard<std::mutex> lock(flights_mutex_);
      flights_.erase(fingerprint);
    }
    {
      const std::lock_guard<std::mutex> lock(flight->mutex);
      flight->done = true;
    }
    flight->cv.notify_all();
  };
  ResponseMessage solved;
  try {
    std::optional<SolveCertificate> certificate;
    solved = dispatch_solve(request, engine, arrival, req_seq, &certificate);
    if (solved.status == "optimal" || solved.status == "heuristic") {
      const SolveStatus status = solved.status == "optimal"
                                     ? SolveStatus::Optimal
                                     : SolveStatus::Heuristic;
      // insert() re-audits the certificate against its own replay cost; a
      // certified answer that fails the inequality is refused, not cached
      // with the guarantee stripped.
      const obs::TraceSpan insert_span("serve.insert");
      cache_.insert(fingerprint, engine, form,
                    trace_from_text(solved.trace_text), status, solved.solver,
                    certificate);
    }
  } catch (...) {
    land_flight();
    throw;
  }
  land_flight();
  return solved;
}

ResponseMessage Server::dispatch_solve(
    const RequestMessage& request, const Engine& engine,
    Clock::time_point arrival, std::uint64_t req_seq,
    std::optional<SolveCertificate>* certificate_out) {
  ResponseMessage response;
  response.id = request.id;
  response.cache = "miss";

  SolveRequest solve_request;
  solve_request.engine = &engine;
  solve_request.options = request.options;

  // Per-request progress: with an event sink, each published snapshot
  // becomes one JSONL event for the stats sidecar, tagged with the
  // originating request id. With only a post-mortem directory the sampler
  // runs silently — the black box still gets a snapshot tail.
  std::optional<obs::SearchProgressSampler> sampler;
  if (options_.event_sink || !options_.postmortem_dir.empty()) {
    obs::SearchProgressSampler::Options popt;
    popt.min_interval_us = options_.progress_interval_ms * 1000;
    if (options_.event_sink) {
      popt.sink = [this, &request,
                   req_seq](const obs::ProgressSnapshot& snapshot) {
        options_.event_sink("{\"type\": \"progress\", \"id\": " +
                            json_quote(request.id) +
                            ", \"seq\": " + std::to_string(req_seq) +
                            ", \"snapshot\": " + snapshot.to_json() + "}");
      };
    }
    sampler.emplace(popt);
    solve_request.progress = &*sampler;
  }
  solve_request.budget.max_states = request.budget_states != 0
                                        ? request.budget_states
                                        : options_.default_states;
  if (request.budget_iterations != 0) {
    solve_request.budget.max_iterations = request.budget_iterations;
  }
  solve_request.budget.max_memory_bytes = request.budget_memory;
  solve_request.budget.max_disk_bytes = request.budget_disk;
  const std::int64_t deadline_ms = request.budget_ms != 0
                                       ? request.budget_ms
                                       : options_.default_deadline_ms;
  if (deadline_ms > 0) {
    // Anchored at arrival: time spent queued has already been spent.
    solve_request.budget.deadline =
        arrival + std::chrono::milliseconds(deadline_ms);
  }

  // Fair-share thread allocation: the configured core pool divided by the
  // solves currently in flight, floored at one. Computed at dispatch — a
  // long solve keeps its grant, new arrivals absorb the squeeze.
  const std::size_t pool =
      options_.solver_threads != 0
          ? options_.solver_threads
          : std::max(1u, std::thread::hardware_concurrency());
  const std::size_t active =
      1 + active_solves_.fetch_add(1, std::memory_order_relaxed);
  solve_request.budget.threads =
      request.budget_threads != 0 ? request.budget_threads
                                  : std::max<std::size_t>(1, pool / active);

  stats_.solves.fetch_add(1, std::memory_order_relaxed);
  const obs::TraceSpan solve_span("serve.solve");
  const auto solve_start = Clock::now();
  SolveResult result;
  try {
    const std::string solver_name =
        request.solver.empty() ? options_.default_solver : request.solver;
    if (solver_name == "portfolio") {
      PortfolioOptions popt;
      popt.max_threads = solve_request.budget.threads;
      result = flatten_portfolio(
          solve_portfolio(solve_request, popt, registry_));
    } else {
      result = registry_.at(solver_name).run(solve_request);
    }
  } catch (...) {
    active_solves_.fetch_sub(1, std::memory_order_relaxed);
    throw;
  }
  active_solves_.fetch_sub(1, std::memory_order_relaxed);
  response.solve_us = elapsed_us(solve_start, Clock::now());
  solve_us_.record(static_cast<std::uint64_t>(response.solve_us));

  response.status = status_string(result.status);
  response.solver = result.solver;
  response.detail = result.detail;
  response.stats = std::move(result.stats);
  if (result.has_trace()) {
    response.cost = result.cost.str();
    response.trace_text = trace_to_text(*result.trace);
  }
  if (result.certificate) {
    response.epsilon = result.certificate->epsilon.str();
    response.lower_bound = result.certificate->lower_bound.str();
  }
  if (certificate_out != nullptr) *certificate_out = result.certificate;
  if (result.ok()) {
    stats_.solved_ok.fetch_add(1, std::memory_order_relaxed);
  }
  if (result.status == SolveStatus::BudgetExhausted) {
    const auto verdict = response.stats.find("limiting_resource");
    write_request_postmortem(
        request, req_seq, sampler ? &*sampler : nullptr,
        verdict != response.stats.end() ? verdict->second : "unknown",
        status_string(result.status), result.detail, result.solver,
        response.stats);
  }
  return response;
}

void Server::write_request_postmortem(
    const RequestMessage& request, std::uint64_t req_seq,
    const obs::SearchProgressSampler* sampler, std::string limiting_resource,
    std::string termination, std::string detail, std::string solver,
    std::map<std::string, std::string> stats) {
  if (options_.postmortem_dir.empty()) return;
  obs::PostmortemReport report;
  report.limiting_resource = std::move(limiting_resource);
  report.termination = std::move(termination);
  report.detail = std::move(detail);
  report.solver = std::move(solver);
  report.stats = std::move(stats);
  // The request id is caller-supplied text; the sequence number names the
  // directory so an id with path characters cannot escape postmortem_dir.
  report.stats["request_id"] = request.id;
  if (sampler != nullptr) report.progress = sampler->history();
  const std::string dir =
      options_.postmortem_dir + "/req-" + std::to_string(req_seq);
  const std::string path = obs::write_postmortem(dir, report);
  if (!path.empty() && options_.event_sink) {
    options_.event_sink("{\"type\": \"postmortem\", \"id\": " +
                        json_quote(request.id) +
                        ", \"seq\": " + std::to_string(req_seq) +
                        ", \"verdict\": " + json_quote(report.limiting_resource) +
                        ", \"path\": " + json_quote(path) + "}");
  }
}

std::vector<std::string> Server::summary() const {
  std::vector<std::string> lines;
  for (const auto& [key, value] : stats_.snapshot()) {
    lines.push_back(key + ": " + value);
  }
  const TraceCache::Stats cs = cache_.stats();
  lines.push_back("cache_entries: " + std::to_string(cs.entries));
  lines.push_back("cache_bytes: " + std::to_string(cs.bytes));
  lines.push_back("cache_evictions: " + std::to_string(cs.evictions));
  lines.push_back("cache_audit_failures: " +
                  std::to_string(cs.audit_failures));
  // End-to-end latency percentiles from the server's own histogram
  // (log buckets, rank interpolated linearly within the containing bucket),
  // not a re-sort of raw records — the same numbers a live
  // metrics_snapshot_json() reports.
  lines.push_back("latency_p50_us: " +
                  std::to_string(latency_us_.percentile(0.50)));
  lines.push_back("latency_p90_us: " +
                  std::to_string(latency_us_.percentile(0.90)));
  lines.push_back("latency_p99_us: " +
                  std::to_string(latency_us_.percentile(0.99)));
  const std::uint64_t completed = latency_us_.count();
  lines.push_back("latency_mean_us: " +
                  std::to_string(completed == 0 ? 0
                                                : latency_us_.sum() / completed));
  lines.push_back("solve_p99_us: " +
                  std::to_string(solve_us_.percentile(0.99)));
  lines.push_back("queue_depth_hwm: " + std::to_string(queue_depth_.max()));
  return lines;
}

std::string Server::metrics_snapshot_json() const {
  const auto hist = [](const obs::Histogram& h) {
    return "{\"count\":" + std::to_string(h.count()) +
           ",\"sum\":" + std::to_string(h.sum()) +
           ",\"p50\":" + std::to_string(h.percentile(0.50)) +
           ",\"p90\":" + std::to_string(h.percentile(0.90)) +
           ",\"p99\":" + std::to_string(h.percentile(0.99)) + "}";
  };
  std::string out = "{\"type\":\"metrics_snapshot\",\"server\":{";
  bool first = true;
  for (const auto& [key, value] : stats_.snapshot()) {
    if (!first) out.push_back(',');
    first = false;
    out += "\"" + key + "\":" + value;
  }
  // Cache counters come from TraceCache::Stats verbatim — one source of
  // truth, so a snapshot's hits/misses always reconcile with the cache's
  // own accounting.
  const TraceCache::Stats cs = cache_.stats();
  out += "},\"cache\":{\"hits\":" + std::to_string(cs.hits) +
         ",\"misses\":" + std::to_string(cs.misses) +
         ",\"audit_failures\":" + std::to_string(cs.audit_failures) +
         ",\"insertions\":" + std::to_string(cs.insertions) +
         ",\"rejected_inserts\":" + std::to_string(cs.rejected_inserts) +
         ",\"evictions\":" + std::to_string(cs.evictions) +
         ",\"bytes\":" + std::to_string(cs.bytes) +
         ",\"entries\":" + std::to_string(cs.entries) + "}";
  out += ",\"latency_us\":" + hist(latency_us_);
  out += ",\"queue_us\":" + hist(queue_us_);
  out += ",\"solve_us\":" + hist(solve_us_);
  out += ",\"queue_depth\":{\"value\":" + std::to_string(queue_depth_.value()) +
         ",\"max\":" + std::to_string(queue_depth_.max()) + "}";
  out += "}";
  return out;
}

}  // namespace rbpeb::serve
