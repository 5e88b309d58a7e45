// rbpeb_serve — streaming solve service over the verified trace cache.
//
// Usage:
//   rbpeb_serve [--input F] [--output F] [--stats F]
//               [--cache-bytes N[k|m|g]] [--queue N] [--workers N]
//               [--threads N] [--deadline-ms N] [--solver NAME|portfolio]
//               [--budget-states N] [--snapshot-every N] [--trace-out F]
//               [--progress-every-ms N] [--postmortem-dir D]
//               [--instance-root D] [--quiet]
//
// Reads one JSON request per line (stdin by default, or --input F — a file
// works as a replayable request queue; a named pipe / `nc -lU | rbpeb_serve`
// bridge covers the local-socket case without the tool owning sockets),
// writes one JSON response per line in INPUT ORDER (stdout or --output F) so
// a response stream can be diffed against single-shot CLI answers, and
// appends per-request structured stats as JSONL to --stats F. On EOF it
// drains the queue and prints a shutdown summary to stderr.
//
// Repeated instances — including node-renumbered isomorphs — are answered
// from the trace cache after a Verifier audit; every answer's cost is the
// audited replay total, so a served response is exactly as trustworthy as a
// cold solve. See src/serve/ for the machinery.
#include <deque>
#include <fstream>
#include <iostream>
#include <mutex>
#include <string>
#include <vector>

#include "src/obs/trace.hpp"
#include "src/serve/protocol.hpp"
#include "src/serve/server.hpp"
#include "src/support/check.hpp"
#include "src/support/json.hpp"

namespace {

using namespace rbpeb;
using namespace rbpeb::serve;

[[noreturn]] void usage() {
  std::cerr <<
      "usage:\n"
      "  rbpeb_serve [--input F] [--output F] [--stats F]\n"
      "              [--cache-bytes N[k|m|g]] [--queue N] [--workers N]\n"
      "              [--threads N] [--deadline-ms N]\n"
      "              [--solver NAME|portfolio] [--budget-states N]\n"
      "              [--snapshot-every N] [--trace-out F]\n"
      "              [--progress-every-ms N] [--postmortem-dir D]\n"
      "              [--instance-root D] [--quiet]\n"
      "--instance-root D lets requests name a \"dag_file\" resolved inside D\n"
      "(text or .rbg; without it every dag_file request is rejected);\n"
      "--snapshot-every N appends a metrics_snapshot JSONL line to --stats\n"
      "every N responses (default 64; 0 disables); --trace-out F writes a\n"
      "Chrome trace-event profile of the run (open in Perfetto), every span\n"
      "tagged with its originating request's sequence number (args.ctx);\n"
      "with --stats, per-request progress events stream into the sidecar\n"
      "(--progress-every-ms, default 250); --postmortem-dir D dumps a black\n"
      "box under D/req-<seq>/ for every request a budget or deadline ended\n"
      "reads JSONL requests (see src/serve/protocol.hpp), writes JSONL\n"
      "responses in input order; EOF drains the queue and prints a summary\n";
  std::exit(2);
}

/// "67108864", "64m", "2G" → bytes. Exits with usage() on malformed input.
std::size_t parse_byte_count(const std::string& text) {
  if (text.empty()) usage();
  std::size_t multiplier = 1;
  std::string digits = text;
  switch (digits.back()) {
    case 'k': case 'K': multiplier = std::size_t{1} << 10; break;
    case 'm': case 'M': multiplier = std::size_t{1} << 20; break;
    case 'g': case 'G': multiplier = std::size_t{1} << 30; break;
    default: break;
  }
  if (multiplier != 1) digits.pop_back();
  if (digits.empty() ||
      digits.find_first_not_of("0123456789") != std::string::npos) {
    usage();
  }
  std::size_t value = 0;
  try {
    value = std::stoull(digits);
  } catch (const std::exception&) {
    usage();
  }
  return value * multiplier;
}

std::size_t parse_count(const std::string& text) {
  if (text.empty() ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    usage();
  }
  try {
    return std::stoull(text);
  } catch (const std::exception&) {
    usage();
  }
}

/// One request's stats line for the --stats JSONL sidecar.
std::string stats_line(const ResponseMessage& response) {
  std::string out = "{\"id\": " + json_quote(response.id) +
                    ", \"status\": " + json_quote(response.status) +
                    ", \"cache\": " + json_quote(response.cache) +
                    ", \"queue_us\": " + std::to_string(response.queue_us) +
                    ", \"solve_us\": " + std::to_string(response.solve_us);
  for (const auto& [key, value] : response.stats) {
    out += ", " + json_quote(key) + ": " + json_quote(value);
  }
  out += "}";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string input_path;
  std::string output_path;
  std::string stats_path;
  std::string flight_out;
  std::size_t snapshot_every = 64;
  bool quiet = false;
  ServerOptions options;
  options.default_deadline_ms = 0;

  const std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const auto next = [&]() -> const std::string& {
      if (i + 1 >= args.size()) usage();
      return args[++i];
    };
    if (arg == "--input") {
      input_path = next();
    } else if (arg == "--output") {
      output_path = next();
    } else if (arg == "--stats") {
      stats_path = next();
    } else if (arg == "--cache-bytes") {
      options.cache_bytes = parse_byte_count(next());
    } else if (arg == "--queue") {
      options.max_queue = parse_count(next());
    } else if (arg == "--workers") {
      options.workers = parse_count(next());
    } else if (arg == "--threads") {
      options.solver_threads = parse_count(next());
    } else if (arg == "--deadline-ms") {
      options.default_deadline_ms =
          static_cast<std::int64_t>(parse_count(next()));
    } else if (arg == "--solver") {
      options.default_solver = next();
    } else if (arg == "--budget-states") {
      options.default_states = parse_count(next());
    } else if (arg == "--snapshot-every") {
      snapshot_every = parse_count(next());
    } else if (arg == "--trace-out") {
      flight_out = next();
    } else if (arg == "--progress-every-ms") {
      options.progress_interval_ms =
          static_cast<std::int64_t>(parse_count(next()));
    } else if (arg == "--postmortem-dir") {
      options.postmortem_dir = next();
    } else if (arg == "--instance-root") {
      options.instance_root = next();
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      usage();
    }
  }

  std::ifstream input_file;
  if (!input_path.empty()) {
    input_file.open(input_path);
    if (!input_file) {
      std::cerr << "rbpeb_serve: cannot open --input " << input_path << "\n";
      return 2;
    }
  }
  std::istream& input = input_path.empty() ? std::cin : input_file;

  std::ofstream output_file;
  if (!output_path.empty()) {
    output_file.open(output_path);
    if (!output_file) {
      std::cerr << "rbpeb_serve: cannot open --output " << output_path << "\n";
      return 2;
    }
  }
  std::ostream& output = output_path.empty() ? std::cout : output_file;

  std::ofstream stats_file;
  if (!stats_path.empty()) {
    stats_file.open(stats_path);
    if (!stats_file) {
      std::cerr << "rbpeb_serve: cannot open --stats " << stats_path << "\n";
      return 2;
    }
  }

  // The sidecar is shared between the drain loop (response/snapshot lines,
  // main thread) and the server's progress/postmortem events (worker
  // threads); one mutex keeps the JSONL lines whole.
  std::mutex stats_mutex;
  if (stats_file.is_open()) {
    options.event_sink = [&stats_file, &stats_mutex](const std::string& line) {
      const std::lock_guard<std::mutex> lock(stats_mutex);
      stats_file << line << "\n";
    };
  }

  if (!flight_out.empty()) obs::trace_set_output(flight_out);
  Server server(options);

  // Pipelined batch replay: keep up to max_queue requests in flight, write
  // responses in input order. Waiting on the OLDEST future before admitting
  // more is the tool-side backpressure that keeps a burst of piped requests
  // from tripping the server's admission rejection.
  std::deque<std::future<ResponseMessage>> pending;
  std::uint64_t malformed = 0;
  std::uint64_t drained = 0;
  const auto drain_one = [&] {
    ResponseMessage response = pending.front().get();
    pending.pop_front();
    output << response.to_json() << "\n";
    if (stats_file.is_open()) {
      const std::lock_guard<std::mutex> lock(stats_mutex);
      stats_file << stats_line(response) << "\n";
      // Periodic live metrics: one snapshot line every N responses, hit/miss
      // counters sourced from TraceCache::Stats so the sidecar always
      // reconciles with the cache's own accounting.
      if (snapshot_every != 0 && ++drained % snapshot_every == 0) {
        stats_file << server.metrics_snapshot_json() << "\n";
      }
    }
  };

  std::string line;
  while (std::getline(input, line)) {
    if (line.empty()) continue;
    RequestMessage request;
    try {
      request = parse_request(line);
    } catch (const std::exception& e) {
      // A malformed line gets a structured error response inline, keeping
      // the one-response-per-request contract.
      ++malformed;
      ResponseMessage response;
      response.status = "error";
      response.detail = e.what();
      std::promise<ResponseMessage> ready;
      ready.set_value(std::move(response));
      pending.push_back(ready.get_future());
      if (pending.size() >= options.max_queue) drain_one();
      continue;
    }
    pending.push_back(server.submit(std::move(request)));
    if (pending.size() >= options.max_queue) drain_one();
  }
  while (!pending.empty()) drain_one();
  // Final snapshot: the totals line the bench and smoke hold against the
  // shutdown summary.
  if (stats_file.is_open() && snapshot_every != 0) {
    stats_file << server.metrics_snapshot_json() << "\n";
  }
  output.flush();
  if (stats_file.is_open()) stats_file.flush();

  if (!quiet) {
    std::cerr << "rbpeb_serve summary:\n";
    for (const std::string& line : server.summary()) {
      std::cerr << "  " << line << "\n";
    }
    if (malformed != 0) {
      std::cerr << "  malformed_lines: " << malformed << "\n";
    }
  }
  if (!flight_out.empty()) {
    const std::size_t events = obs::trace_event_count();
    const std::uint64_t dropped = obs::trace_dropped();
    if (obs::trace_flush()) {
      std::cerr << "flight trace written to " << flight_out << " (" << events
                << " events, " << dropped << " dropped)\n";
    } else {
      std::cerr << "failed to write flight trace to " << flight_out << "\n";
    }
  }
  return 0;
}
