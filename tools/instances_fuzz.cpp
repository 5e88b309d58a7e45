// instances_fuzz — seeded random-mutation fuzzer for the instance parsers
// and the serve protocol.
//
//   instances_fuzz [--seconds N] [--iterations N] [--seed S] <seed-dir>...
//
// The toolchain here is gcc, so there is no libFuzzer; this is the seeded
// fallback the CI fuzz job runs (under ASan+UBSan) for a fixed wall-clock
// budget. Every file under the seed directories — the committed corpus,
// malformed files included — becomes a seed. Each iteration mutates a seed
// (bit flips, byte stomps, truncation, insertion, splicing two seeds) and
// feeds it to all three untrusted-input surfaces:
//
//   * from_text       — the line-based text parser
//   * from_rbg_buffer — the .rbg binary loader
//   * parse_request   — the serve protocol, one line of the input at a time
//
// The contract under fuzz: a parser either returns a valid Dag (or
// RequestMessage) or throws PreconditionError. Any other exception, any
// sanitizer report, or a crash is a bug. Accepted instances are
// additionally round-tripped through the opposite serializer and must
// preserve the node/edge counts. Accepted requests whose inline DAG parses
// to at most 64 nodes are confined to a small budget and solved by one
// in-process serve::Server (1 worker, no instance root); each must come back
// within 10 s with one of the six protocol statuses, and an `error` caused
// by a broken internal invariant is a bug too.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/graph/dag_io.hpp"
#include "src/instances/binary_format.hpp"
#include "src/serve/protocol.hpp"
#include "src/serve/server.hpp"
#include "src/support/check.hpp"

namespace {

using namespace rbpeb;

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::vector<std::string> load_seeds(const std::vector<std::string>& dirs) {
  std::vector<std::string> seeds;
  for (const std::string& dir : dirs) {
    for (const auto& entry :
         std::filesystem::recursive_directory_iterator(dir)) {
      if (!entry.is_regular_file()) continue;
      std::ifstream is(entry.path(), std::ios::binary);
      std::ostringstream os;
      os << is.rdbuf();
      seeds.push_back(std::move(os).str());
    }
  }
  return seeds;
}

std::string mutate(const std::vector<std::string>& seeds,
                   std::uint64_t& rng) {
  constexpr std::size_t kMaxInput = 1 << 20;
  std::string input = seeds[splitmix64(rng) % seeds.size()];
  std::size_t rounds = 1 + splitmix64(rng) % 8;
  for (std::size_t r = 0; r < rounds; ++r) {
    switch (splitmix64(rng) % 6) {
      case 0:  // bit flip
        if (!input.empty()) {
          std::size_t i = splitmix64(rng) % input.size();
          input[i] = static_cast<char>(input[i] ^
                                       (1u << (splitmix64(rng) % 8)));
        }
        break;
      case 1:  // byte stomp
        if (!input.empty()) {
          input[splitmix64(rng) % input.size()] =
              static_cast<char>(splitmix64(rng));
        }
        break;
      case 2:  // truncate
        if (!input.empty()) input.resize(splitmix64(rng) % input.size());
        break;
      case 3: {  // insert a few random bytes
        std::size_t at = input.empty() ? 0 : splitmix64(rng) % input.size();
        std::size_t count = 1 + splitmix64(rng) % 8;
        std::string noise;
        for (std::size_t i = 0; i < count; ++i) {
          noise.push_back(static_cast<char>(splitmix64(rng)));
        }
        input.insert(at, noise);
        break;
      }
      case 4: {  // splice the tail of another seed
        const std::string& other = seeds[splitmix64(rng) % seeds.size()];
        std::size_t cut = input.empty() ? 0 : splitmix64(rng) % input.size();
        std::size_t from =
            other.empty() ? 0 : splitmix64(rng) % other.size();
        input = input.substr(0, cut) + other.substr(from);
        break;
      }
      case 5:  // duplicate a chunk
        if (!input.empty()) {
          std::size_t at = splitmix64(rng) % input.size();
          std::size_t len =
              std::min<std::size_t>(1 + splitmix64(rng) % 64,
                                    input.size() - at);
          input.insert(at, input.substr(at, len));
        }
        break;
    }
    if (input.size() > kMaxInput) input.resize(kMaxInput);
  }
  return input;
}

struct Tally {
  std::uint64_t iterations = 0;
  std::uint64_t text_ok = 0;
  std::uint64_t text_rejected = 0;
  std::uint64_t rbg_ok = 0;
  std::uint64_t rbg_rejected = 0;
  std::uint64_t request_ok = 0;
  std::uint64_t request_rejected = 0;
  std::uint64_t served = 0;
};

/// The in-process server the accepted requests go to.
serve::ServerOptions fuzz_server_options() {
  serve::ServerOptions options;
  options.workers = 1;
  options.solver_threads = 1;
  options.default_states = 1000;
  options.default_deadline_ms = 50;
  options.cache_bytes = std::size_t{1} << 20;
  return options;  // no instance_root: every dag_file request is refused
}

/// Keep a solve cheap and free of side effects whatever the request asked
/// for: at most 1,000 states and iterations, 50 ms, one thread, and no
/// memory budget, so nothing spills (a spill path would create directories).
void confine(serve::RequestMessage& request) {
  auto cap = [](auto& value, auto limit) {
    if (value < 1 || value > limit) value = limit;
  };
  cap(request.budget_states, std::size_t{1000});
  cap(request.budget_iterations, std::size_t{1000});
  cap(request.budget_ms, std::int64_t{50});
  request.budget_threads = 1;
  request.budget_memory = 0;
  request.budget_disk = 0;
  const std::pair<const char*, const char*> pinned[] = {
      {"max-states", "1000"}, {"iterations", "1000"}, {"threads", "1"},
      {"spill", "off"}};
  for (const auto& [key, value] : pinned) {
    auto it = request.options.find(key);
    if (it != request.options.end()) it->second = value;
  }
}

/// Whether `response` is a legal answer: one of the six protocol statuses,
/// and no error that a broken internal invariant caused.
bool legal_response(const serve::ResponseMessage& response) {
  static const char* const kStatuses[] = {
      "optimal",      "heuristic", "budget_exhausted",
      "inapplicable", "rejected",  "error"};
  const bool known =
      std::find(std::begin(kStatuses), std::end(kStatuses),
                response.status) != std::end(kStatuses);
  return known && !(response.status == "error" &&
                    response.detail.find("invariant failed") !=
                        std::string::npos);
}

// Returns false (after printing) when a request line broke the contract.
bool exercise_request(const std::string& line, Tally& tally,
                      serve::Server& server) {
  serve::RequestMessage request;
  try {
    request = serve::parse_request(line);
    ++tally.request_ok;
  } catch (const PreconditionError&) {
    ++tally.request_rejected;
    return true;
  } catch (const std::exception& error) {
    std::cerr << "request parser broke its contract: " << error.what()
              << "\n";
    return false;
  }
  if (request.dag_text.empty()) return true;
  try {
    if (from_text(request.dag_text).node_count() > 64) return true;
  } catch (const PreconditionError&) {
    return true;
  }
  confine(request);
  std::future<serve::ResponseMessage> answer =
      server.submit(std::move(request));
  if (answer.wait_for(std::chrono::seconds(10)) !=
      std::future_status::ready) {
    std::cerr << "server hung on request: " << line << "\n";
    std::_Exit(1);  // the stuck worker would block the server's destructor
  }
  const serve::ResponseMessage response = answer.get();
  ++tally.served;
  if (!legal_response(response)) {
    std::cerr << "server broke its contract (status '" << response.status
              << "': " << response.detail << ") on request: " << line
              << "\n";
    return false;
  }
  return true;
}

// Returns false (after printing) when a surface broke its contract.
bool exercise(const std::string& input, Tally& tally, serve::Server& server) {
  ++tally.iterations;
  try {
    Dag dag = from_text(input);
    ++tally.text_ok;
    Dag back = from_text(to_text(dag));
    RBPEB_ENSURE(back.node_count() == dag.node_count() &&
                     back.edge_count() == dag.edge_count(),
                 "text round trip changed the instance shape");
  } catch (const PreconditionError&) {
    ++tally.text_rejected;
  } catch (const std::exception& error) {
    std::cerr << "text parser broke its contract: " << error.what() << "\n";
    return false;
  }

  // The binary loader requires 4-byte alignment; rehouse the mutated bytes.
  std::vector<std::uint32_t> aligned((input.size() + 3) / 4);
  if (!input.empty()) std::memcpy(aligned.data(), input.data(), input.size());
  std::span<const std::byte> bytes{
      reinterpret_cast<const std::byte*>(aligned.data()), input.size()};
  try {
    auto backing = std::shared_ptr<const void>(aligned.data(),
                                               [](const void*) {});
    Dag dag = instances::from_rbg_buffer(bytes, backing);
    ++tally.rbg_ok;
    std::string rebytes = instances::to_rbg_bytes(dag);
    RBPEB_ENSURE(rebytes.size() == input.size(),
                 "rbg round trip changed the image size");
  } catch (const PreconditionError&) {
    ++tally.rbg_rejected;
  } catch (const std::exception& error) {
    std::cerr << "rbg loader broke its contract: " << error.what() << "\n";
    return false;
  }

  std::istringstream lines(input);
  for (std::string line; std::getline(lines, line);) {
    if (!exercise_request(line, tally, server)) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  double seconds = 10.0;
  std::uint64_t iterations = 0;  // 0 = until the clock runs out
  std::uint64_t rng = 0x243F6A8885A308D3ull;
  std::vector<std::string> dirs;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--seconds" && i + 1 < args.size()) {
      seconds = std::stod(args[++i]);
    } else if (args[i] == "--iterations" && i + 1 < args.size()) {
      iterations = std::stoull(args[++i]);
    } else if (args[i] == "--seed" && i + 1 < args.size()) {
      rng = std::stoull(args[++i]);
    } else {
      dirs.push_back(args[i]);
    }
  }
  if (dirs.empty()) {
    std::cerr << "usage: instances_fuzz [--seconds N] [--iterations N] "
                 "[--seed S] <seed-dir>...\n";
    return 2;
  }

  std::vector<std::string> seeds = load_seeds(dirs);
  if (seeds.empty()) {
    std::cerr << "no seed files under the given directories\n";
    return 2;
  }

  Tally tally;
  serve::Server server(fuzz_server_options());
  // Every unmutated seed must already satisfy the contract.
  for (const std::string& seed : seeds) {
    if (!exercise(seed, tally, server)) return 1;
  }

  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(seconds));
  while (std::chrono::steady_clock::now() < deadline &&
         (iterations == 0 || tally.iterations < iterations)) {
    if (!exercise(mutate(seeds, rng), tally, server)) return 1;
  }

  std::cout << "fuzz ok: " << tally.iterations << " inputs over "
            << seeds.size() << " seeds — text " << tally.text_ok
            << " accepted / " << tally.text_rejected << " rejected, rbg "
            << tally.rbg_ok << " accepted / " << tally.rbg_rejected
            << " rejected, requests " << tally.request_ok << " accepted / "
            << tally.request_rejected << " rejected, " << tally.served
            << " served\n";
  return 0;
}
