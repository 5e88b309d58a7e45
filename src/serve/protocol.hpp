// The rbpeb-serve wire protocol: JSONL solve requests and responses.
//
// One request per line in, one response per line out — the only framing a
// stdin pipe, a file queue, and a local socket all support without length
// prefixes. The project uses no JSON library, so this header also carries
// a minimal, dependency-free JSON reader: a recursive-descent parser over a
// small DOM (objects, arrays, strings, numbers, bools, null); the writer
// side escapes strings with support/json.hpp. It is a *protocol* parser, not
// a general one: numbers keep their raw text so integral budgets round-trip
// exactly, and anything malformed throws PreconditionError with the offset.
//
// Request line:
//   {"id": "r1", "dag": "4\n0 2\n1 2\n2 3\n", "r": 2,
//    "model": "oneshot", "solver": "portfolio",
//    "sources_blue": false, "sinks_blue": false,
//    "options": {"rule": "lru"},
//    "budget": {"states": 200000, "ms": 500, "threads": 2,
//               "memory": 67108864, "disk": 268435456}}
// Only "r" plus exactly one of "dag" (inline text) or "dag_file" (a path
// under the server's --instance-root, optionally with "dag_format":
// "auto"|"text"|"rbg") are required; everything else has server defaults.
// The answer — and its cache fingerprint — is identical whichever way the
// same instance arrives.
//
// Response line (see ResponseMessage): id, status, audited cost and trace,
// the cache verdict, per-request timing, and the solver's stats map.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/solvers/api.hpp"

namespace rbpeb::serve {

/// Minimal JSON DOM. Numbers keep their raw spelling (see header comment).
class Json {
 public:
  enum class Type { Null, Bool, Number, String, Object, Array };

  Type type = Type::Null;
  bool boolean = false;
  std::string text;  ///< Number: raw spelling. String: decoded content.
  std::map<std::string, Json> object;
  std::vector<Json> array;

  bool is_null() const { return type == Type::Null; }

  /// Member lookup; nullptr when absent or not an object.
  const Json* find(const std::string& key) const;

  /// Typed readers; each throws PreconditionError naming `where` when the
  /// value has the wrong type or (for numbers) malformed/overflowing text.
  const std::string& as_string(const std::string& where) const;
  bool as_bool(const std::string& where) const;
  std::uint64_t as_u64(const std::string& where) const;
  std::int64_t as_i64(const std::string& where) const;
};

/// Parse one JSON document (the whole string; trailing junk is an error).
Json json_parse(const std::string& text);

/// One parsed solve request. Defaults reproduce the CLI's: oneshot model,
/// default convention, server-chosen solver, server-default budgets.
struct RequestMessage {
  std::string id;
  std::string dag_text;
  /// Instance file alternative to inline "dag": a path resolved under the
  /// server's --instance-root jail (requests are rejected when no root is
  /// configured). Exactly one of dag_text / dag_file is set.
  std::string dag_file;
  std::string dag_format;  ///< "auto" (default), "text", or "rbg".
  std::size_t red_limit = 0;
  std::string model = "oneshot";
  bool sources_blue = false;
  bool sinks_blue = false;
  std::string solver;  ///< empty = the server's default solver
  SolverOptions options;
  /// Budget knobs; 0 = the server default for that dimension.
  std::size_t budget_states = 0;
  std::size_t budget_iterations = 0;
  std::int64_t budget_ms = 0;
  std::size_t budget_threads = 0;
  std::size_t budget_memory = 0;
  std::size_t budget_disk = 0;
};

/// Parse one request line. Throws PreconditionError on malformed JSON,
/// missing required fields ("dag", "r"), or unknown keys (typos must fail
/// loudly, same rule as solver options).
RequestMessage parse_request(const std::string& line);

/// One response, rendered as a single JSONL line by to_json(). `status` is
/// one of: optimal, heuristic, budget_exhausted, inapplicable, rejected,
/// error. `cache` is one of: hit (served from the trace cache), flight
/// (collapsed into a concurrent identical solve), miss (solved fresh), none
/// (never reached the cache: rejected or malformed).
struct ResponseMessage {
  std::string id;
  std::string status;
  std::string cache = "none";
  std::string solver;
  std::string cost;        ///< audited Rational::str(); empty without a trace
  std::string trace_text;  ///< trace_to_text form; empty without a trace
  /// Suboptimality certificate, when the answer carries one (anytime
  /// solves, fresh or cached): exact Rational::str() renderings of ε and
  /// the proved lower bound, satisfying cost ≤ (1+ε)·lower_bound. Both
  /// empty otherwise. "0" epsilon with status heuristic cannot occur — a
  /// zero-ε certificate is reported as status optimal.
  std::string epsilon;
  std::string lower_bound;
  std::string detail;
  std::map<std::string, std::string> stats;
  std::int64_t queue_us = 0;  ///< admission-to-dispatch wait
  std::int64_t solve_us = 0;  ///< dispatch-to-answer (0 for cache hits)

  std::string to_json() const;
};

}  // namespace rbpeb::serve
