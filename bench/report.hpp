// One schema for every BENCH_*.json report, and the writer every gated
// bench uses.
//
// A report is a header {bench, cpu_model, hardware_concurrency}, the five
// groups below at report level, and `cases`: a list of {id, <the same five
// groups>}. The group a field sits in is its gate in tools/bench_check.py,
// so a new bench is gated by what it writes, with no comparator code:
//   exact   must equal the baseline: proven costs, and error counters whose
//           baseline is 0 (cost_mismatches, audit_failures, ...);
//   rises   may only rise: solved/proved flags, headline counters;
//   falls   may only fall: deterministic expansion counts, epsilon;
//   timing  machine-dependent: printed by `compare`, ratio-gated by
//           `overhead`;
//   info    descriptive: printed, never gated by `compare`, but must be
//           byte-identical under `overhead`.
// A value a case cannot define, such as the cost of an unsolved run, is
// left out rather than written as a placeholder. Empty groups are omitted.
#pragma once

#include <concepts>
#include <deque>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/support/check.hpp"
#include "src/support/json.hpp"
#include "src/support/table.hpp"

namespace rbpeb::bench {

/// One group of fields, in insertion order, each value kept as JSON text.
class Group {
 public:
  Group& set(const std::string& key, const std::string& value) {
    return put(key, json_quote(value));
  }
  Group& set(const std::string& key, const char* value) {
    return set(key, std::string(value));
  }
  Group& set(const std::string& key, bool value) {
    return put(key, value ? "true" : "false");
  }
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  Group& set(const std::string& key, T value) {
    return put(key, std::to_string(value));
  }
  /// `digits` decimals, trailing zeros cut (format_double).
  Group& set(const std::string& key, double value, int digits) {
    return put(key, format_double(value, digits));
  }

  bool empty() const { return fields_.empty(); }

  std::string json() const {
    std::string out = "{";
    for (const auto& [key, value] : fields_) {
      if (out.size() > 1) out += ", ";
      out += json_quote(key) + ": " + value;
    }
    return out + "}";
  }

 private:
  Group& put(const std::string& key, std::string json_value) {
    fields_.emplace_back(key, std::move(json_value));
    return *this;
  }

  std::vector<std::pair<std::string, std::string>> fields_;
};

/// The five gate groups; the report root and every case carry one set.
struct Groups {
  Group exact, rises, falls, timing, info;

  /// `"exact": {...}, ...` for the non-empty groups, each prefixed by `sep`.
  std::string json(const std::string& sep) const {
    std::string out;
    const std::pair<const char*, const Group*> groups[] = {
        {"exact", &exact}, {"rises", &rises}, {"falls", &falls},
        {"timing", &timing}, {"info", &info}};
    for (const auto& [name, group] : groups) {
      if (!group->empty()) {
        out += sep + "\"" + name + "\": " + group->json();
      }
    }
    return out;
  }
};

struct Case : Groups {
  std::string id;
};

/// "model name" from /proc/cpuinfo; "unknown" where there is none.
inline std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    const auto start = line.find_first_not_of(' ', colon + 1);
    if (start != std::string::npos) return line.substr(start);
  }
  return "unknown";
}

struct Report : Groups {
  explicit Report(std::string name) : bench(std::move(name)) {}

  /// A new case; the reference stays valid while more cases are added.
  Case& add_case(const std::string& id) {
    cases.emplace_back().id = id;
    return cases.back();
  }

  std::string json() const {
    std::string out = "{\n  \"bench\": " + json_quote(bench) +
                      ",\n  \"cpu_model\": " + json_quote(cpu_model()) +
                      ",\n  \"hardware_concurrency\": " +
                      std::to_string(std::thread::hardware_concurrency()) +
                      Groups::json(",\n  ") + ",\n  \"cases\": [";
    for (std::size_t i = 0; i < cases.size(); ++i) {
      out += (i == 0 ? "\n    {\"id\": " : ",\n    {\"id\": ") +
             json_quote(cases[i].id) + cases[i].json(", ") + "}";
    }
    return out + (cases.empty() ? "]\n}\n" : "\n  ]\n}\n");
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    out << json();
    RBPEB_REQUIRE(out.good(), "cannot write bench report " + path);
  }

  std::string bench;
  std::deque<Case> cases;
};

}  // namespace rbpeb::bench
