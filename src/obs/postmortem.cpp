#include "src/obs/postmortem.hpp"

#include <filesystem>
#include <fstream>
#include <system_error>

#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/support/json.hpp"

namespace rbpeb::obs {

namespace {

bool write_file(const std::filesystem::path& path, const std::string& body) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out.write(body.data(), static_cast<std::streamsize>(body.size()));
  if (body.empty() || body.back() != '\n') out.put('\n');
  return static_cast<bool>(out);
}

}  // namespace

std::string write_postmortem(const std::string& dir,
                             const PostmortemReport& report) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return "";

  std::string progress;
  for (const ProgressSnapshot& snap : report.progress) {
    progress += snap.to_json();
    progress.push_back('\n');
  }
  if (!write_file(fs::path(dir) / "progress.jsonl", progress)) return "";

  if (!write_file(fs::path(dir) / "metrics.json",
                  MetricsRegistry::instance().snapshot_json())) {
    return "";
  }

  if (!write_file(fs::path(dir) / "trace_tail.json",
                  trace_tail_json(report.trace_tail_events))) {
    return "";
  }

  std::string verdict;
  verdict.reserve(1024);
  verdict += "{\"limiting_resource\":";
  append_json_string(verdict, report.limiting_resource);
  verdict += ",\"termination\":";
  append_json_string(verdict, report.termination);
  verdict += ",\"detail\":";
  append_json_string(verdict, report.detail);
  verdict += ",\"solver\":";
  append_json_string(verdict, report.solver);
  verdict += ",\"stats\":{";
  bool first = true;
  for (const auto& [key, value] : report.stats) {
    if (!first) verdict.push_back(',');
    first = false;
    append_json_string(verdict, key);
    verdict.push_back(':');
    append_json_string(verdict, value);
  }
  verdict += "},\"snapshots\":" + std::to_string(report.progress.size());
  verdict +=
      ",\"files\":{\"progress\":\"progress.jsonl\","
      "\"metrics\":\"metrics.json\",\"trace_tail\":\"trace_tail.json\"}}";
  const fs::path verdict_path = fs::path(dir) / "verdict.json";
  if (!write_file(verdict_path, verdict)) return "";
  return verdict_path.string();
}

}  // namespace rbpeb::obs
