// The bench report writer (bench/report.hpp): what it writes must parse as
// JSON whatever bytes a case id carries, with the header fields and the
// five groups where tools/bench_check.py looks for them.
#include "bench/report.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "src/serve/protocol.hpp"

namespace rbpeb::bench {
namespace {

using serve::Json;

TEST(BenchReport, EscapesIdsAndRoundTripsThroughTheParser) {
  const std::string id = std::string("odd\"name\\with\ttab") + '\x01' + "/nodel";
  Report report("demo");
  report.exact.set("cost_mismatches", std::size_t{0});
  Case& c = report.add_case(id);
  c.exact.set("cost", "4/25");
  c.rises.set("solved", true);
  c.falls.set("expanded", std::uint64_t{1234});
  c.timing.set("ms", 12.5, 1);
  c.info.set("nodes", 16).set("spec", "chain:n=16");
  report.add_case("second");

  const Json doc = serve::json_parse(report.json());
  EXPECT_EQ(doc.find("bench")->as_string("bench"), "demo");
  EXPECT_FALSE(doc.find("cpu_model")->as_string("cpu_model").empty());
  EXPECT_EQ(doc.find("hardware_concurrency")->as_u64("hardware_concurrency"),
            std::thread::hardware_concurrency());
  EXPECT_EQ(doc.find("exact")->find("cost_mismatches")->text, "0");
  // Empty groups are left out, at the root and in a case.
  EXPECT_EQ(doc.find("rises"), nullptr);

  const Json& cases = *doc.find("cases");
  ASSERT_EQ(cases.array.size(), 2u);
  const Json& first = cases.array[0];
  EXPECT_EQ(first.find("id")->as_string("id"), id);
  EXPECT_EQ(first.find("exact")->find("cost")->as_string("cost"), "4/25");
  EXPECT_TRUE(first.find("rises")->find("solved")->as_bool("solved"));
  EXPECT_EQ(first.find("falls")->find("expanded")->text, "1234");
  EXPECT_EQ(first.find("timing")->find("ms")->text, "12.5");
  EXPECT_EQ(first.find("info")->find("spec")->as_string("spec"),
            "chain:n=16");
  EXPECT_EQ(cases.array[1].find("id")->as_string("id"), "second");
  EXPECT_EQ(cases.array[1].find("exact"), nullptr);
}

TEST(BenchReport, ReportWithoutCasesIsValidJson) {
  const Json doc = serve::json_parse(Report("empty").json());
  EXPECT_TRUE(doc.find("cases")->array.empty());
}

}  // namespace
}  // namespace rbpeb::bench
