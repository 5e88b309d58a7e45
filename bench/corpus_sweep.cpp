// Corpus sweep: the solver stack against every committed corpus instance.
//
// The corpus (corpus/, see corpus/manifest.tsv) is the repo's open-world
// gate: instances that arrived through the ingestion layer as FILES — text
// and mmap-ed .rbg, adversarial shapes (pathological width, skewed fan-in),
// random-layered sweeps, and the paper's reduction gadgets — rather than as
// in-process generator calls. Every manifest row is solved with its listed
// solvers (exact/hda/anytime/greedy tiers, plus a spill-on exact
// configuration), every trace is re-audited by the Verifier before anything
// is published, and every file under corpus/malformed/ must be REJECTED by
// the parsers.
//
// The bench/report.hpp report (default BENCH_corpus.json, or argv[1]) has
// one case per solve ("<file>/<model>/<solver>") and one per malformed file
// ("malformed/<file>"), and is gated by tools/bench_check.py compare:
//  * audited costs are exactly equal to the baseline's,
//  * solved / certified / proved_optimal may only rise, ε may only shrink,
//  * every malformed file must be rejected.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/report.hpp"
#include "src/instances/spec.hpp"
#include "src/pebble/verifier.hpp"
#include "src/solvers/api.hpp"
#include "src/support/check.hpp"
#include "src/support/table.hpp"

namespace {

using namespace rbpeb;
namespace fs = std::filesystem;

/// One manifest row (see corpus/manifest.tsv for the column contract).
struct ManifestRow {
  std::string file;
  std::string spec;
  std::size_t red_limit = 0;
  std::string model;
  std::vector<std::string> solvers;
};

std::vector<ManifestRow> read_manifest(const fs::path& path) {
  std::ifstream in(path);
  RBPEB_REQUIRE(in.good(), "cannot read manifest " + path.string());
  std::vector<ManifestRow> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    ManifestRow row;
    std::string solvers;
    fields >> row.file >> row.spec >> row.red_limit >> row.model >> solvers;
    RBPEB_REQUIRE(!solvers.empty(),
                  "manifest row with fewer than 5 columns: " + line);
    std::size_t start = 0;
    while (start <= solvers.size()) {
      const std::size_t comma = solvers.find(',', start);
      const std::size_t end = comma == std::string::npos ? solvers.size()
                                                         : comma;
      if (end > start) row.solvers.push_back(solvers.substr(start, end - start));
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

constexpr std::size_t kBudgetStates = 300'000;

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_corpus.json";
  std::string corpus_dir = "corpus";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--corpus" && i + 1 < argc) {
      corpus_dir = argv[++i];
    } else {
      out_path = arg;
    }
  }

  const std::vector<ManifestRow> manifest =
      read_manifest(fs::path(corpus_dir) / "manifest.tsv");
  const SolverRegistry& registry = SolverRegistry::instance();

  Table table("Corpus sweep (" + std::to_string(manifest.size()) +
              " manifest rows, budget " + std::to_string(kBudgetStates) +
              " states)");
  table.set_header({"file", "model", "R", "solver", "status", "cost", "eps"});
  bench::Report report("corpus");
  std::size_t solved = 0;
  std::size_t certified = 0;
  std::size_t proven = 0;
  std::size_t audit_failures = 0;
  for (const ManifestRow& row : manifest) {
    // Solve the FILE through the same ingestion path as the CLI and the
    // serve tier — .rbg rows run off the mmap-ed image.
    instances::ResolvedInstance instance =
        instances::resolve_instance("file:" + corpus_dir + "/" + row.file);
    const auto model = Model::from_name(row.model);
    RBPEB_REQUIRE(model.has_value(), "manifest: unknown model " + row.model);
    Engine engine(instance.dag, *model, row.red_limit);
    for (const std::string& token : row.solvers) {
      std::string solver_name = token;
      SolveRequest request;
      request.engine = &engine;
      request.budget.max_states = kBudgetStates;
      const bool spill_on = token.size() > 6 &&
                            token.rfind("@spill") == token.size() - 6;
      if (spill_on) {
        solver_name = token.substr(0, token.size() - 6);
        request.options["spill"] = "auto";
        request.budget.max_memory_bytes = std::size_t{8} << 20;
      }
      SolveResult result = registry.at(solver_name).run(request);
      std::string cost = "-";
      std::string epsilon;
      std::string lower_bound;
      bool case_certified = false;
      bool case_proven = false;
      if (result.has_trace()) {
        // Publish nothing unaudited: replay the trace, and when a
        // certificate is attached, re-check its inequality on the audited
        // cost.
        const VerifyResult vr = verify(engine, *result.trace);
        if (!vr.ok() || vr.total != result.cost) {
          ++audit_failures;
        } else {
          ++solved;
          cost = vr.total.str();
          case_proven = result.status == SolveStatus::Optimal;
          if (result.certificate) {
            if (!certificate_holds(*result.certificate, vr.total)) {
              ++audit_failures;
            } else {
              case_certified = true;
              epsilon = result.certificate->epsilon.str();
              lower_bound = result.certificate->lower_bound.str();
            }
          }
          if (case_proven) ++proven;
          if (case_certified) ++certified;
        }
      }
      table.add_row({row.file, row.model, std::to_string(row.red_limit),
                     token, to_string(result.status), cost,
                     epsilon.empty() ? "-" : epsilon});
      bench::Case& c =
          report.add_case(row.file + "/" + row.model + "/" + token);
      c.rises.set("solved", cost != "-")
          .set("certified", case_certified)
          .set("proved_optimal", case_proven);
      if (cost != "-") c.exact.set("cost", cost);
      if (case_certified) {
        c.falls.set("epsilon", epsilon);
        c.info.set("lower_bound", lower_bound);
      }
      c.info.set("spec", row.spec)
          .set("r", row.red_limit)
          .set("nodes", instance.dag.node_count())
          .set("status", to_string(result.status));
    }
  }
  table.add_note("every cost above is a Verifier replay, not solver output");
  std::cout << table << '\n';

  // ---- the adversarial half: everything in malformed/ must be rejected ---
  std::vector<std::string> malformed;
  for (const auto& entry :
       fs::directory_iterator(fs::path(corpus_dir) / "malformed")) {
    if (entry.is_regular_file()) {
      malformed.push_back(entry.path().filename().string());
    }
  }
  std::sort(malformed.begin(), malformed.end());
  std::size_t accepted_malformed = 0;
  for (const std::string& name : malformed) {
    bool rejected = false;
    std::string error;
    try {
      instances::resolve_instance("file:" + corpus_dir + "/malformed/" +
                                  name);
    } catch (const PreconditionError& e) {
      rejected = true;
      error = e.what();
    }
    if (!rejected) ++accepted_malformed;
    std::cout << (rejected ? "rejected: " : "ACCEPTED (BUG): ") << name
              << '\n';
    report.add_case("malformed/" + name).rises.set("rejected", rejected);
  }

  std::cout << "solved " << solved << ", certified " << certified
            << ", proven " << proven << ", audit_failures " << audit_failures
            << ", malformed rejected " << (malformed.size() - accepted_malformed)
            << "/" << malformed.size() << '\n';

  report.exact.set("audit_failures", audit_failures);
  report.rises.set("solved", solved)
      .set("certified", certified)
      .set("proven", proven);
  report.info.set("budget_states", kBudgetStates);
  report.write(out_path);
  std::cout << "report written to " << out_path << '\n';
  return audit_failures == 0 && accepted_malformed == 0 ? 0 : 1;
}
