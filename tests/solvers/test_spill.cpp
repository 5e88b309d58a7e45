// The external-memory search path: spill runs must store and serve exact
// best-path records, the spilling searches must reproduce the in-memory
// searches' costs AND expansion counts under budgets far too small for the
// closed table, merge passes must batch, cancellation must leave no spill
// files behind, and each hda-astar shard must spill into its own partition
// (this file runs under TSan in CI for exactly that).
#include "src/solvers/bigstate/spill.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>

#include "src/pebble/bounds.hpp"
#include "src/pebble/verifier.hpp"
#include "src/solvers/bigstate/ddd.hpp"
#include "src/solvers/exact_astar.hpp"
#include "src/solvers/hda/hda_astar.hpp"
#include "src/solvers/packed_state.hpp"
#include "src/workloads/chain.hpp"
#include "src/workloads/random_layered.hpp"
#include "src/workloads/stencil.hpp"

namespace rbpeb {
namespace {

namespace fs = std::filesystem;
using bigstate::SpillDirectory;
using bigstate::SpillLayout;
using bigstate::SpillRunSet;

// ---- run storage ---------------------------------------------------------

SpillLayout layout64() { return SpillLayout{sizeof(std::uint64_t)}; }

std::vector<std::uint8_t> make_record(const SpillLayout& layout,
                                      std::uint64_t key, std::int64_t g,
                                      bool expanded,
                                      std::uint64_t parent = 0) {
  std::vector<std::uint8_t> rec(layout.record_bytes());
  std::memcpy(rec.data(), &key, sizeof(key));
  std::memcpy(rec.data() + layout.parent_offset(), &parent, sizeof(parent));
  bigstate::spill_record_store(layout, rec.data(), g,
                               Move{MoveType::Load, 0}, expanded);
  return rec;
}

std::vector<std::uint8_t> make_run(const SpillLayout& layout,
                                   const std::vector<std::vector<std::uint8_t>>&
                                       records) {
  std::vector<std::uint8_t> run;
  for (const auto& rec : records) {
    run.insert(run.end(), rec.begin(), rec.end());
  }
  bigstate::sort_spill_records(layout, run.data(), records.size());
  return run;
}

TEST(SpillRunSet, AppendLookupAndBestRecordSemantics) {
  const SpillLayout layout = layout64();
  SpillDirectory dir = SpillDirectory::create("");
  SpillRunSet runs(layout, dir.path(), 0);
  EXPECT_TRUE(runs.empty());

  // Run 1: key 5 open at g=10, key 9 expanded at g=4.
  auto run1 = make_run(layout, {make_record(layout, 5, 10, false),
                                make_record(layout, 9, 4, true)});
  ASSERT_TRUE(runs.append_run(run1.data(), 2));
  // Run 2: key 5 again, now expanded at the smaller g=7 (later knowledge).
  auto run2 = make_run(layout, {make_record(layout, 5, 7, true)});
  ASSERT_TRUE(runs.append_run(run2.data(), 1));
  EXPECT_EQ(runs.records_spilled(), 3u);
  EXPECT_GT(runs.bytes_written(), 0u);

  std::vector<std::uint8_t> rec(layout.record_bytes());
  std::uint64_t key = 5;
  std::vector<std::uint8_t> key_buf(sizeof(key));
  std::memcpy(key_buf.data(), &key, sizeof(key));
  ASSERT_TRUE(runs.lookup(key_buf.data(), rec.data()));
  EXPECT_EQ(bigstate::spill_record_g(layout, rec.data()), 7);
  EXPECT_TRUE(bigstate::spill_record_expanded(layout, rec.data()));
  key = 42;  // never spilled
  std::memcpy(key_buf.data(), &key, sizeof(key));
  EXPECT_FALSE(runs.lookup(key_buf.data(), rec.data()));

  // Batched form agrees with the point lookups and counts one merge pass.
  const std::size_t passes_before = runs.merge_passes();
  std::vector<std::uint64_t> query_keys = {5, 9, 42};
  std::sort(query_keys.begin(), query_keys.end(),
            [](std::uint64_t a, std::uint64_t b) {
              return std::memcmp(&a, &b, sizeof(a)) < 0;
            });
  std::vector<std::uint8_t> keys(query_keys.size() * sizeof(std::uint64_t));
  std::memcpy(keys.data(), query_keys.data(), keys.size());
  std::size_t matches = 0;
  runs.batch_lookup(keys.data(), query_keys.size(),
                    [&](std::size_t, const std::uint8_t*) { ++matches; });
  EXPECT_EQ(matches, 2u);
  EXPECT_EQ(runs.merge_passes(), passes_before + 1);
}

TEST(SpillRunSet, CompactionFoldsRunsKeepingTheBestRecord) {
  const SpillLayout layout = layout64();
  SpillDirectory dir = SpillDirectory::create("");
  SpillRunSet runs(layout, dir.path(), 0);
  // Push enough runs to trip compaction (kMaxRuns = 8): key k appears in
  // many runs with decreasing g; the survivor must be the smallest.
  for (int round = 0; round < 12; ++round) {
    std::vector<std::vector<std::uint8_t>> records;
    for (std::uint64_t k = 0; k < 16; ++k) {
      records.push_back(
          make_record(layout, k, 100 - round, (round % 2) == 1));
    }
    auto run = make_run(layout, records);
    ASSERT_TRUE(runs.append_run(run.data(), records.size()));
  }
  EXPECT_LE(runs.run_count(), 8u);
  EXPECT_GT(runs.merge_passes(), 0u);
  std::vector<std::uint8_t> rec(layout.record_bytes());
  const std::uint64_t key = 3;
  std::vector<std::uint8_t> key_buf(sizeof(key));
  std::memcpy(key_buf.data(), &key, sizeof(key));
  ASSERT_TRUE(runs.lookup(key_buf.data(), rec.data()));
  EXPECT_EQ(bigstate::spill_record_g(layout, rec.data()), 100 - 11);
}

TEST(SpillRunSet, DiskBudgetRefusesAppendsAfterCompacting) {
  const SpillLayout layout = layout64();
  SpillDirectory dir = SpillDirectory::create("");
  // Room for a handful of records only.
  SpillRunSet runs(layout, dir.path(), 8 * layout.record_bytes());
  auto run = make_run(layout, {make_record(layout, 1, 1, false),
                               make_record(layout, 2, 1, false),
                               make_record(layout, 3, 1, false)});
  ASSERT_TRUE(runs.append_run(run.data(), 3));
  auto run2 = make_run(layout, {make_record(layout, 4, 1, false),
                                make_record(layout, 5, 1, false),
                                make_record(layout, 6, 1, false)});
  ASSERT_TRUE(runs.append_run(run2.data(), 3));
  // A third distinct batch cannot fit even after compaction folds 1+2.
  auto run3 = make_run(layout, {make_record(layout, 7, 1, false),
                                make_record(layout, 8, 1, false),
                                make_record(layout, 9, 1, false)});
  EXPECT_FALSE(runs.append_run(run3.data(), 3));
  // The set stays consistent: earlier records still resolve.
  std::vector<std::uint8_t> rec(layout.record_bytes());
  const std::uint64_t key = 2;
  std::vector<std::uint8_t> key_buf(sizeof(key));
  std::memcpy(key_buf.data(), &key, sizeof(key));
  EXPECT_TRUE(runs.lookup(key_buf.data(), rec.data()));
}

TEST(SpillDirectory, RemovesItsTreeOnDestruction) {
  std::string path;
  {
    SpillDirectory dir = SpillDirectory::create("");
    path = dir.path();
    ASSERT_TRUE(fs::exists(path));
    const std::string shard = dir.partition("shard-0");
    ASSERT_TRUE(fs::exists(shard));
    std::ofstream(fs::path(shard) / "run-0.spill") << "bytes";
  }
  EXPECT_FALSE(fs::exists(path));
}

// ---- the spilling searches ----------------------------------------------

struct SolveOutcome {
  std::optional<ExactResult> result;
  ExactSearchStats stats;
};

SolveOutcome solve_astar(const Engine& engine, const ExactSearchOptions& opt) {
  SolveOutcome out;
  out.result = try_solve_exact_astar(engine, opt, &out.stats);
  return out;
}

SolveOutcome solve_hda(const Engine& engine, std::size_t threads,
                       const ExactSearchOptions& opt) {
  SolveOutcome out;
  out.result = try_solve_hda_astar(engine, threads, opt, &out.stats);
  return out;
}

/// The headline invariant: a search squeezed through a budget ~500x smaller
/// than its closed table must reproduce the unbudgeted search bit for bit —
/// same optimal cost AND same expansion count — because delayed duplicate
/// detection never expands a state the in-memory search would not.
TEST(SpillSearch, TinyBudgetReproducesInMemoryCostsAndExpansions) {
  const Dag dag = make_stencil1d_dag(2, 14).dag;  // 30 nodes
  Engine engine(dag, Model::nodel(), min_red_pebbles(dag));
  ExactSearchOptions unbudgeted;
  unbudgeted.max_states = 4'000'000;
  SolveOutcome reference = solve_astar(engine, unbudgeted);
  ASSERT_TRUE(reference.result.has_value());

  ExactSearchOptions tiny = unbudgeted;
  tiny.max_memory_bytes = std::size_t{64} << 10;
  SolveOutcome spilled = solve_astar(engine, tiny);
  ASSERT_TRUE(spilled.result.has_value());
  EXPECT_EQ(spilled.result->cost, reference.result->cost);
  EXPECT_EQ(spilled.stats.states_expanded, reference.stats.states_expanded);
  EXPECT_GT(spilled.stats.spilled_states, 0u);
  EXPECT_GT(spilled.stats.spill_bytes, 0u);
  EXPECT_GT(spilled.stats.merge_passes, 0u);
  EXPECT_EQ(reference.stats.spilled_states, 0u);  // unbudgeted never spills
  EXPECT_EQ(verify_or_throw(engine, spilled.result->trace).total,
            spilled.result->cost);
}

TEST(SpillSearch, SearchesSmallerThanTheWorkingSetFloorNeverSpill) {
  // A 48-node chain's whole search fits a few hundred states: below the
  // eviction floor the budget is best-effort and the table never sheds —
  // spilling a table this small would only fragment the runs. Costs and
  // counts still match the unbudgeted search exactly (here trivially).
  Dag dag = make_chain_dag(48);
  Engine engine(dag, Model::oneshot(), 2);
  ExactSearchOptions unbudgeted;
  SolveOutcome reference = solve_astar(engine, unbudgeted);
  ASSERT_TRUE(reference.result.has_value());
  ExactSearchOptions tiny;
  tiny.max_memory_bytes = std::size_t{64} << 10;
  SolveOutcome spilled = solve_astar(engine, tiny);
  ASSERT_TRUE(spilled.result.has_value());
  EXPECT_EQ(spilled.result->cost, reference.result->cost);
  EXPECT_EQ(spilled.stats.states_expanded, reference.stats.states_expanded);
  EXPECT_EQ(spilled.stats.spilled_states, 0u);
}

TEST(SpillSearch, MultiRoundMergePassesUnderSustainedEviction) {
  // A 64 KiB budget on a 30-node stencil forces eviction rounds well past
  // the first: the delayed duplicate check must keep being exercised
  // against a growing, repeatedly compacted run set.
  Dag dag = make_stencil1d_dag(2, 14).dag;
  Engine engine(dag, Model::nodel(), min_red_pebbles(dag));
  ExactSearchOptions options;
  options.max_memory_bytes = std::size_t{64} << 10;
  SolveOutcome out = solve_astar(engine, options);
  ASSERT_TRUE(out.result.has_value());
  EXPECT_GE(out.stats.merge_passes, 2u);
  // Re-spilled entries make the cumulative count exceed any single table.
  EXPECT_GT(out.stats.spilled_states, 1000u);
}

TEST(SpillSearch, HdaShardsSpillIntoPrivatePartitionsAndAgree) {
  Dag dag = make_random_layered_dag({.layers = 3, .width = 4, .indegree = 2,
                                     .seed = 6});
  Engine engine(dag, Model::oneshot(), min_red_pebbles(dag));
  ExactSearchOptions unbudgeted;
  SolveOutcome reference = solve_astar(engine, unbudgeted);
  ASSERT_TRUE(reference.result.has_value());

  // 100 KB across two shards: both spill (the budget that used to kill this
  // exact instance in the PR-4 MemoryBudget test now just slows it down).
  ExactSearchOptions tiny;
  tiny.max_memory_bytes = 100'000;
  SolveOutcome spilled = solve_hda(engine, 2, tiny);
  ASSERT_TRUE(spilled.result.has_value());
  EXPECT_EQ(spilled.result->cost, reference.result->cost);
  EXPECT_GT(spilled.stats.spilled_states, 0u);
  EXPECT_EQ(spilled.stats.threads_used, 2u);
  EXPECT_EQ(verify_or_throw(engine, spilled.result->trace).total,
            spilled.result->cost);
}

TEST(SpillSearch, CancellationRemovesSpillFiles) {
  Dag dag = make_stencil1d_dag(2, 14).dag;
  Engine engine(dag, Model::nodel(), min_red_pebbles(dag));
  const fs::path base = fs::temp_directory_path() / "rbpeb-spill-cancel-test";
  fs::create_directories(base);
  ExactSearchOptions options;
  options.max_memory_bytes = std::size_t{64} << 10;
  options.spill = SpillMode::Path;
  options.spill_path = base.string();
  std::atomic<std::size_t> polls{0};
  // Fire after enough poll intervals for eviction to have written runs.
  options.should_stop = [&] { return ++polls > 40; };
  SolveOutcome out = solve_astar(engine, options);
  EXPECT_EQ(out.result, std::nullopt);
  EXPECT_EQ(out.stats.termination, ExactTermination::Stopped);
  EXPECT_GT(out.stats.spilled_states, 0u);  // files existed mid-search...
  EXPECT_TRUE(fs::is_empty(base));          // ...and are gone afterwards
  fs::remove_all(base);
}

TEST(SpillSearch, DiskBudgetExhaustionTerminatesGracefully) {
  Dag dag = make_stencil1d_dag(2, 14).dag;
  Engine engine(dag, Model::nodel(), min_red_pebbles(dag));
  ExactSearchOptions options;
  options.max_memory_bytes = std::size_t{64} << 10;
  options.max_disk_bytes = 20'000;  // a few hundred records at most
  SolveOutcome out = solve_astar(engine, options);
  EXPECT_EQ(out.result, std::nullopt);
  EXPECT_EQ(out.stats.termination, ExactTermination::MemoryBudget);
  EXPECT_GT(out.stats.states_expanded, 0u);
  EXPECT_GT(out.stats.spilled_states, 0u);
}

/// The acceptance instances: a 46-node nodel stencil and a 48-node oneshot
/// chain prove optimality under --budget-memory 32m --budget-disk 2g, with
/// costs identical to the unbudgeted run, for both exact searches. 32 MiB
/// genuinely undercuts the stencil's in-memory footprint once the PDB
/// tables and bucket arrays are charged against it, so this certifies the
/// spill path end to end on runtime-width keys.
TEST(SpillAcceptance, BudgetedSearchesMatchUnbudgetedOn46And48Nodes) {
  struct Case {
    Dag dag;
    Model model;
  };
  const Case cases[] = {
      {make_stencil1d_dag(2, 22).dag, Model::nodel()},  // 46 nodes
      {make_chain_dag(48), Model::oneshot()},
  };
  for (const Case& c : cases) {
    Engine engine(c.dag, c.model, min_red_pebbles(c.dag));
    ExactSearchOptions unbudgeted;
    unbudgeted.max_states = 8'000'000;
    SolveOutcome reference = solve_astar(engine, unbudgeted);
    ASSERT_TRUE(reference.result.has_value());

    ExactSearchOptions budgeted = unbudgeted;
    budgeted.max_memory_bytes = std::size_t{32} << 20;
    budgeted.max_disk_bytes = std::size_t{2} << 30;
    SolveOutcome astar = solve_astar(engine, budgeted);
    ASSERT_TRUE(astar.result.has_value()) << c.model.name();
    EXPECT_EQ(astar.result->cost, reference.result->cost);
    EXPECT_EQ(astar.stats.states_expanded, reference.stats.states_expanded)
        << c.model.name();
    EXPECT_EQ(astar.stats.termination, ExactTermination::Solved);
    EXPECT_EQ(verify_or_throw(engine, astar.result->trace).total,
              astar.result->cost);

    SolveOutcome hda = solve_hda(engine, 4, budgeted);
    ASSERT_TRUE(hda.result.has_value()) << c.model.name();
    EXPECT_EQ(hda.result->cost, reference.result->cost);
    EXPECT_EQ(verify_or_throw(engine, hda.result->trace).total,
              hda.result->cost);
  }
}

/// The key of an n-node table whose first word is `k` (the table only
/// hashes, compares and byte-counts keys).
template <class Packed>
Packed key_of(std::uint64_t k, std::size_t node_count) {
  std::vector<std::uint8_t> bytes(Packed::key_serialized_bytes(node_count), 0);
  std::memcpy(bytes.data(), &k, sizeof k);
  return Packed::key_deserialize(bytes.data(), node_count);
}

/// Regression: a slot-array rehash keeps the old and the new arrays alive
/// simultaneously, and that transient must count against the byte budget —
/// the table used to charge only the new array, overshooting the budget by
/// half the peak at every growth. A budget that covers the steady state but
/// not the transient must refuse the insert cleanly (spilling off), never
/// allocate past the cap. Runs over one-word keys and over runtime-width
/// keys, whose heap words the budget counts too.
template <class Packed>
void check_rehash_transient(std::size_t node_count) {
  using Table = SpillingClosedTable<Packed>;
  using Relax = typename Table::Relax;
  const Move via{MoveType::Load, 0};
  auto key = [&](std::uint64_t k) { return key_of<Packed>(k, node_count); };
  // Heap bytes one entry adds: its key and its parent's copy.
  const std::size_t entry_heap = 2 * Packed::key_heap_bytes(key(0));

  // Measure one slot slab with an unbudgeted table: the first insert
  // allocates the initial power-of-two array, so bytes() is the slab plus
  // one entry's heap words. Keep inserting until the array grows to learn
  // how many entries it held when it did.
  Table probe(node_count, 0, "", 0);
  ASSERT_EQ(probe.relax(key(0), 0, key(0), via), Relax::Inserted);
  const std::size_t slab_bytes = probe.bytes() - entry_heap;
  ASSERT_GT(slab_bytes, 0u);
  std::size_t grow_at = 0;
  for (std::uint64_t k = 1; grow_at == 0; ++k) {
    ASSERT_EQ(probe.relax(key(k), 0, key(0), via), Relax::Inserted);
    if (probe.bytes() - probe.size() * entry_heap > slab_bytes) {
      grow_at = probe.size() - 1;
    }
  }

  // Growth doubles the array, so the rehash peak is (old + new) = 3 slabs
  // plus the heap words already stored. One byte under it must refuse
  // exactly at the growth insert, with the table still inside its budget.
  const std::size_t peak_bytes = 3 * slab_bytes + grow_at * entry_heap;
  Table tight(node_count, peak_bytes - 1, "", 0);
  std::size_t inserted = 0;
  Relax last = Relax::Inserted;
  while (inserted < 10'000) {
    last = tight.relax(key(inserted + 1), 0, key(0), via);
    if (last != Relax::Inserted) break;
    ++inserted;
    ASSERT_LE(tight.bytes(), tight.max_bytes());
  }
  EXPECT_EQ(last, Relax::OutOfMemory);
  EXPECT_EQ(inserted, grow_at);
  ASSERT_LE(tight.bytes(), tight.max_bytes());
  // Still the first slab, un-grown.
  EXPECT_EQ(tight.bytes(), slab_bytes + inserted * entry_heap);

  // With the transient covered, the same insert sequence sails through the
  // growth — the refusal above was the transient accounting, nothing else.
  Table roomy(node_count, peak_bytes, "", 0);
  for (std::uint64_t k = 1; k <= inserted + 1; ++k) {
    ASSERT_EQ(roomy.relax(key(k), 0, key(0), via), Relax::Inserted) << k;
  }
  EXPECT_GT(roomy.bytes() - roomy.size() * entry_heap, slab_bytes);  // grew
  EXPECT_LE(roomy.bytes(), roomy.max_bytes());
}

TEST(SpillTable, RehashTransientCountsAgainstTheMemoryBudget) {
  check_rehash_transient<PackedKey<1>>(16);
  check_rehash_transient<PackedKey<0>>(60);  // three heap words per key
}

}  // namespace
}  // namespace rbpeb
