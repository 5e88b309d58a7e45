// The external-memory search path: spill runs must store and serve exact
// best-path records through their filters and fences, a spilling table must
// give the in-memory table's verdict on every call, the spilling searches
// must reproduce the in-memory searches' costs AND expansion counts under
// budgets far too small for the closed table, cancellation must leave no
// spill files behind, and each hda-astar shard must spill into its own
// partition (this file runs under TSan in CI for exactly that).
#include "src/solvers/bigstate/spill.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "src/obs/metrics.hpp"
#include "src/pebble/bounds.hpp"
#include "src/pebble/verifier.hpp"
#include "src/solvers/bigstate/ddd.hpp"
#include "src/solvers/exact_astar.hpp"
#include "src/solvers/hda/hda_astar.hpp"
#include "src/solvers/packed_state.hpp"
#include "src/support/check.hpp"
#include "src/support/rng.hpp"
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

/// The filter hash of the one-word test keys.
constexpr bigstate::SpillKeyHash kKeyHash = &PackedKey<1>::hash_serialized;

/// Point lookup of the one-word key `key` (its bytes in memory order).
bool lookup(const SpillRunSet& runs, std::uint64_t key, std::uint8_t* out) {
  std::uint8_t bytes[sizeof(key)];
  std::memcpy(bytes, &key, sizeof(key));
  return runs.lookup(bytes, kKeyHash(bytes, sizeof(key)), out);
}

std::vector<std::uint8_t> make_record(const SpillLayout& layout,
                                      std::uint64_t key, std::int64_t g,
                                      bool expanded) {
  std::vector<std::uint8_t> rec(layout.record_bytes());
  std::memcpy(rec.data(), &key, sizeof(key));
  bigstate::spill_record_store(layout, rec.data(), g,
                               Move{MoveType::Load, 0}, 0, expanded);
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
  SpillRunSet runs(layout, dir.path(), 0, kKeyHash);
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
  EXPECT_GT(runs.index_bytes(), 0u);

  std::vector<std::uint8_t> rec(layout.record_bytes());
  ASSERT_TRUE(lookup(runs, 5, rec.data()));
  EXPECT_EQ(bigstate::spill_record_g(layout, rec.data()), 7);
  EXPECT_TRUE(bigstate::spill_record_expanded(layout, rec.data()));
  ASSERT_TRUE(lookup(runs, 9, rec.data()));
  EXPECT_EQ(bigstate::spill_record_g(layout, rec.data()), 4);
  EXPECT_FALSE(lookup(runs, 42, rec.data()));  // never spilled
  EXPECT_EQ(runs.merge_passes(), 0u);          // lookups merge nothing
}

/// Point lookups across the fence blocks of one many-block run. Keys are
/// stored big-endian, so key-byte order is numeric order: the odd keys are
/// spilled, and every even key falls before the first record (0), between
/// two records of one block, between two fences (the last key of a block
/// and the first of the next) or after the last record.
TEST(SpillRunSet, PointLookupsHitEverySpilledKeyAndMissTheRest) {
  const SpillLayout layout = layout64();
  SpillDirectory dir = SpillDirectory::create("");
  SpillRunSet runs(layout, dir.path(), 0, kKeyHash);
  constexpr std::uint64_t kRecords = 5'000;  // ~27 blocks of 186 records
  std::vector<std::vector<std::uint8_t>> records;
  for (std::uint64_t v = 1; v < 2 * kRecords; v += 2) {
    records.push_back(make_record(layout, __builtin_bswap64(v),
                                  static_cast<std::int64_t>(v), false));
  }
  auto run = make_run(layout, records);
  ASSERT_TRUE(runs.append_run(run.data(), records.size()));

  // Every spilled key is found — the first and last key of every block
  // among them — so no filter gives a spilled key a false negative.
  std::vector<std::uint8_t> rec(layout.record_bytes());
  for (std::uint64_t v = 1; v < 2 * kRecords; v += 2) {
    ASSERT_TRUE(lookup(runs, __builtin_bswap64(v), rec.data())) << v;
    EXPECT_EQ(bigstate::spill_record_g(layout, rec.data()),
              static_cast<std::int64_t>(v));
  }
  // Every other key misses, and the filter keeps most of them off the disk.
  obs::Counter& block_reads =
      obs::MetricsRegistry::instance().counter("spill.block_reads");
  const std::uint64_t reads_before = block_reads.value();
  for (std::uint64_t v = 0; v <= 2 * kRecords; v += 2) {
    EXPECT_FALSE(lookup(runs, __builtin_bswap64(v), rec.data())) << v;
  }
  EXPECT_LT(block_reads.value() - reads_before, kRecords / 20);
}

/// A run set's files die with it, whichever directory holds them: each
/// anytime pass builds a fresh run set in the same directory.
TEST(SpillRunSet, DeletesItsRunFilesWhenDestroyed) {
  const SpillLayout layout = layout64();
  SpillDirectory dir = SpillDirectory::create("");
  {
    SpillRunSet runs(layout, dir.path(), 0, kKeyHash);
    auto run1 = make_run(layout, {make_record(layout, 1, 1, false)});
    auto run2 = make_run(layout, {make_record(layout, 2, 1, false)});
    ASSERT_TRUE(runs.append_run(run1.data(), 1));
    ASSERT_TRUE(runs.append_run(run2.data(), 1));
    ASSERT_FALSE(fs::is_empty(dir.path()));
  }
  for (const auto& file : fs::directory_iterator(dir.path())) {
    ADD_FAILURE() << "left behind: " << file.path();
  }
}

TEST(SpillRunSet, CompactionFoldsRunsKeepingTheBestRecord) {
  const SpillLayout layout = layout64();
  SpillDirectory dir = SpillDirectory::create("");
  SpillRunSet runs(layout, dir.path(), 0, kKeyHash);
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
  ASSERT_TRUE(lookup(runs, 3, rec.data()));
  EXPECT_EQ(bigstate::spill_record_g(layout, rec.data()), 100 - 11);
}

TEST(SpillRunSet, DiskBudgetRefusesAppendsAfterCompacting) {
  const SpillLayout layout = layout64();
  SpillDirectory dir = SpillDirectory::create("");
  // Room for a handful of records only.
  SpillRunSet runs(layout, dir.path(), 8 * layout.record_bytes(), kKeyHash);
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
  EXPECT_TRUE(lookup(runs, 2, rec.data()));
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
/// same optimal cost AND same expansion count — because the table checks
/// every RAM miss against the spill runs and so gives every relax the
/// in-memory verdict.
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

TEST(SpillSearch, TinyBudgetReproducesInMemorySearchOverOneWordKeys) {
  // layered:layers=4,width=3 (12 nodes) keys the table with one word: the
  // 32-byte slots, whose via moves round-trip through the spill records.
  // Oneshot allows all four move types, and its ~2,100 expansions overflow
  // a 64 KiB table many times over.
  const Dag dag = make_random_layered_dag(
      {.layers = 4, .width = 3, .indegree = 2, .seed = 1});
  ASSERT_LE(dag.node_count(), PackedKey<1>::max_nodes());
  Engine engine(dag, Model::oneshot(), 3);
  ExactSearchOptions unbudgeted;
  SolveOutcome reference = solve_astar(engine, unbudgeted);
  ASSERT_TRUE(reference.result.has_value());

  ExactSearchOptions tiny = unbudgeted;
  tiny.max_memory_bytes = std::size_t{64} << 10;
  SolveOutcome spilled = solve_astar(engine, tiny);
  ASSERT_TRUE(spilled.result.has_value());
  EXPECT_EQ(spilled.result->cost, reference.result->cost);
  EXPECT_EQ(spilled.stats.states_expanded, reference.stats.states_expanded);
  EXPECT_GT(spilled.stats.spilled_states, 0u);
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
  // the first: the insert-time duplicate check must keep being exercised
  // against a growing run set, compacted at least twice.
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
  // Heap bytes one entry adds: its key's (a slot stores no parent key).
  const std::size_t entry_heap = Packed::key_heap_bytes(key(0));

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
    ASSERT_EQ(probe.relax(key(k), 0, key(k), via), Relax::Inserted);
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
    last = tight.relax(key(inserted + 1), 0, key(inserted + 1), via);
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
    ASSERT_EQ(roomy.relax(key(k), 0, key(k), via), Relax::Inserted) << k;
  }
  EXPECT_GT(roomy.bytes() - roomy.size() * entry_heap, slab_bytes);  // grew
  EXPECT_LE(roomy.bytes(), roomy.max_bytes());
}

TEST(SpillTable, RehashTransientCountsAgainstTheMemoryBudget) {
  check_rehash_transient<PackedKey<1>>(16);
  check_rehash_transient<PackedKey<0>>(60);  // three heap words per key
}

/// The open queue's bytes count against the table's budget and grow during
/// a search. When they grow past what the slab sized earlier leaves room
/// for, an eviction must shrink the slab too — otherwise every later insert
/// evicts a few hundred entries and the spill runs pile up.
TEST(SpillTable, EvictionShrinksASlabTheOverheadOutgrew) {
  using Table = SpillingClosedTable<PackedKey<1>>;
  constexpr std::size_t kBudget = std::size_t{1} << 20;
  SpillDirectory dir = SpillDirectory::create("");
  Table table(21, kBudget, dir.path(), 0);
  auto key = [](std::uint64_t k) { return key_of<PackedKey<1>>(k, 21); };
  const Move via{MoveType::Load, 0};
  constexpr std::uint64_t kKeys = 12'000;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_EQ(table.relax(key(k), static_cast<std::int64_t>(k), key(k), via),
              Table::Relax::Inserted);
  }
  ASSERT_EQ(table.spilled_states(), 0u);
  const std::size_t slab = table.bytes();
  // The overhead now leaves less than the slab: the next insert evicts
  // half the entries and must halve the slab to fit.
  const std::size_t overhead = kBudget - slab / 2 - 4096;
  table.set_overhead_bytes(overhead);
  ASSERT_EQ(table.relax(key(kKeys), 0, key(kKeys), via),
            Table::Relax::Inserted);
  EXPECT_EQ(table.spilled_states(), kKeys / 2);
  EXPECT_LT(table.bytes(), slab * 3 / 4);  // the slab halved
  EXPECT_LE(table.bytes() + overhead, kBudget);
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_EQ(table.at(key(k)).g, static_cast<std::int64_t>(k)) << k;
  }
}

/// reserve() sizes the first slab for a hinted population when the slab
/// fits the budget; past the budget it leaves the table to start at the
/// 1,024-slot slab, after which the table must behave exactly like an
/// unhinted one — same bytes() and the same verdict on every relax, up to
/// and including the budget's OutOfMemory.
template <class Packed>
void check_reserve_fallback(std::size_t node_count) {
  SCOPED_TRACE(::testing::Message() << node_count << " nodes");
  using Table = SpillingClosedTable<Packed>;
  const Move via{MoveType::Load, 0};
  auto key = [&](std::uint64_t k) { return key_of<Packed>(k, node_count); };

  // One 1,024-slot slab, measured on an unbudgeted table.
  Table probe(node_count, 0, "", 0);
  probe.relax(key(0), 0, key(0), via);
  const std::size_t slab = probe.bytes() - Packed::key_heap_bytes(key(0));

  // A hint within the budget: one allocation, then no regrowth up to it.
  Table roomy(node_count, 0, "", 0);
  roomy.reserve(3'000);  // 3,000 · 4/3 > 2,048 slots: a 4,096-slot slab
  EXPECT_EQ(roomy.bytes(), 4 * slab);
  for (std::uint64_t k = 0; k < 3'000; ++k) {
    ASSERT_EQ(roomy.relax(key(k), 0, key(k), via), Table::Relax::Inserted);
  }
  EXPECT_EQ(roomy.bytes() - roomy.size() * Packed::key_heap_bytes(key(0)),
            4 * slab);

  // A hint past the budget: the unhinted table's life, verdict by verdict.
  const std::size_t budget = 3 * slab;
  Table hinted(node_count, budget, "", 0);
  hinted.reserve(100'000);
  EXPECT_EQ(hinted.bytes(), 0u);
  Table plain(node_count, budget, "", 0);
  Rng rng(node_count);
  std::size_t out_of_memory = 0;
  for (int i = 0; i < 20'000 && out_of_memory < 10; ++i) {
    const Packed k = key(rng.next_below(4'000));
    const auto g = static_cast<std::int64_t>(rng.next_below(50));
    const auto verdict = hinted.relax(k, g, k, via);
    ASSERT_EQ(verdict, plain.relax(k, g, k, via)) << i;
    ASSERT_EQ(hinted.bytes(), plain.bytes()) << i;
    if (verdict == Table::Relax::OutOfMemory) ++out_of_memory;
  }
  EXPECT_EQ(out_of_memory, 10u);
  EXPECT_LE(hinted.bytes(), budget);
}

TEST(SpillTable, ReserveFallsBackToTheInitialSlabPastTheBudget) {
  check_reserve_fallback<PackedKey<1>>(16);
  check_reserve_fallback<PackedKey<0>>(60);
}

/// A spilling table under a budget that forces many evictions and
/// compactions, and an unbudgeted table, take the same random stream of
/// calls as a search makes them: relax in all three forms, begin_expansion
/// of pushed items (each popped at most once) and at() of known keys. Every
/// verdict and every at() entry must agree, and the reference's size() must
/// count exactly the keys the spilling table called Inserted.
template <class Packed>
void check_matches_in_memory_table(std::size_t n) {
  SCOPED_TRACE(::testing::Message() << n << " nodes");
  using Table = SpillingClosedTable<Packed>;
  auto key = [&](std::uint64_t k) { return key_of<Packed>(k, n); };

  // A budget that holds one slot slab but not its growth.
  Table probe(n, 0, "", 0);
  probe.relax(key(0), 0, key(0), Move{MoveType::Load, 0});
  SpillDirectory dir = SpillDirectory::create("");
  Table spilling(n, 2 * probe.bytes(), dir.path(), 0);
  Table reference(n, 0, "", 0);

  struct Item {
    Packed key;
    std::int64_t g;
  };
  std::vector<Item> open;
  std::vector<Packed> known;
  std::size_t inserted = 0;
  Rng rng(n + 7);
  for (int step = 0; step < 40'000; ++step) {
    const std::uint64_t op = rng.next_below(10);
    if (op < 7 || open.empty()) {
      const Packed k = key(rng.next_below(6'000));
      const auto g = static_cast<std::int64_t>(rng.next_below(64));
      const auto v = static_cast<NodeId>(rng.next_below(n));
      Packed parent = k;
      parent.set_field(v, (k.field(v) + 1 + rng.next_below(7)) % 8);
      const Move via{static_cast<MoveType>(rng.next_below(4)), v};
      const std::size_t hash = Packed::hash_key(k);
      const unsigned prior = parent.field(v);
      const auto verdict =
          op % 3 == 0   ? spilling.relax(k, g, parent, via)
          : op % 3 == 1 ? spilling.relax(k, hash, g, parent, via)
                        : spilling.relax(k, hash, g, prior, via);
      ASSERT_EQ(verdict, reference.relax(k, hash, g, prior, via)) << step;
      if (verdict == Table::Relax::Inserted) {
        ++inserted;
        known.push_back(k);
      }
      if (verdict != Table::Relax::Stale) open.push_back({k, g});
    } else if (op < 9) {
      const std::size_t i = rng.next_below(open.size());
      const Item item = open[i];
      open[i] = open.back();
      open.pop_back();
      ASSERT_EQ(spilling.begin_expansion(item.key, item.g),
                reference.begin_expansion(item.key, item.g))
          << step;
    } else if (!known.empty()) {
      const Packed& k = known[rng.next_below(known.size())];
      const auto got = spilling.at(k);
      const auto want = reference.at(k);
      ASSERT_EQ(got.g, want.g) << step;
      ASSERT_EQ(got.via, want.via) << step;
      ASSERT_TRUE(got.parent == want.parent) << step;
    }
  }
  EXPECT_EQ(reference.size(), inserted);
  EXPECT_LE(spilling.size(), reference.size());
  EXPECT_GT(spilling.spilled_states(), 4 * spilling.size());
  EXPECT_GE(spilling.merge_passes(), 1u);  // more than 8 runs were compacted
  for (const Packed& k : known) {
    ASSERT_EQ(spilling.at(k).g, reference.at(k).g);
  }
}

TEST(SpillTable, MatchesTheInMemoryTableCallForCall) {
  check_matches_in_memory_table<PackedKey<1>>(21);
  check_matches_in_memory_table<PackedKey<2>>(42);
  check_matches_in_memory_table<PackedKey<0>>(100);
}

// ---- derived parents ------------------------------------------------------

/// A tree edge: `key` is `parent` after the move `via`.
template <class Packed>
struct Edge {
  Packed parent;
  Move via;
  Packed key;
};

/// One edge per legal (node, move type, prior field) — Load from blue,
/// Store from red, Compute from a non-red field, Delete from red or blue,
/// each with and without the computed flag — over a random background of
/// valid fields, fresh per edge so that every key is distinct.
template <class Packed>
std::vector<Edge<Packed>> legal_edges(std::size_t n,
                                      const std::vector<NodeId>& nodes) {
  const std::pair<MoveType, std::vector<unsigned>> moves[] = {
      {MoveType::Load, {2, 6}},
      {MoveType::Store, {1, 5}},
      {MoveType::Compute, {0, 2, 4, 6}},
      {MoveType::Delete, {1, 2, 5, 6}}};
  Rng rng(n);
  std::vector<Edge<Packed>> edges;
  for (const NodeId v : nodes) {
    for (const auto& [type, priors] : moves) {
      for (const unsigned prior : priors) {
        Packed parent(n);
        for (std::size_t u = 0; u < n; ++u) {
          parent.set_field(static_cast<NodeId>(u),
                           static_cast<unsigned>(rng.next_below(3) |
                                                 (rng.next_below(2) << 2)));
        }
        parent.set_field(v, prior);
        const Move via{type, v};
        edges.push_back({parent, via, parent.apply(via)});
      }
    }
  }
  return edges;
}

template <class Packed>
void expect_edge(const SpillingClosedTable<Packed>& table,
                 const Edge<Packed>& e, std::int64_t g) {
  const auto entry = table.at(e.key);
  EXPECT_EQ(entry.g, g);
  EXPECT_EQ(entry.via, e.via);
  ASSERT_EQ(entry.parent.word_count(), e.parent.word_count());
  for (std::size_t i = 0; i < e.parent.word_count(); ++i) {
    EXPECT_EQ(entry.parent.word(i), e.parent.word(i)) << "word " << i;
  }
  EXPECT_EQ(entry.parent.hash(), e.parent.recompute_hash());
}

/// Every legal edge's parent must come back bit for bit from at(): from
/// RAM after an insert and after an improvement, from a spill run after
/// eviction, after a regenerated duplicate is checked against that run,
/// and after a pop expands the key straight from its record.
template <class Packed>
void check_derived_parents(std::size_t n, const std::vector<NodeId>& nodes) {
  SCOPED_TRACE(::testing::Message() << n << " nodes");
  using Table = SpillingClosedTable<Packed>;
  const std::vector<Edge<Packed>> edges = legal_edges<Packed>(n, nodes);

  Table ram(n, 0, "", 0);
  for (const Edge<Packed>& e : edges) {
    ASSERT_EQ(ram.relax(e.key, 2, e.parent, e.via), Table::Relax::Inserted);
  }
  ASSERT_EQ(ram.size(), edges.size());  // every key distinct
  for (const Edge<Packed>& e : edges) expect_edge(ram, e, 2);
  for (const Edge<Packed>& e : edges) {
    ASSERT_EQ(ram.relax(e.key, 1, e.parent, e.via), Table::Relax::Improved);
    expect_edge(ram, e, 1);
  }

  // The edges at g = 0, then g = 1 fillers (their own parents) until the
  // first eviction, which sheds the lowest-g half: every edge. The budget
  // holds one slot slab but not its growth.
  Table probe(n, 0, "", 0);
  probe.relax(edges[0].key, 0, edges[0].parent, edges[0].via);
  SpillDirectory dir = SpillDirectory::create("");
  Table spilling(n, 2 * probe.bytes(), dir.path(), 0);
  for (const Edge<Packed>& e : edges) {
    ASSERT_EQ(spilling.relax(e.key, 0, e.parent, e.via),
              Table::Relax::Inserted);
  }
  Rng rng(n + 1);
  std::vector<std::uint8_t> bytes(Packed::key_serialized_bytes(n));
  for (int i = 0; i < 100'000 && spilling.spilled_states() == 0; ++i) {
    for (std::uint8_t& b : bytes) b = static_cast<std::uint8_t>(rng.next_u64());
    const Packed filler = Packed::key_deserialize(bytes.data(), n);
    spilling.relax(filler, 1, filler, Move{MoveType::Load, 0});
  }
  ASSERT_GE(spilling.spilled_states(), edges.size());
  for (const Edge<Packed>& e : edges) expect_edge(spilling, e, 0);

  // Even edges: a regenerated duplicate at the same g through another
  // edge is Stale, as in RAM, and the spilled (first) edge stays. Odd
  // edges: a pop expands the key from its spilled record.
  for (std::size_t i = 0; i < edges.size(); i += 2) {
    const Edge<Packed>& e = edges[i];
    const auto other = static_cast<NodeId>(e.via.node == 0 ? 1 : 0);
    Packed parent = e.key;
    parent.set_field(other, (e.key.field(other) + 1) % 8);
    ASSERT_EQ(spilling.relax(e.key, 0, parent, Move{MoveType::Store, other}),
              Table::Relax::Stale);
  }
  for (std::size_t i = 1; i < edges.size(); i += 2) {
    ASSERT_EQ(spilling.begin_expansion(edges[i].key, 0), Table::Pop::Expand);
  }
  for (const Edge<Packed>& e : edges) expect_edge(spilling, e, 0);
}

TEST(SpillTable, DerivedParentsRoundTripEveryMoveAtEveryWidth) {
  // Node 21's field is bits 63–65 and node 42's bits 126–128: both straddle
  // a word boundary, as does node 85's (bits 255–257).
  ASSERT_GT(3 * 21 % 64, 61);
  ASSERT_GT(3 * 42 % 64, 61);
  ASSERT_GT(3 * 85 % 64, 61);
  check_derived_parents<PackedKey<1>>(21, {0, 10, 20});
  check_derived_parents<PackedKey<2>>(42, {0, 20, 21, 41});
  check_derived_parents<PackedKey<0>>(100, {0, 21, 42, 63, 85, 99});
}

/// The prior-field form of relax() (hda-astar's messages) stores the same
/// tree edge as the parent form, on the insert and on the improve path.
template <class Packed>
void check_prior_field_relax(std::size_t n, const std::vector<NodeId>& nodes) {
  SCOPED_TRACE(::testing::Message() << n << " nodes");
  using Table = SpillingClosedTable<Packed>;
  Table table(n, 0, "", 0);
  for (const Edge<Packed>& e : legal_edges<Packed>(n, nodes)) {
    const unsigned prior = e.parent.field(e.via.node);
    const std::size_t hash = Packed::hash_key(e.key);
    ASSERT_EQ(table.relax(e.key, hash, 5, prior, e.via),
              Table::Relax::Inserted);
    expect_edge(table, e, 5);
    ASSERT_EQ(table.relax(e.key, hash, 5, prior, e.via), Table::Relax::Stale);
    ASSERT_EQ(table.relax(e.key, hash, 4, prior, e.via),
              Table::Relax::Improved);
    expect_edge(table, e, 4);
  }
}

TEST(SpillTable, RelaxFromThePriorFieldStoresTheParentsEdge) {
  check_prior_field_relax<PackedKey<1>>(21, {0, 10, 20});
  check_prior_field_relax<PackedKey<2>>(42, {0, 20, 21, 41});
  check_prior_field_relax<PackedKey<0>>(100, {0, 21, 42, 63, 85, 99});
}

/// A parent that differs from the key anywhere but via.node's field is not
/// a tree edge: relax refuses it on the insert and on the improve path,
/// and the table keeps what it had.
template <class Packed>
void check_refuses_foreign_parents(std::size_t n,
                                   const std::vector<NodeId>& nodes) {
  SCOPED_TRACE(::testing::Message() << n << " nodes");
  using Table = SpillingClosedTable<Packed>;
  for (const Edge<Packed>& e : legal_edges<Packed>(n, nodes)) {
    // The neighbours' fields share a word with via.node's, or its
    // straddled second word (u = v - 1 wraps past n at v = 0).
    const NodeId v = e.via.node;
    for (const NodeId u : {v - 1, v + 1}) {
      if (u >= n) continue;
      Table table(n, 0, "", 0);
      Packed foreign = e.parent;
      foreign.set_field(u, e.parent.field(u) ^ 1u);
      EXPECT_THROW(table.relax(e.key, 5, foreign, e.via), InvariantError);
      EXPECT_EQ(table.size(), 0u);
      ASSERT_EQ(table.relax(e.key, 5, e.parent, e.via),
                Table::Relax::Inserted);
      EXPECT_THROW(table.relax(e.key, 4, foreign, e.via), InvariantError);
      expect_edge(table, e, 5);
    }
    // A parent of another width is no tree edge either.
    if constexpr (Packed::kWords == 0) {
      Table table(n, 0, "", 0);
      EXPECT_THROW(table.relax(e.key, 5, Packed(n + 64), e.via),
                   InvariantError);
    }
  }
}

TEST(SpillTable, RelaxRefusesAParentThatDiffersOutsideTheMovedField) {
  check_refuses_foreign_parents<PackedKey<1>>(21, {0, 10, 20});
  check_refuses_foreign_parents<PackedKey<2>>(42, {20, 21, 22});
  check_refuses_foreign_parents<PackedKey<0>>(100, {21, 42, 43, 85});
}

}  // namespace
}  // namespace rbpeb
