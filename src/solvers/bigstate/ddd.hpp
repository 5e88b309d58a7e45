// External-memory closed table with delayed duplicate detection — what turns
// `--budget-memory` from a wall into a working set.
//
// SpillingClosedTable is an open-addressed, linearly probed, byte-accounted
// hash table from a packed key to its best known path. With spilling off it
// refuses inserts past its byte budget, which the searches surface as
// ExactTermination::MemoryBudget. With spilling on it *evicts* instead: when
// an insert or growth would exceed the budget it sheds the cold half of its
// entries — lowest g first, the layers a mostly-monotone A* has already
// burned through (the structured-duplicate-detection reading of the DAG's
// level structure) — into sorted spill runs on disk (spill.hpp), then
// carries on.
//
// A slot is the key, g, the via move split into a 32-bit node and an 8-bit
// type, three 1-bit flags, the 3-bit field the via move overwrote, and a
// 16-bit deferred count: 24 bytes over one-word keys, 32 over two-word keys
// and 48 over runtime-width keys, which own one heap vector. No slot stores
// its parent key: a move changes exactly one field, so at() rebuilds the
// parent bit for bit by writing the overwritten field back into the key.
// Spill records carry the same field (spill.hpp). The A* searches spend
// most of their time probing the table at random, so the expander hashes
// every successor of a state first and prefetch()es its home slot, then
// offers each one to the hashed relax(), which probes once and, on a miss,
// inserts into the empty slot its probe stopped at. relax() takes the tree
// edge as the parent key (checked against the key) or as the overwritten
// field itself (hda-astar's routed messages). A table about to refill to a
// known size can reserve() its first slab for it, budget permitting.
//
// Duplicate detection is *delayed* (Korf's DDD): a freshly generated state
// is checked against the in-RAM table immediately, but against the spilled
// runs only in batched merge passes, triggered the first time an unverified
// entry is about to be expanded. The reconciliation restores exact
// in-memory semantics before any decision depends on them:
//
//  * a spilled record with a smaller g supersedes the RAM entry (its queue
//    items die by the stale-g check, exactly as an in-RAM improvement
//    would);
//  * an equal-g record marks the RAM entry already-expanded when the disk
//    copy was, so the regenerated duplicate is popped and dropped — never
//    expanded twice;
//  * a worse record on disk is simply stale history (runs are immutable;
//    compaction garbage-collects it).
//
// Every expansion gate runs through begin_expansion, which enforces
// "expand (key, g) at most once, and only at the best known g" — the exact
// invariant the in-memory search maintains implicitly — so a spilling
// search reproduces the in-memory search's costs AND expansion counts
// bit-for-bit (asserted by tests/solvers/test_spill.cpp), and the
// optimality proof is untouched: no state is lost, only parked on disk.
//
// Single-owner: the sequential search owns one, each hda-astar shard owns
// one over its own spill partition.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/pebble/move.hpp"
#include "src/solvers/bigstate/spill.hpp"
#include "src/solvers/exact.hpp"
#include "src/support/check.hpp"

namespace rbpeb {

/// Whether these options engage the external-memory path: a memory budget
/// is set and spilling is not explicitly off. One definition serves
/// exact-astar and hda-astar.
inline bool bigstate_spill_enabled(const ExactSearchOptions& options) {
  return options.max_memory_bytes != 0 && options.spill != SpillMode::Off;
}

/// Create the per-search spill directory the options ask for — a unique,
/// search-owned directory under the system temp dir (Auto) or under
/// options.spill_path (Path) — or nullopt when spilling is disabled. The
/// directory and everything in it is removed when the returned object dies,
/// cancellation and exceptions included.
std::optional<bigstate::SpillDirectory> make_spill_directory(
    const ExactSearchOptions& options);

template <typename Packed>
class SpillingClosedTable {
 public:
  using Key = typename Packed::Key;

  /// Best known path to a state: its cost and the tree edge achieving it
  /// (the parent rebuilt from the key and the field via overwrote).
  struct Entry {
    std::int64_t g = 0;
    Key parent{};
    Move via{MoveType::Load, 0};
  };

  /// Outcome of offering one generated state (see relax()).
  enum class Relax {
    Inserted,     ///< Fresh key: push it.
    Improved,     ///< Strictly cheaper path to a known key: push it.
    Stale,        ///< A path at least as cheap is already known: drop it.
    OutOfMemory,  ///< No spill room left (spill off, or disk budget hit).
  };

  /// Verdict on a popped open item (see begin_expansion()).
  enum class Pop {
    Expand,       ///< g is the best known and unexpanded: expand now.
    Skip,         ///< Superseded or already expanded at this g: drop it.
    OutOfMemory,  ///< Bookkeeping the expansion needs no longer fits.
  };

  /// `spill_dir` empty (or `max_bytes` 0) disables spilling: budget hits
  /// then refuse the insert. With spilling, the budget is
  /// honored down to a minimum working set of one initial slot slab.
  SpillingClosedTable(std::size_t node_count, std::size_t max_bytes,
                      const std::string& spill_dir,
                      std::size_t max_disk_bytes)
      : max_bytes_(max_bytes) {
    if (!spill_dir.empty() && max_bytes != 0) {
      layout_.key_bytes = Packed::key_serialized_bytes(node_count);
      runs_.emplace(layout_, spill_dir, max_disk_bytes);
    }
  }

  /// Bytes the search holds outside this table but inside the same memory
  /// budget — pattern-database tables and the open queue's bucket arrays.
  /// Counted against max_bytes alongside bytes(); refreshed by the searches
  /// at their poll checkpoints.
  void set_overhead_bytes(std::size_t bytes) { overhead_bytes_ = bytes; }

  /// Offer one generated state, reached from `parent` by `via`: the two
  /// keys must differ in via.node's field alone (checked whenever the edge
  /// is stored). Inserted/Improved mean the caller should evaluate and push
  /// it; Stale means a path at least as cheap is already in RAM (the delayed
  /// check against disk happens at expansion time).
  Relax relax(const Key& key, std::int64_t g, const Key& parent, Move via) {
    return relax(key, Packed::hash_key(key), g, parent, via);
  }

  /// relax() with the key's hash already computed (`hash` must equal
  /// Packed::hash_key(key)).
  Relax relax(const Key& key, std::size_t hash, std::int64_t g,
              const Key& parent, Move via) {
    return relax_edge(key, hash, g, via,
                      [&] { return prior_field(key, parent, via); });
  }

  /// relax() with the tree edge given as the 3-bit field `prior` that `via`
  /// overwrote on via.node, instead of the parent key: the caller vouches
  /// that `key` is that parent after `via` (hda-astar's messages carry the
  /// field, not the parent).
  Relax relax(const Key& key, std::size_t hash, std::int64_t g,
              unsigned prior, Move via) {
    return relax_edge(key, hash, g, via, [prior] { return prior; });
  }

  /// Allocate the first slot slab at the size that holds `entries` entries
  /// under the 3/4 load limit, when that slab and the overhead bytes fit
  /// the budget; otherwise the table starts at kInitialSlots as usual. For
  /// a table about to refill to a known size — each anytime pass after the
  /// first, hinted with the previous pass's size() — it skips the regrowth.
  /// No effect once the table holds a slab.
  void reserve(std::size_t entries) {
    if (!slots_.empty()) return;
    std::size_t capacity = kInitialSlots;
    while (entries * 4 >= capacity * 3) capacity *= 2;
    if (capacity == kInitialSlots ||
        !fits(capacity * sizeof(Slot) + overhead_bytes_)) {
      return;
    }
    slots_.assign(capacity, Slot{});
    mask_ = capacity - 1;
  }

  /// Start loading the home slot of a key hashing to `hash` (no effect on
  /// the table's contents).
  void prefetch(std::size_t hash) const {
    __builtin_prefetch(slots_.data() + (hash & mask_));
  }

  /// Gate a popped open item (key, g): Expand exactly when the in-memory
  /// search would expand it — g matches the best known path and the state
  /// has not been expanded at this g yet. The first pop of an unverified
  /// entry triggers the batched merge pass against the spill runs.
  Pop begin_expansion(const Key& key, std::int64_t g) {
    if (Slot* slot = find_slot(key)) {
      if (!slot->verified) {
        reconcile();
        slot = find_slot(key);  // reconcile never moves slots; be explicit
      }
      if (slot->g != g || slot->expanded) return Pop::Skip;
      if (slot->deferred > 0) {
        --slot->deferred;  // a duplicate item: the original expands later
        return Pop::Skip;
      }
      slot->expanded = true;
      return Pop::Expand;
    }
    // The key was evicted wholesale; its truth lives on disk.
    RBPEB_ENSURE(runs_ && !runs_->empty(),
                 "begin_expansion: popped key absent from RAM and disk");
    std::uint8_t* rec = rec_scratch();
    Packed::key_serialize(key, key_scratch());
    const bool found = runs_->lookup(key_scratch(), rec);
    RBPEB_ENSURE(found, "begin_expansion: popped key lost by the spill");
    if (bigstate::spill_record_g(layout_, rec) != g ||
        bigstate::spill_record_expanded(layout_, rec)) {
      return Pop::Skip;
    }
    // Re-adopt into RAM — marked expanded if this pop is the state's
    // original item, or with one deferred duplicate consumed if not — so
    // every sibling item at the same g resolves against RAM from here on.
    // (ensure_capacity/make_room may reuse the scratch; copy fields first.)
    const unsigned prior = bigstate::spill_record_prior(layout_, rec);
    const Move via = bigstate::spill_record_via(layout_, rec);
    const std::uint16_t deferred =
        bigstate::spill_record_deferred(layout_, rec);
    if (!ensure_capacity()) return Pop::OutOfMemory;
    if (!budget_insert(Packed::key_heap_bytes(key))) return Pop::OutOfMemory;
    Slot* slot =
        insert_fresh(free_slot(Packed::hash_key(key)), key, g, prior, via);
    slot->verified = true;
    if (!pending_.empty() && pending_.back() == key) {
      pending_.pop_back();  // insert_fresh queued it; it is already settled
      pending_heap_bytes_ -= Packed::key_heap_bytes(key);
    }
    if (deferred > 0) {
      slot->deferred = deferred - 1;
      return Pop::Skip;
    }
    slot->expanded = true;
    return Pop::Expand;
  }

  /// Settle every unverified entry against the spill runs. MUST be called
  /// before path reconstruction: an evicted-then-regenerated state's RAM
  /// entry may hold a worse (unreconciled) path whose tree edge would
  /// otherwise be spliced into the returned trace by at().
  void settle() { reconcile(); }

  /// Best known path record for `key`, wherever it lives — RAM or a spill
  /// run. Callers must settle() first (reconstruction walks only settled
  /// keys), so the key must exist and RAM entries are best-known.
  Entry at(const Key& key) const {
    if (const Slot* slot = find_slot(key)) {
      RBPEB_ENSURE(slot->verified,
                   "SpillingClosedTable::at: unsettled entry — call "
                   "settle() before reconstruction");
      return entry(key, slot->g, slot->prior, slot->via());
    }
    RBPEB_ENSURE(runs_ && !runs_->empty(),
                 "SpillingClosedTable::at: key not present");
    std::uint8_t* rec = rec_scratch();
    Packed::key_serialize(key, key_scratch());
    const bool found = runs_->lookup(key_scratch(), rec);
    RBPEB_ENSURE(found, "SpillingClosedTable::at: key not present");
    return entry(key, bigstate::spill_record_g(layout_, rec),
                 bigstate::spill_record_prior(layout_, rec),
                 bigstate::spill_record_via(layout_, rec));
  }

  std::size_t size() const { return size_; }

  /// RAM footprint: slot array, heap words of stored keys, and the pending
  /// (unverified-key) buffer. Overhead bytes are budgeted but reported by
  /// their owners.
  std::size_t bytes() const {
    return slots_.capacity() * sizeof(Slot) + heap_bytes_ +
           pending_.capacity() * sizeof(Key) + pending_heap_bytes_;
  }

  std::size_t max_bytes() const { return max_bytes_; }

  bool spilling() const { return runs_.has_value(); }
  std::size_t spilled_states() const {
    return runs_ ? runs_->records_spilled() : 0;
  }
  std::size_t spill_bytes() const { return runs_ ? runs_->bytes_written() : 0; }
  std::size_t spill_peak_bytes() const {
    return runs_ ? runs_->peak_disk_bytes() : 0;
  }
  std::size_t merge_passes() const { return runs_ ? runs_->merge_passes() : 0; }
  bool spill_io_error() const {
    return runs_ && runs_->last_failure() == bigstate::SpillFailure::Io;
  }

  /// True once the table refused to grow because the budget could not cover
  /// the rehash *transient* (old + new slot slab while re-homing) even
  /// though the grown table's steady-state footprint would have fit — the
  /// search stopped one doubling early. Sticky; surfaced by the searches as
  /// `table_headroom_stop` so the ROADMAP residual cap is observable.
  bool headroom_stop() const { return headroom_stop_; }

 private:
  /// A key's best path, with its via move split into node and type so the
  /// type, the flags and the prior field share the move's padding: 24 bytes
  /// over one-word keys.
  struct Slot {
    Key key{};
    std::int64_t g = 0;
    NodeId via_node = 0;
    std::uint8_t via_type = 0;
    std::uint8_t occupied : 1 = 0;
    std::uint8_t verified : 1 = 1;  ///< RAM g ≤ every spilled g for this key
    std::uint8_t expanded : 1 = 0;  ///< the state was expanded at exactly g
    /// via_node's field in the parent, before the via move overwrote it.
    std::uint8_t prior : 3 = 0;
    /// Duplicate open-queue items at g that must pop (and be consumed)
    /// before the state's earliest-pushed item expands it — what keeps
    /// spilled expansion ORDER identical to in-memory: dups are pushed
    /// later, so LIFO buckets pop them first, and the real expansion still
    /// happens at the original item's queue position.
    std::uint16_t deferred = 0;

    Move via() const {
      return Move{static_cast<MoveType>(via_type), via_node};
    }
    void set_path(std::int64_t new_g, unsigned new_prior, Move new_via) {
      g = new_g;
      prior = static_cast<std::uint8_t>(new_prior);
      via_node = new_via.node;
      via_type = static_cast<std::uint8_t>(new_via.type);
    }
  };
  static_assert(sizeof(Slot) == sizeof(Key) + 16,
                "a slot is its key, g and 8 bytes of move and flags");

  /// The body of both relax() forms; `prior_of()` yields the field the
  /// edge overwrote, read only when the edge is stored.
  template <class PriorOf>
  Relax relax_edge(const Key& key, std::size_t hash, std::int64_t g, Move via,
                   PriorOf&& prior_of) {
    std::size_t i = hash & mask_;
    if (!slots_.empty()) {
      for (; slots_[i].occupied; i = (i + 1) & mask_) {
        Slot& slot = slots_[i];
        if (!(slot.key == key)) continue;
        if (g >= slot.g) return Relax::Stale;
        // A strict improvement re-opens the state; verified status survives
        // (the RAM g only moved further below any spilled record's). Items
        // at the old g — deferred duplicates included — go stale with it.
        slot.set_path(g, prior_of(), via);
        slot.expanded = false;
        slot.deferred = 0;
        return Relax::Improved;
      }
    }
    // A miss: slot i is the empty slot the probe stopped at, unless making
    // room below re-homes the slots.
    const unsigned prior = prior_of();
    const std::size_t rehashes = rehashes_;
    if (!ensure_capacity()) return Relax::OutOfMemory;
    if (!budget_insert(Packed::key_heap_bytes(key))) {
      return Relax::OutOfMemory;
    }
    if (rehashes_ != rehashes) i = free_slot(hash);
    insert_fresh(i, key, g, prior, via);
    return Relax::Inserted;
  }

  /// The field `via` overwrote: parent's on via.node. Checks the tree-edge
  /// contract that lets at() rebuild the parent from it.
  static unsigned prior_field(const Key& key, const Key& parent, Move via) {
    RBPEB_ENSURE(key.same_except(parent, via.node),
                 "SpillingClosedTable::relax: the parent must differ from "
                 "the key in via.node's field alone");
    return parent.field(via.node);
  }

  /// The Entry of a tree edge stored as (g, prior field, via).
  static Entry entry(const Key& key, std::int64_t g, unsigned prior,
                     Move via) {
    Entry e{g, key, via};
    e.parent.set_field(via.node, prior);
    return e;
  }

  static constexpr std::size_t kInitialSlots = 1024;
  /// A spilling table never evicts below this population: budgets smaller
  /// than the working-set floor would otherwise degenerate into one-record
  /// runs. The budget is honored above the floor, best-effort below.
  static constexpr std::size_t kMinEvictEntries = 512;

  bool fits(std::size_t total) const {
    return max_bytes_ == 0 || total <= max_bytes_;
  }

  /// Budget gate for one fresh insert costing `extra` heap bytes: within
  /// budget, or shed the cold half first; below the working-set floor a
  /// spilling table admits the insert regardless (a table too small to
  /// evict from must still make progress). False = truly out of room
  /// (spilling off, or the disk budget is exhausted too).
  bool budget_insert(std::size_t extra) {
    if (fits(bytes() + overhead_bytes_ + extra)) return true;
    if (!spilling()) return false;
    if (size_ >= kMinEvictEntries && !make_room()) return false;
    return true;
  }

  /// The first empty slot of the probe sequence from `hash`'s home slot.
  std::size_t free_slot(std::size_t hash) const {
    std::size_t i = hash & mask_;
    while (slots_[i].occupied) i = (i + 1) & mask_;
    return i;
  }

  Slot* find_slot(const Key& key) {
    if (slots_.empty()) return nullptr;
    std::size_t i = Packed::hash_key(key) & mask_;
    while (slots_[i].occupied) {
      if (slots_[i].key == key) return &slots_[i];
      i = (i + 1) & mask_;
    }
    return nullptr;
  }

  const Slot* find_slot(const Key& key) const {
    return const_cast<SpillingClosedTable*>(this)->find_slot(key);
  }

  /// Keep the load factor below 3/4: grow within the budget, else shed the
  /// cold half to disk (which halves the load instead).
  bool ensure_capacity() {
    if (!slots_.empty() && (size_ + 1) * 4 < slots_.size() * 3) return true;
    if (grow()) return true;
    if (make_room()) return true;
    if (grow_refused_for_headroom_ && !headroom_stop_) {
      // The capacity refusal that ends the search was a transient-only one:
      // the grown table would have fit, the copy peak would not. Record it
      // so the BudgetExhausted the caller is about to report can say so.
      headroom_stop_ = true;
      obs::trace_instant("table.headroom_stop", "table_bytes", bytes());
      obs::MetricsRegistry::instance().counter("table.headroom_stop").add();
    }
    return false;
  }

  bool grow() {
    const std::size_t new_cap =
        slots_.empty() ? kInitialSlots : slots_.size() * 2;
    // The rehash transient counts: the old slot array stays alive alongside
    // the new one until every occupied slot is re-homed below, so the peak
    // the budget must cover is old + new, not new alone.
    const std::size_t new_total = (new_cap + slots_.size()) * sizeof(Slot) +
                                  heap_bytes_ +
                                  pending_.capacity() * sizeof(Key) +
                                  pending_heap_bytes_ + overhead_bytes_;
    grow_refused_for_headroom_ = false;
    if (!fits(new_total)) {
      // Would the grown table have fit at steady state (new slab only, old
      // one freed)? Then this refusal is purely the rehash transient.
      const std::size_t steady_total =
          new_cap * sizeof(Slot) + heap_bytes_ +
          pending_.capacity() * sizeof(Key) + pending_heap_bytes_ +
          overhead_bytes_;
      grow_refused_for_headroom_ = fits(steady_total);
      // The first slab is the minimum working set a spilling table needs
      // to make progress; below it the budget is best-effort.
      if (!(spilling() && slots_.empty())) return false;
    }
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(new_cap, Slot{});
    mask_ = new_cap - 1;
    ++rehashes_;
    for (Slot& slot : old) {
      if (!slot.occupied) continue;
      slots_[free_slot(Packed::hash_key(slot.key))] = std::move(slot);
    }
    return true;
  }

  /// Store a fresh key in the empty slot `i` of its probe sequence.
  Slot* insert_fresh(std::size_t i, const Key& key, std::int64_t g,
                     unsigned prior, Move via) {
    Slot& slot = slots_[i];
    slot.key = key;
    slot.set_path(g, prior, via);
    slot.occupied = true;
    slot.expanded = false;
    slot.deferred = 0;
    slot.verified = !runs_ || runs_->empty();
    heap_bytes_ += Packed::key_heap_bytes(slot.key);
    ++size_;
    if (!slot.verified) {
      pending_.push_back(slot.key);
      pending_heap_bytes_ += Packed::key_heap_bytes(slot.key);
    }
    return &slot;
  }

  /// The batched DDD pass: merge-join every unverified key against the
  /// spill runs and fold better-or-equal disk records into their RAM
  /// entries, restoring exact in-memory semantics for all of them.
  void reconcile() {
    if (pending_.empty()) return;
    if (runs_ && !runs_->empty()) {
      const obs::TraceSpan merge_span("spill.merge", "pending",
                                      pending_.size());
      const std::size_t kb = layout_.key_bytes;
      std::vector<std::uint32_t> order(pending_.size());
      std::iota(order.begin(), order.end(), 0u);
      std::vector<std::uint8_t> keys(pending_.size() * kb);
      for (std::size_t i = 0; i < pending_.size(); ++i) {
        Packed::key_serialize(pending_[i], keys.data() + i * kb);
      }
      std::sort(order.begin(), order.end(),
                [&](std::uint32_t a, std::uint32_t b) {
                  return std::memcmp(keys.data() + a * kb,
                                     keys.data() + b * kb, kb) < 0;
                });
      std::vector<std::uint8_t> sorted(keys.size());
      for (std::size_t i = 0; i < order.size(); ++i) {
        std::memcpy(sorted.data() + i * kb, keys.data() + order[i] * kb, kb);
      }
      runs_->batch_lookup(
          sorted.data(), order.size(),
          [&](std::size_t i, const std::uint8_t* rec) {
            Slot* slot = find_slot(pending_[order[i]]);
            RBPEB_ENSURE(slot != nullptr, "reconcile: pending key vanished");
            const std::int64_t disk_g = bigstate::spill_record_g(layout_, rec);
            const std::int64_t ram_g = slot->g;
            if (disk_g > ram_g) return;  // stale disk history
            // The disk path was there first: adopt it (ties keep the first
            // inserter's tree edge, as the in-memory table would). If the
            // disk copy was expanded, the regenerated duplicate's queue
            // item dies at its pop; if it is still open at the same g, the
            // duplicate defers to the original's (earlier) queue item so
            // expansion order stays bit-identical to in-memory.
            const bool disk_expanded =
                bigstate::spill_record_expanded(layout_, rec);
            std::uint16_t deferred =
                bigstate::spill_record_deferred(layout_, rec);
            if (disk_g == ram_g && !disk_expanded &&
                deferred < std::numeric_limits<std::uint16_t>::max()) {
              // This fresh insert pushed one more duplicate. Saturating at
              // 65535 (would need that many evict/regenerate cycles of one
              // key at one g) degrades expansion ORDER locally, never
              // correctness: each (key, g) still expands at most once.
              ++deferred;
            }
            slot->set_path(disk_g, bigstate::spill_record_prior(layout_, rec),
                           bigstate::spill_record_via(layout_, rec));
            slot->expanded = disk_expanded;
            slot->deferred = deferred;
          });
    }
    for (const Key& key : pending_) {
      Slot* slot = find_slot(key);
      RBPEB_ENSURE(slot != nullptr, "reconcile: pending key vanished");
      slot->verified = true;
    }
    pending_.clear();
    pending_heap_bytes_ = 0;
  }

  /// Shed the cold half: settle every unverified entry first (eviction must
  /// write truth, not candidates), then spill the lowest-g half of the
  /// table into a fresh sorted run and drop it from RAM.
  bool make_room() {
    if (!spilling() || size_ == 0) return false;
    reconcile();
    const obs::TraceSpan evict_span("spill.evict", "entries", size_);
    std::vector<std::uint32_t> occupied;
    occupied.reserve(size_);
    for (std::uint32_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i].occupied) occupied.push_back(i);
    }
    const std::size_t evict_count = (occupied.size() + 1) / 2;
    // Lowest g-layer first: in a mostly-monotone best-first search those
    // are the levels the frontier has left behind — the cold end.
    std::nth_element(occupied.begin(), occupied.begin() + (evict_count - 1),
                     occupied.end(), [&](std::uint32_t a, std::uint32_t b) {
                       return slots_[a].g < slots_[b].g;
                     });
    const std::size_t rb = layout_.record_bytes();
    std::vector<std::uint8_t> records(evict_count * rb);
    std::size_t evicted_heap = 0;
    for (std::size_t v = 0; v < evict_count; ++v) {
      const Slot& slot = slots_[occupied[v]];
      evicted_heap += Packed::key_heap_bytes(slot.key);
      std::uint8_t* rec = records.data() + v * rb;
      Packed::key_serialize(slot.key, rec);
      bigstate::spill_record_store(layout_, rec, slot.g, slot.via(),
                                   slot.prior, slot.expanded, slot.deferred);
    }
    bigstate::sort_spill_records(layout_, records.data(), evict_count);
    if (!runs_->append_run(records.data(), evict_count)) return false;
    {
      auto& registry = obs::MetricsRegistry::instance();
      registry.counter("spill.evict_passes").add();
      registry.counter("spill.evicted_states").add(evict_count);
    }
    // Rebuild the slot array without the victims, at the same capacity
    // unless the slab itself is what no longer fits. The open queue grows
    // during a search, and a slab sized while it was small would leave room
    // for only a few hundred entries between evictions: halve it while the
    // table stays over budget and the survivors stay under the load limit.
    for (std::size_t v = 0; v < evict_count; ++v) {
      slots_[occupied[v]].occupied = false;
    }
    const std::size_t survivors = size_ - evict_count;
    const std::size_t rest = heap_bytes_ - evicted_heap +
                             pending_.capacity() * sizeof(Key) +
                             pending_heap_bytes_ + overhead_bytes_;
    std::size_t capacity = slots_.size();
    while (capacity > kInitialSlots &&
           !fits(capacity * sizeof(Slot) + rest) &&
           (survivors + 1) * 4 < capacity / 2 * 3) {
      capacity /= 2;
    }
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(capacity, Slot{});
    mask_ = capacity - 1;
    ++rehashes_;
    heap_bytes_ = 0;
    size_ = 0;
    for (Slot& slot : old) {
      if (!slot.occupied) continue;
      heap_bytes_ += Packed::key_heap_bytes(slot.key);
      slots_[free_slot(Packed::hash_key(slot.key))] = std::move(slot);
      ++size_;
    }
    return true;
  }

  std::size_t max_bytes_ = 0;
  std::size_t overhead_bytes_ = 0;
  bool grow_refused_for_headroom_ = false;  ///< last grow() refusal kind
  bool headroom_stop_ = false;              ///< see headroom_stop()
  bigstate::SpillLayout layout_;
  std::optional<bigstate::SpillRunSet> runs_;
  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t rehashes_ = 0;  ///< grow()s and make_room()s: slots re-homed
  std::size_t size_ = 0;
  std::size_t heap_bytes_ = 0;
  /// Scratch buffers for single-record disk lookups (begin_expansion, at):
  /// sized once, reused on the hot popped-an-evicted-key path instead of
  /// allocating per pop.
  std::uint8_t* key_scratch() const {
    key_scratch_.resize(layout_.key_bytes);
    return key_scratch_.data();
  }
  std::uint8_t* rec_scratch() const {
    rec_scratch_.resize(layout_.record_bytes());
    return rec_scratch_.data();
  }

  std::vector<Key> pending_;  ///< unverified keys since the last merge pass
  std::size_t pending_heap_bytes_ = 0;
  mutable std::vector<std::uint8_t> key_scratch_;
  mutable std::vector<std::uint8_t> rec_scratch_;
};

}  // namespace rbpeb
