// External-memory closed table — what turns `--budget-memory` from a wall
// into a working set.
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
// type, two 1-bit flags and the 3-bit field the via move overwrote: 24
// bytes over one-word keys, 32 over two-word keys and 48 over runtime-width
// keys, which own one heap vector. No slot stores its parent key: a move
// changes exactly one field, so at() rebuilds the parent bit for bit by
// writing the overwritten field back into the key.
// Spill records carry the same field (spill.hpp). The A* searches spend
// most of their time probing the table at random, so the expander hashes
// every successor of a state first and prefetch()es its home slot, then
// offers each one to the hashed relax(), which probes once and, on a miss,
// inserts into the empty slot its probe stopped at. relax() takes the tree
// edge as the parent key (checked against the key) or as the overwritten
// field itself (hda-astar's routed messages). A table about to refill to a
// known size can reserve() its first slab for it, budget permitting.
//
// Duplicates are detected at insert time: a key that misses in RAM is looked
// up in the spill runs before relax() decides — each run's Bloom filter,
// then its fence index, then one block read (spill.hpp) — so a fresh key
// costs no disk access. That keeps the table exact:
//
//  * a RAM entry is inserted only after the runs show no record as cheap,
//    so its g is at most every spilled g for its key, and the best known
//    path is the RAM entry if there is one, else the best spilled record;
//  * relax() therefore gives the in-memory table's verdict on every offer,
//    ties included: an equal-g regeneration is Stale and keeps the first
//    edge;
//  * per key, g strictly falls from one push to the next, so each (key, g)
//    is pushed at most once, and begin_expansion expands it while g is the
//    best known — from its slot, or straight from its record when the key
//    lives only on disk.
//
// So a spilling search pops, expands and reconstructs exactly what the
// in-memory search does: same costs, expansion counts and tree edges
// (asserted by tests/solvers/test_spill.cpp). No state is lost, only
// parked on disk. The runs' filters and fences count against the budget
// like the overhead bytes.
//
// Single-owner: the sequential search owns one, each hda-astar shard owns
// one over its own spill partition.
#pragma once

#include <algorithm>
#include <cstdint>
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
    Expand,  ///< g is the best known and unexpanded: expand now.
    Skip,    ///< Superseded or already expanded at this g: drop it.
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
      runs_.emplace(layout_, spill_dir, max_disk_bytes,
                    &Packed::hash_serialized);
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
  /// it; Stale means a path at least as cheap is already known, in RAM or
  /// on a spill run.
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
        !fits(capacity * sizeof(Slot) + overhead())) {
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
  /// has not been expanded at this g yet. A key that lives only on disk
  /// expands straight from its record.
  Pop begin_expansion(const Key& key, std::int64_t g) {
    if (Slot* slot = find_slot(key)) {
      if (slot->g != g || slot->expanded) return Pop::Skip;
      slot->expanded = true;
      return Pop::Expand;
    }
    const std::uint8_t* rec = spilled(key, Packed::hash_key(key));
    RBPEB_ENSURE(rec != nullptr,
                 "begin_expansion: popped key absent from RAM and disk");
    return bigstate::spill_record_g(layout_, rec) == g &&
                   !bigstate::spill_record_expanded(layout_, rec)
               ? Pop::Expand
               : Pop::Skip;
  }

  /// Best known path record for `key`, wherever it lives — RAM or a spill
  /// run. The key must be known.
  Entry at(const Key& key) const {
    if (const Slot* slot = find_slot(key)) {
      return entry(key, slot->g, slot->prior, slot->via());
    }
    const std::uint8_t* rec = spilled(key, Packed::hash_key(key));
    RBPEB_ENSURE(rec != nullptr, "SpillingClosedTable::at: key not present");
    return entry(key, bigstate::spill_record_g(layout_, rec),
                 bigstate::spill_record_prior(layout_, rec),
                 bigstate::spill_record_via(layout_, rec));
  }

  std::size_t size() const { return size_; }

  /// RAM footprint: slot array and heap words of stored keys. Overhead
  /// bytes and the spill runs' filters and fences are budgeted but
  /// reported by their owners.
  std::size_t bytes() const {
    return slots_.capacity() * sizeof(Slot) + heap_bytes_;
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
    std::uint8_t expanded : 1 = 0;  ///< the state was expanded at exactly g
    /// via_node's field in the parent, before the via move overwrote it.
    std::uint8_t prior : 3 = 0;

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
        // A strict improvement re-opens the state; items at the old g go
        // stale with it.
        slot.set_path(g, prior_of(), via);
        slot.expanded = false;
        return Relax::Improved;
      }
    }
    // A miss in RAM: a spilled record decides between a fresh key and a
    // known one. Slot i is the empty slot the probe stopped at, unless
    // making room below re-homes the slots.
    Relax verdict = Relax::Inserted;
    if (const std::uint8_t* rec = spilled(key, hash)) {
      if (g >= bigstate::spill_record_g(layout_, rec)) return Relax::Stale;
      verdict = Relax::Improved;
    }
    const unsigned prior = prior_of();
    const std::size_t rehashes = rehashes_;
    if (!ensure_capacity()) return Relax::OutOfMemory;
    if (!budget_insert(Packed::key_heap_bytes(key))) {
      return Relax::OutOfMemory;
    }
    if (rehashes_ != rehashes) i = free_slot(hash);
    insert_fresh(i, key, g, prior, via);
    return verdict;
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

  /// Budgeted bytes held outside the slots: the searches' overhead and the
  /// spill runs' filters and fences.
  std::size_t overhead() const {
    return overhead_bytes_ + (runs_ ? runs_->index_bytes() : 0);
  }

  /// The best spilled record for `key` (hashing to `hash`), or nullptr when
  /// no run holds it. Valid until the next call.
  const std::uint8_t* spilled(const Key& key, std::size_t hash) const {
    if (!runs_ || runs_->empty()) return nullptr;
    key_scratch_.resize(layout_.key_bytes);
    rec_scratch_.resize(layout_.record_bytes());
    Packed::key_serialize(key, key_scratch_.data());
    return runs_->lookup(key_scratch_.data(), hash, rec_scratch_.data())
               ? rec_scratch_.data()
               : nullptr;
  }

  /// Budget gate for one fresh insert costing `extra` heap bytes: within
  /// budget, or shed the cold half first; below the working-set floor a
  /// spilling table admits the insert regardless (a table too small to
  /// evict from must still make progress). False = truly out of room
  /// (spilling off, or the disk budget is exhausted too).
  bool budget_insert(std::size_t extra) {
    if (fits(bytes() + overhead() + extra)) return true;
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
    const std::size_t new_total =
        (new_cap + slots_.size()) * sizeof(Slot) + heap_bytes_ + overhead();
    grow_refused_for_headroom_ = false;
    if (!fits(new_total)) {
      // Would the grown table have fit at steady state (new slab only, old
      // one freed)? Then this refusal is purely the rehash transient.
      const std::size_t steady_total =
          new_cap * sizeof(Slot) + heap_bytes_ + overhead();
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
  void insert_fresh(std::size_t i, const Key& key, std::int64_t g,
                    unsigned prior, Move via) {
    Slot& slot = slots_[i];
    slot.key = key;
    slot.set_path(g, prior, via);
    slot.occupied = true;
    slot.expanded = false;
    heap_bytes_ += Packed::key_heap_bytes(slot.key);
    ++size_;
  }

  /// Shed the cold half: spill the lowest-g half of the table into a fresh
  /// sorted run and drop it from RAM.
  bool make_room() {
    if (!spilling() || size_ == 0) return false;
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
                                   slot.prior, slot.expanded);
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
    const std::size_t rest = heap_bytes_ - evicted_heap + overhead();
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
  /// Scratch for spilled(): sized once, reused by every disk lookup.
  mutable std::vector<std::uint8_t> key_scratch_;
  mutable std::vector<std::uint8_t> rec_scratch_;
};

}  // namespace rbpeb
