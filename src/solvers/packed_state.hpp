// Bit-packed game configurations: the exact searches' state and key type.
//
// A configuration assigns each node 3 bits: 2 for the pebble color and 1 for
// the sticky was-computed flag (needed by the oneshot rule). Node v sits at
// bits [3v, 3v+3) of an array of 64-bit words, color in the low 2 bits,
// computed flag at 0x4; a field straddles two words when 3v mod 64 > 61.
// The packed form is the canonical search key — states are compared,
// hashed and stored by value. A move touches exactly one field, so a
// successor key is derived from its parent with one or two masked word
// updates instead of the O(n) GameState copy + re-encode the original
// Dijkstra did per generated neighbor.
//
// PackedKey<W> holds W words inline — 21 nodes at W = 1, 42 at W = 2 — or,
// at W = 0, the runtime width words_for(n) on the heap (the exact searches
// use it past 42 nodes). Every width hashes with one formula, the XOR of a
// salted SplitMix64 finalizer per word; the runtime width caches that hash
// and patches it alongside each word update, so HDA* shard routing never
// rescans a wide key, and compares it before any heap word. The words, in
// order and little-endian, are a spill record's key bytes (bigstate/
// spill.hpp) and an open-queue record's key words (bucket_queue.hpp). The
// expansion kernel's bit planes (Masks, pebble/bounds.hpp) decode them
// three key words per mask word: 64 fields are exactly 192 bits.
//
// Because a move rewrites exactly one field, a tree edge needs no parent
// key: the closed tables store the via move and the 3-bit field it
// overwrote, and rebuild the parent by writing that field back
// (same_except() checks the contract, set_field() restores the field). A
// closed-table slot is its key plus 16 bytes — 24 bytes at W = 1, 32 at
// W = 2, 48 at the runtime width (a 24-byte vector and the cached hash).
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <limits>
#include <type_traits>
#include <vector>

#include "src/pebble/move.hpp"
#include "src/pebble/state.hpp"
#include "src/support/check.hpp"

namespace rbpeb {

template <std::size_t W>
class PackedKey {
 public:
  static constexpr std::size_t kBitsPerNode = 3;

  /// Largest node count W words hold (unbounded at the runtime width).
  static constexpr std::size_t max_nodes() {
    return W != 0 ? W * 64 / kBitsPerNode
                  : std::numeric_limits<std::size_t>::max();
  }

  /// Words an n-node configuration needs.
  static constexpr std::size_t words_for(std::size_t node_count) {
    return (kBitsPerNode * node_count + 63) / 64;
  }

  /// The state is its own search key: hashed, compared and stored by value.
  using Key = PackedKey;

  /// Value-initialized (`PackedKey{}`), the all-empty configuration at a
  /// fixed width; default-initialized, indeterminate. The fixed widths stay
  /// trivially constructible because the closed tables and open queues hold
  /// keys by value, and a non-trivial constructor there cost exact-astar
  /// about 15% of its time on ≤21-node DAGs (GCC 12, -O3). At the runtime
  /// width: the zero-word empty-slot sentinel of the closed tables, never a
  /// real configuration.
  /// Inline words (0: the runtime width, words_for(n) on the heap).
  static constexpr std::size_t kWords = W;

  PackedKey() requires(W != 0) = default;
  PackedKey() requires(W == 0) : hash_(0) {}

  /// The all-empty configuration of an n-node DAG.
  explicit PackedKey(std::size_t node_count) : words_{} {
    if constexpr (W == 0) {
      words_.assign(words_for(node_count), 0);
      hash_ = recompute_hash();
    } else {
      RBPEB_REQUIRE(node_count <= max_nodes(),
                    "DAG too large for this packed-key width");
    }
  }

  static PackedKey from_state(const GameState& state) {
    PackedKey packed(state.node_count());
    for (std::size_t v = 0; v < state.node_count(); ++v) {
      const NodeId node = static_cast<NodeId>(v);
      unsigned f = static_cast<unsigned>(state.color(node));
      if (state.was_computed(node)) f |= 4u;
      packed.set_field(node, f);
    }
    return packed;
  }

  PebbleColor color(NodeId v) const {
    return static_cast<PebbleColor>(field(v) & 3u);
  }

  bool was_computed(NodeId v) const { return (field(v) & 4u) != 0; }

  void set_color(NodeId v, PebbleColor c) {
    set_field(v, (field(v) & 4u) | static_cast<unsigned>(c));
  }

  void mark_computed(NodeId v) { set_field(v, field(v) | 4u); }

  /// Node v's 3-bit field: color in the low 2 bits, computed flag at 0x4.
  unsigned field(NodeId v) const {
    const std::size_t bit = kBitsPerNode * static_cast<std::size_t>(v);
    const std::size_t i = W == 1 ? 0 : bit >> 6;
    const auto off = static_cast<unsigned>(bit & 63);
    std::uint64_t x = words_[i] >> off;
    if constexpr (W != 1) {
      if (off > 61) x |= words_[i + 1] << (64 - off);  // straddles into i+1
    }
    return static_cast<unsigned>(x & 7u);
  }

  /// Overwrite node v's field with f (< 8), patching the cached hash.
  void set_field(NodeId v, unsigned f) {
    const FieldWrite w = field_write(v, f);
    if constexpr (W == 0) hash_ ^= hash_patch(w);
    words_[w.i] = w.lo;
    if (w.straddles) words_[w.i + 1] = w.hi;
  }

  /// True when `o` equals this key outside node v's field — what a tree
  /// edge (parent, move on v) must satisfy. Word by word, no allocation.
  bool same_except(const PackedKey& o, NodeId v) const {
    if (word_count() != o.word_count()) return false;
    const std::size_t bit = kBitsPerNode * static_cast<std::size_t>(v);
    const std::size_t i = bit >> 6;
    const auto off = static_cast<unsigned>(bit & 63);
    for (std::size_t j = 0; j < word_count(); ++j) {
      std::uint64_t diff = words_[j] ^ o.words_[j];
      if (j == i) diff &= ~(std::uint64_t{7} << off);
      // The field's high bits, when it straddles into word i+1.
      if (j == i + 1 && off > 61) diff &= ~(std::uint64_t{7} >> (64 - off));
      if (diff != 0) return false;
    }
    return true;
  }

  /// The successor configuration after a *legal* move — one masked field
  /// update, mirroring Engine::apply's state effect exactly. Legality is
  /// still the caller's job; this only transcribes the transition.
  PackedKey apply(const Move& move) const {
    PackedKey next = *this;
    next.apply_in_place(move);
    return next;
  }

  /// apply() on this configuration itself: no copy, so no allocation at
  /// the runtime width.
  void apply_in_place(const Move& move) {
    set_field(move.node, field_after(move));
  }

  /// hash() of apply(move), without building that key: the closed tables
  /// probe for a successor's slot before the successor exists. The runtime
  /// width patches its cached hash as set_field would, leaving the heap
  /// words alone; the fixed widths are trivially copyable, so they copy,
  /// apply and rehash.
  std::uint64_t hash_after(const Move& move) const {
    if constexpr (W == 0) {
      return hash_ ^ hash_patch(field_write(move.node, field_after(move)));
    } else {
      PackedKey next = *this;
      next.apply_in_place(move);
      return next.recompute_hash();
    }
  }

  // ---- key protocol (closed tables, spill runs, hda routing) ------------

  const Key& key() const { return *this; }

  static std::size_t hash_key(const Key& key) {
    return static_cast<std::size_t>(key.hash());
  }

  /// Heap bytes owned by this key; what the closed tables add to their byte
  /// accounting per stored key.
  static std::size_t key_heap_bytes(const Key& key) {
    return W == 0 ? key.word_count() * sizeof(std::uint64_t) : 0;
  }

  /// Serialized key width for the disk spill runs: the word array. Every
  /// key of one instance has the same width, so spill records are
  /// fixed-size and binary-searchable.
  static std::size_t key_serialized_bytes(std::size_t node_count) {
    return (W != 0 ? W : words_for(node_count)) * sizeof(std::uint64_t);
  }

  static void key_serialize(const Key& key, std::uint8_t* out) {
    std::memcpy(out, key.words_.data(),
                key.word_count() * sizeof(std::uint64_t));
  }

  static Key key_deserialize(const std::uint8_t* in, std::size_t node_count) {
    PackedKey key(node_count);
    std::memcpy(key.words_.data(), in,
                key.word_count() * sizeof(std::uint64_t));
    if constexpr (W == 0) key.hash_ = key.recompute_hash();
    return key;
  }

  /// hash_key() of a serialized key (`bytes` long), read from its words:
  /// what the spill runs build their filters from.
  static std::uint64_t hash_serialized(const std::uint8_t* in,
                                       std::size_t bytes) {
    std::uint64_t h = 0;
    for (std::size_t i = 0; i < bytes / sizeof(std::uint64_t); ++i) {
      std::uint64_t w;
      std::memcpy(&w, in + i * sizeof(std::uint64_t), sizeof(w));
      h ^= word_hash(w, i);
    }
    return h;
  }

  // ---- introspection (tests, diagnostics) --------------------------------

  std::size_t word_count() const { return words_.size(); }
  std::uint64_t word(std::size_t i) const { return words_[i]; }
  const std::uint64_t* words() const { return words_.data(); }

  /// Overwrite a runtime-width key in place with word_count() `words` whose
  /// hash is `hash`: the open queue's pop, which reuses the key's storage.
  void assign_words(const std::uint64_t* words, std::uint64_t hash)
    requires(W == 0)
  {
    std::memcpy(words_.data(), words, words_.size() * sizeof(std::uint64_t));
    hash_ = hash;
  }

  std::uint64_t hash() const {
    if constexpr (W == 0) {
      return hash_;
    } else {
      return recompute_hash();
    }
  }

  /// The hash computed from scratch — what the cached, incrementally
  /// patched runtime-width value must always equal.
  std::uint64_t recompute_hash() const {
    std::uint64_t h = 0;
    for (std::size_t i = 0; i < word_count(); ++i) {
      h ^= word_hash(words_[i], i);
    }
    return h;
  }

  // A word loop, not std::array/std::vector ==: those lower to a memcmp
  // call, which on the closed tables' probe path costs more than the
  // one or two word compares it replaces. The runtime width compares its
  // cached hash first, so a probe past a colliding slot reads no heap word.
  bool operator==(const PackedKey& o) const {
    if constexpr (W == 0) {
      if (hash_ != o.hash_) return false;
    }
    if (word_count() != o.word_count()) return false;
    for (std::size_t i = 0; i < word_count(); ++i) {
      if (words_[i] != o.words_[i]) return false;
    }
    return true;
  }

 private:
  static std::uint64_t mix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  /// Per-word hash contribution: SplitMix64 of the word salted by its index,
  /// XOR-combined so one word's change patches the total in O(1).
  static std::uint64_t word_hash(std::uint64_t w, std::size_t i) {
    return mix(w + 0x9e3779b97f4a7c15ull * (i + 1));
  }

  /// The field a legal `move` leaves on its node, mirroring Engine::apply.
  unsigned field_after(const Move& move) const {
    const unsigned computed = field(move.node) & 4u;
    const auto red = static_cast<unsigned>(PebbleColor::Red);
    switch (move.type) {
      case MoveType::Load:
        return computed | red;
      case MoveType::Store:
        return computed | static_cast<unsigned>(PebbleColor::Blue);
      case MoveType::Compute:
        return 4u | red;
      case MoveType::Delete:
        break;
    }
    return computed;
  }

  /// The word(s) that setting v's field to f rewrites: word i becomes lo
  /// and, when the field straddles, word i+1 becomes hi.
  struct FieldWrite {
    std::size_t i;
    std::uint64_t lo;
    std::uint64_t hi;
    bool straddles;
  };

  FieldWrite field_write(NodeId v, unsigned f) const {
    const std::size_t bit = kBitsPerNode * static_cast<std::size_t>(v);
    const std::size_t i = W == 1 ? 0 : bit >> 6;
    const auto off = static_cast<unsigned>(bit & 63);
    FieldWrite w{i,
                 (words_[i] & ~(std::uint64_t{7} << off)) |
                     (std::uint64_t{f} << off),
                 0, false};
    if constexpr (W != 1) {
      if (off > 61) {
        // The field's high bits live in word i+1.
        const unsigned kept = 64 - off;  // bits that stayed in word i
        w.hi = (words_[i + 1] & ~(std::uint64_t{7} >> kept)) |
               (std::uint64_t{f} >> kept);
        w.straddles = true;
      }
    }
    return w;
  }

  /// What XOR-ing into the hash turns hash() into the hash after `w`.
  std::uint64_t hash_patch(const FieldWrite& w) const {
    std::uint64_t patch = word_hash(words_[w.i], w.i) ^ word_hash(w.lo, w.i);
    if (w.straddles) {
      patch ^= word_hash(words_[w.i + 1], w.i + 1) ^ word_hash(w.hi, w.i + 1);
    }
    return patch;
  }

  struct NoHash {};

  std::conditional_t<W == 0, std::vector<std::uint64_t>,
                     std::array<std::uint64_t, W>>
      words_;
  [[no_unique_address]] std::conditional_t<W == 0, std::uint64_t, NoHash>
      hash_;
};

// Earlier names of the two fixed widths, still used by perfbench/.
using PackedState64 = PackedKey<1>;
using PackedState128 = PackedKey<2>;

}  // namespace rbpeb
