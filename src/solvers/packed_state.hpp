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
// rescans a wide key. The words, in order and little-endian, are a spill
// record's key bytes (bigstate/spill.hpp).
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

  /// The successor configuration after a *legal* move — one masked field
  /// update, mirroring Engine::apply's state effect exactly. Legality is
  /// still the caller's job; this only transcribes the transition.
  PackedKey apply(const Move& move) const {
    PackedKey next = *this;
    const unsigned computed = field(move.node) & 4u;
    const auto red = static_cast<unsigned>(PebbleColor::Red);
    switch (move.type) {
      case MoveType::Load:
        next.set_field(move.node, computed | red);
        break;
      case MoveType::Store:
        next.set_field(move.node,
                       computed | static_cast<unsigned>(PebbleColor::Blue));
        break;
      case MoveType::Compute:
        next.set_field(move.node, 4u | red);
        break;
      case MoveType::Delete:
        next.set_field(move.node, computed);
        break;
    }
    return next;
  }

  // ---- key protocol (closed tables, spill runs, hda routing) ------------

  const Key& key() const { return *this; }

  static PackedKey from_key(const Key& key, std::size_t /*node_count*/) {
    return key;
  }

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

  // ---- introspection (tests, diagnostics) --------------------------------

  std::size_t word_count() const { return words_.size(); }
  std::uint64_t word(std::size_t i) const { return words_[i]; }

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
  // one or two word compares it replaces.
  bool operator==(const PackedKey& o) const {
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

  void set_field(NodeId v, unsigned f) {
    const std::size_t bit = kBitsPerNode * static_cast<std::size_t>(v);
    const std::size_t i = W == 1 ? 0 : bit >> 6;
    const auto off = static_cast<unsigned>(bit & 63);
    const std::uint64_t old_lo = words_[i];
    words_[i] = (old_lo & ~(std::uint64_t{7} << off)) |
                (std::uint64_t{f} << off);
    if constexpr (W == 0) {
      hash_ ^= word_hash(old_lo, i) ^ word_hash(words_[i], i);
    }
    if constexpr (W != 1) {
      if (off <= 61) return;
      // The field's high bits live in word i+1.
      const unsigned kept = 64 - off;  // bits that stayed in word i
      const std::uint64_t old_hi = words_[i + 1];
      words_[i + 1] = (old_hi & ~(std::uint64_t{7} >> kept)) |
                      (std::uint64_t{f} >> kept);
      if constexpr (W == 0) {
        hash_ ^= word_hash(old_hi, i + 1) ^ word_hash(words_[i + 1], i + 1);
      }
    }
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
