// Variable-width packed game configurations — the state type that lifts the
// exact searches past the 42-node __uint128_t cap.
//
// Same 3-bit-per-node field layout as packed_state.hpp (node v at bits
// [3v, 3v+3), color in the low 2 bits, computed flag at 0x4), but over an
// array of 64-bit words instead of one machine word:
//
//  * small-buffer: two inline words cover 42 nodes (3·42 = 126 bits), so the
//    instances the fixed-width searches already handle never touch the heap;
//    wider DAGs spill to one heap allocation of ceil(3n/64) words;
//  * O(1) incremental updates: a move touches one 3-bit field, which lives in
//    at most two adjacent words (fields straddle a word boundary when
//    3v mod 64 > 61), so a successor key is derived from its parent by one or
//    two masked word updates — never an O(n) re-encode;
//  * incremental hash: the key's hash (XOR of a per-word SplitMix64
//    finalizer, salted by word index) is cached in the state and patched in
//    O(1) alongside each word update. HDA* shards states by hash, so the
//    owner of a generated neighbor is known without rescanning the key.
//
// VarPackedState is its own search key (Key = VarPackedState): the closed
// tables and mailboxes store it by value. Copies of spilled states allocate;
// at the 42–128-node scale this subsystem targets that is 1–6 words per
// generated neighbor, dwarfed by the per-neighbor bound evaluation.
//
// The word layout matches the fixed-width encodings exactly: word 0 equals
// the low 64 bits of the __uint128_t key, word 1 the high bits — asserted
// per move by the differential fuzz in tests/solvers/test_bigstate.cpp.
#pragma once

#include <cstdint>
#include <cstring>

#include "src/pebble/move.hpp"
#include "src/pebble/state.hpp"
#include "src/solvers/packed_state.hpp"

namespace rbpeb {

class VarPackedState {
 public:
  static constexpr std::size_t kBitsPerNode = 3;
  static constexpr std::size_t kInlineWords = 2;

  /// Largest node count the inline buffer holds (42, the fixed-width cap).
  static constexpr std::size_t max_inline_nodes() {
    return kInlineWords * 64 / kBitsPerNode;
  }

  /// Words needed for an n-node configuration.
  static constexpr std::size_t words_for(std::size_t node_count) {
    return (kBitsPerNode * node_count + 63) / 64;
  }

  /// The state is its own key: hashed, compared, and stored by value.
  using Key = VarPackedState;

  /// Zero-width state — the empty-slot sentinel of ClosedTable. Never a real
  /// configuration (every search instance has at least one word).
  VarPackedState() = default;

  /// All-empty configuration for an n-node DAG.
  explicit VarPackedState(std::size_t node_count)
      : word_count_(static_cast<std::uint32_t>(words_for(node_count))) {
    std::uint64_t* w = alloc_words();
    for (std::size_t i = 0; i < word_count_; ++i) w[i] = 0;
    hash_ = recompute_hash();
  }

  VarPackedState(const VarPackedState& o)
      : word_count_(o.word_count_), hash_(o.hash_) {
    std::uint64_t* w = alloc_words();
    std::memcpy(w, o.words(), word_count_ * sizeof(std::uint64_t));
  }

  VarPackedState(VarPackedState&& o) noexcept
      : word_count_(o.word_count_), hash_(o.hash_) {
    if (o.is_heap()) {
      heap_ = o.heap_;
      o.word_count_ = 0;
      o.hash_ = 0;
    } else {
      std::memcpy(inline_words_, o.inline_words_, sizeof(inline_words_));
    }
  }

  VarPackedState& operator=(const VarPackedState& o) {
    if (this == &o) return *this;
    if (word_count_ != o.word_count_) {
      release();
      word_count_ = o.word_count_;
      alloc_words();
    }
    hash_ = o.hash_;
    std::memcpy(words(), o.words(), word_count_ * sizeof(std::uint64_t));
    return *this;
  }

  VarPackedState& operator=(VarPackedState&& o) noexcept {
    if (this == &o) return *this;
    release();
    word_count_ = o.word_count_;
    hash_ = o.hash_;
    if (o.is_heap()) {
      heap_ = o.heap_;
      o.word_count_ = 0;
      o.hash_ = 0;
    } else {
      std::memcpy(inline_words_, o.inline_words_, sizeof(inline_words_));
    }
    return *this;
  }

  ~VarPackedState() { release(); }

  static VarPackedState from_state(const GameState& state) {
    VarPackedState packed(state.node_count());
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

  /// The successor configuration after a *legal* move — one or two masked
  /// word updates, mirroring BasicPackedState::apply / Engine::apply.
  VarPackedState apply(const Move& move) const {
    VarPackedState next = *this;
    switch (move.type) {
      case MoveType::Load:
        next.set_color(move.node, PebbleColor::Red);
        break;
      case MoveType::Store:
        next.set_color(move.node, PebbleColor::Blue);
        break;
      case MoveType::Compute:
        next.set_field(move.node,
                       static_cast<unsigned>(PebbleColor::Red) | 4u);
        break;
      case MoveType::Delete:
        next.set_color(move.node, PebbleColor::None);
        break;
    }
    return next;
  }

  // ---- key protocol (shared with BasicPackedState by the searches) -------

  const Key& key() const { return *this; }

  static VarPackedState from_key(const Key& key, std::size_t /*node_count*/) {
    return key;
  }

  static std::size_t hash_key(const Key& key) {
    return static_cast<std::size_t>(key.hash_);
  }

  /// Heap bytes owned by this key (0 while the inline buffer suffices);
  /// what ClosedTable adds to its byte accounting per stored key.
  static std::size_t key_heap_bytes(const Key& key) {
    return key.is_heap() ? key.word_count_ * sizeof(std::uint64_t) : 0;
  }

  /// Serialized key width for the disk spill runs (bigstate/spill.hpp): the
  /// word array, little-endian word order. Every key of one instance has
  /// the same word count, so spill records are fixed-size.
  static std::size_t key_serialized_bytes(std::size_t node_count) {
    return words_for(node_count) * sizeof(std::uint64_t);
  }

  static void key_serialize(const Key& key, std::uint8_t* out) {
    std::memcpy(out, key.words(), key.word_count_ * sizeof(std::uint64_t));
  }

  static Key key_deserialize(const std::uint8_t* in, std::size_t node_count) {
    VarPackedState key(node_count);
    std::memcpy(key.words(), in, key.word_count_ * sizeof(std::uint64_t));
    key.hash_ = key.recompute_hash();
    return key;
  }

  // ---- introspection (tests, diagnostics) --------------------------------

  std::size_t word_count() const { return word_count_; }
  std::uint64_t word(std::size_t i) const { return words()[i]; }
  std::uint64_t hash() const { return hash_; }

  /// The hash recomputed from scratch — what the cached, incrementally
  /// patched value must always equal.
  std::uint64_t recompute_hash() const {
    std::uint64_t h = 0;
    const std::uint64_t* w = words();
    for (std::size_t i = 0; i < word_count_; ++i) h ^= word_hash(w[i], i);
    return h;
  }

  bool operator==(const VarPackedState& o) const {
    if (word_count_ != o.word_count_) return false;
    return std::memcmp(words(), o.words(),
                       word_count_ * sizeof(std::uint64_t)) == 0;
  }

 private:
  bool is_heap() const { return word_count_ > kInlineWords; }

  const std::uint64_t* words() const {
    return is_heap() ? heap_ : inline_words_;
  }
  std::uint64_t* words() { return is_heap() ? heap_ : inline_words_; }

  /// Allocate storage for word_count_ words (heap iff it exceeds the inline
  /// buffer) and return the uninitialized word array.
  std::uint64_t* alloc_words() {
    if (is_heap()) heap_ = new std::uint64_t[word_count_];
    return words();
  }

  void release() {
    if (is_heap()) delete[] heap_;
  }

  /// Per-word hash contribution: SplitMix64 of the word salted by its index,
  /// XOR-combined so one word's change patches the total in O(1).
  static std::uint64_t word_hash(std::uint64_t w, std::size_t i) {
    return PackedKeyHash::mix(w + 0x9e3779b97f4a7c15ull * (i + 1));
  }

  unsigned field(NodeId v) const {
    const std::size_t bit = kBitsPerNode * static_cast<std::size_t>(v);
    const std::size_t i = bit >> 6;
    const unsigned off = static_cast<unsigned>(bit & 63);
    const std::uint64_t* w = words();
    std::uint64_t x = w[i] >> off;
    if (off > 61) x |= w[i + 1] << (64 - off);  // field straddles into i+1
    return static_cast<unsigned>(x & 7u);
  }

  void set_field(NodeId v, unsigned f) {
    const std::size_t bit = kBitsPerNode * static_cast<std::size_t>(v);
    const std::size_t i = bit >> 6;
    const unsigned off = static_cast<unsigned>(bit & 63);
    std::uint64_t* w = words();
    const std::uint64_t old_lo = w[i];
    w[i] = (w[i] & ~(std::uint64_t{7} << off)) | (std::uint64_t{f} << off);
    hash_ ^= word_hash(old_lo, i) ^ word_hash(w[i], i);
    if (off > 61) {  // the field's high bits live in the next word
      const unsigned kept = 64 - off;  // bits that stayed in word i
      const std::uint64_t old_hi = w[i + 1];
      w[i + 1] = (w[i + 1] & ~(std::uint64_t{7} >> kept)) |
                 (std::uint64_t{f} >> kept);
      hash_ ^= word_hash(old_hi, i + 1) ^ word_hash(w[i + 1], i + 1);
    }
  }

  std::uint32_t word_count_ = 0;
  std::uint64_t hash_ = 0;
  union {
    std::uint64_t inline_words_[kInlineWords] = {0, 0};
    std::uint64_t* heap_;
  };
};

}  // namespace rbpeb
