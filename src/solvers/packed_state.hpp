// Bit-packed game configurations for the exact searches.
//
// A configuration assigns each node 3 bits: 2 for the pebble color and 1 for
// the sticky was-computed flag (needed by the oneshot rule). The packed form
// is the canonical search key — states are compared, hashed, and stored as a
// single machine word. Crucially, a move touches exactly one node, so a
// successor key is derived from its parent with one masked field update
// instead of the O(n) GameState copy + re-encode the original Dijkstra did
// per generated neighbor.
//
// Two widths share one implementation: a 64-bit fast path for DAGs of up to
// 21 nodes (3·21 = 63 bits) and an __uint128_t wide path for up to 42 nodes
// (3·42 = 126 bits), which is what lifts the exact layer's node cap.
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>

#include "src/pebble/move.hpp"
#include "src/pebble/state.hpp"

namespace rbpeb {

/// A pebbling configuration packed 3 bits per node into one unsigned word.
/// Plain value type: cheap to copy, ordered field access, no heap. The field
/// layout (node v at bits [3v, 3v+3), color in the low 2 bits, computed flag
/// at 0x4) matches the legacy Dijkstra encoding byte for byte.
template <typename Word>
class BasicPackedState {
 public:
  static constexpr std::size_t kBitsPerNode = 3;

  /// Largest node count this word width can hold.
  static constexpr std::size_t max_nodes() {
    return sizeof(Word) * 8 / kBitsPerNode;
  }

  /// The search-key protocol shared with VarPackedState (bigstate): a key
  /// type the closed tables store, plus hashing and (heap) byte accounting.
  /// Here the key is simply the word.
  using Key = Word;

  BasicPackedState() = default;
  explicit BasicPackedState(Word bits) : bits_(bits) {}

  Key key() const { return bits_; }

  static BasicPackedState from_key(Key key, std::size_t /*node_count*/) {
    return BasicPackedState(key);
  }

  static std::size_t hash_key(const Key& key);  // defined after PackedKeyHash

  /// Fixed-width keys never spill to the heap.
  static std::size_t key_heap_bytes(const Key&) { return 0; }

  /// Serialized key width for the disk spill runs (bigstate/spill.hpp): the
  /// word itself, byte for byte. Identical for every key of one instance,
  /// so spill records are fixed-size and binary-searchable.
  static std::size_t key_serialized_bytes(std::size_t /*node_count*/) {
    return sizeof(Word);
  }

  static void key_serialize(const Key& key, std::uint8_t* out) {
    std::memcpy(out, &key, sizeof(Word));
  }

  static Key key_deserialize(const std::uint8_t* in,
                             std::size_t /*node_count*/) {
    Word key;
    std::memcpy(&key, in, sizeof(Word));
    return key;
  }

  static BasicPackedState from_state(const GameState& state) {
    BasicPackedState packed;
    for (std::size_t v = 0; v < state.node_count(); ++v) {
      const NodeId node = static_cast<NodeId>(v);
      packed.set_color(node, state.color(node));
      if (state.was_computed(node)) packed.mark_computed(node);
    }
    return packed;
  }

  PebbleColor color(NodeId v) const {
    return static_cast<PebbleColor>(
        static_cast<unsigned>((bits_ >> shift(v)) & Word{3}));
  }

  bool was_computed(NodeId v) const {
    return ((bits_ >> shift(v)) & Word{4}) != 0;
  }

  void set_color(NodeId v, PebbleColor c) {
    bits_ = (bits_ & ~(Word{3} << shift(v))) |
            (Word{static_cast<unsigned>(c)} << shift(v));
  }

  void mark_computed(NodeId v) { bits_ |= Word{4} << shift(v); }

  /// The successor configuration after a *legal* move — one masked field
  /// update, mirroring Engine::apply's state effect exactly. Legality is
  /// still the Engine's job; this only transcribes the transition.
  BasicPackedState apply(const Move& move) const {
    BasicPackedState next = *this;
    switch (move.type) {
      case MoveType::Load:
        next.set_color(move.node, PebbleColor::Red);
        break;
      case MoveType::Store:
        next.set_color(move.node, PebbleColor::Blue);
        break;
      case MoveType::Compute:
        next.set_color(move.node, PebbleColor::Red);
        next.mark_computed(move.node);
        break;
      case MoveType::Delete:
        next.set_color(move.node, PebbleColor::None);
        break;
    }
    return next;
  }

  Word raw() const { return bits_; }

  bool operator==(const BasicPackedState& o) const = default;

 private:
  static constexpr unsigned shift(NodeId v) {
    return static_cast<unsigned>(kBitsPerNode * v);
  }

  Word bits_ = 0;
};

using PackedState64 = BasicPackedState<std::uint64_t>;
using PackedState128 = BasicPackedState<unsigned __int128>;

/// Hash for packed keys of either width (std::hash has no __uint128_t
/// specialization). SplitMix64 finalizer per 64-bit half — cheap and well
/// mixed, which matters with millions of near-identical keys in flight.
struct PackedKeyHash {
  static std::uint64_t mix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  std::size_t operator()(std::uint64_t key) const {
    return static_cast<std::size_t>(mix(key));
  }

  std::size_t operator()(unsigned __int128 key) const {
    const auto lo = static_cast<std::uint64_t>(key);
    const auto hi = static_cast<std::uint64_t>(key >> 64);
    return static_cast<std::size_t>(mix(lo ^ mix(hi)));
  }
};

template <typename Word>
std::size_t BasicPackedState<Word>::hash_key(const Key& key) {
  return PackedKeyHash{}(key);
}

}  // namespace rbpeb
