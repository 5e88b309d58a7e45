#include "src/serve/canonical.hpp"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <optional>
#include <queue>
#include <utility>

namespace rbpeb::serve {

namespace {

/// splitmix64 finalizer: the avalanche mix every hash below is built from.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Order-DEPENDENT combination (sequences, tuples).
std::uint64_t combine(std::uint64_t h, std::uint64_t v) {
  return mix(h ^ mix(v));
}

std::uint64_t hash_string(std::string_view text, std::uint64_t seed) {
  std::uint64_t h = seed ^ 0xcbf29ce484222325ULL;  // FNV offset, then mix
  for (const char c : text) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return mix(h);
}

/// Order-INDEPENDENT accumulator: the multiset-hash primitive that makes
/// every DAG ingredient relabeling-invariant (sum and xor of element hashes
/// commute; the count breaks sum/xor cancellation games).
struct MultisetHash {
  std::uint64_t sum = 0;
  std::uint64_t xored = 0;
  std::size_t count = 0;

  void add(std::uint64_t value) {
    const std::uint64_t m = mix(value);
    sum += m;
    xored ^= m;
    ++count;
  }

  std::uint64_t digest() const {
    return mix(sum ^ mix(xored) ^ mix(count));
  }
};

constexpr std::uint64_t kRoundSalt = 0xD6E8FEB86659FD93ULL;
constexpr std::uint64_t kIndividualizeSalt = 0xA24BAED4963EE407ULL;

/// One node's WL update: its own color folded with the multisets of its
/// predecessor and successor colors (kept distinct — direction matters in a
/// DAG). No node id ever enters a hash, which is the invariance proof.
std::uint64_t refined_color(const Dag& dag,
                            const std::vector<std::uint64_t>& colors,
                            NodeId v) {
  MultisetHash preds, succs;
  for (NodeId u : dag.predecessors(v)) preds.add(colors[u]);
  for (NodeId u : dag.successors(v)) succs.add(colors[u]);
  return combine(combine(combine(colors[v], preds.digest()), succs.digest()),
                 kRoundSalt);
}

/// Distinct values in `colors`, counted on a sorted copy in `scratch`.
std::size_t distinct_count(const std::vector<std::uint64_t>& colors,
                           std::vector<std::uint64_t>& scratch) {
  scratch.assign(colors.begin(), colors.end());
  std::sort(scratch.begin(), scratch.end());
  return static_cast<std::size_t>(
      std::unique(scratch.begin(), scratch.end()) - scratch.begin());
}

/// Stage 1: synchronous whole-graph WL rounds from the degree coloring until
/// the color partition stops splitting. Refinement is monotone (a round
/// never merges classes), so a stable distinct count means a stable
/// partition. These colors, and only these, feed dag_hash.
std::vector<std::uint64_t> stable_colors(const Dag& dag) {
  const std::size_t n = dag.node_count();
  std::vector<std::uint64_t> colors(n), next(n), scratch;
  for (std::size_t v = 0; v < n; ++v) {
    const NodeId node = static_cast<NodeId>(v);
    colors[v] = combine(mix(dag.indegree(node)), dag.outdegree(node));
  }
  std::size_t distinct = distinct_count(colors, scratch);
  for (std::size_t round = 0; round < n; ++round) {
    for (std::size_t v = 0; v < n; ++v) {
      next[v] = refined_color(dag, colors, static_cast<NodeId>(v));
    }
    colors.swap(next);
    const std::size_t now = distinct_count(colors, scratch);
    if (now == distinct) break;
    distinct = now;
  }
  return colors;
}

/// Stage 2: individualization-refinement over an ordered partition kept in
/// flat arrays. Every cell (color class) is a contiguous range of `members_`,
/// sorted by node id; its position in `members_` is fixed by colors alone —
/// the initial cells are laid out by stable color, a split lays its parts
/// out by new color, and an individualized node goes to the front of its
/// cell — so once every cell is a singleton, `members_` is the order.
///
/// Refinement runs in synchronous steps, touching only what the previous
/// step changed (McKay & Piperno, "Practical Graph Isomorphism II", 2014):
/// a step re-hashes the non-singleton cells that hold a predecessor or
/// successor of a node recolored in the previous step, all from the colors
/// the step started with. A cell whose members hash equal keeps its color;
/// one that splits takes the new colors, and its members seed the next step.
/// A cell with no recolored neighbour cannot split in a WL round, so each
/// step yields the partition a whole-graph round would; only the color
/// values differ, and they never reach dag_hash.
class Refiner {
 public:
  Refiner(const Dag& dag, std::vector<std::uint64_t> colors)
      : dag_(dag), colors_(std::move(colors)) {
    const std::size_t n = dag.node_count();
    std::vector<std::pair<std::uint64_t, NodeId>> sorted(n);
    for (std::size_t v = 0; v < n; ++v) {
      sorted[v] = {colors_[v], static_cast<NodeId>(v)};
    }
    std::sort(sorted.begin(), sorted.end());
    members_.resize(n);
    cell_of_.resize(n);
    cells_.reserve(n);
    stamp_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      members_[i] = sorted[i].second;
      if (i == 0 || sorted[i].first != sorted[i - 1].first) {
        add_cell(static_cast<std::uint32_t>(i), 0);
      }
      cell_of_[sorted[i].second] =
          static_cast<std::uint32_t>(cells_.size() - 1);
      ++cells_.back().size;
    }
    for (std::uint32_t c = 0; c < cells_.size(); ++c) queue_if_open(c);
  }

  /// Individualize and refine until every cell is a singleton; returns the
  /// canonical order.
  std::vector<NodeId> run() && {
    // Each round individualizes the smallest id of the open cell with the
    // smallest color. Inside a cell the members are indistinguishable to
    // WL, so the pick is arbitrary up to (conjectured) automorphism and the
    // smallest id keeps it deterministic. A wrong conjecture costs an
    // audit-fail miss in the cache, never a wrong answer.
    while (const std::optional<std::uint32_t> cell = smallest_open_cell()) {
      const std::uint32_t start = cells_[*cell].start;
      const NodeId pick = members_[start];
      ++cells_[*cell].start;
      --cells_[*cell].size;
      colors_[pick] = combine(colors_[pick], kIndividualizeSalt);
      cell_of_[pick] = add_cell(start, 1);
      recolored_.assign(1, pick);
      refine();
    }
    return std::move(members_);
  }

 private:
  /// members_[start, start + size); every member has the cell's color.
  struct Cell {
    std::uint32_t start = 0;
    std::uint32_t size = 0;
  };

  std::uint64_t color_of(std::uint32_t cell) const {
    return colors_[members_[cells_[cell].start]];
  }

  std::uint32_t add_cell(std::uint32_t start, std::uint32_t size) {
    cells_.push_back(Cell{start, size});
    stamp_.push_back(0);
    return static_cast<std::uint32_t>(cells_.size() - 1);
  }

  void queue_if_open(std::uint32_t cell) {
    if (cells_[cell].size > 1) open_.push({color_of(cell), cell});
  }

  /// The non-singleton cell with the smallest color. Queue entries are
  /// dropped lazily: a cell that split or shrank to one node since it was
  /// queued no longer matches its entry.
  std::optional<std::uint32_t> smallest_open_cell() {
    while (!open_.empty()) {
      const auto [color, cell] = open_.top();
      if (cells_[cell].size > 1 && color_of(cell) == color) return cell;
      open_.pop();
    }
    return std::nullopt;
  }

  void refine() {
    while (!recolored_.empty()) {
      ++step_;
      touched_.clear();
      const auto touch = [this](NodeId u) {
        const std::uint32_t cell = cell_of_[u];
        if (cells_[cell].size > 1 && stamp_[cell] != step_) {
          stamp_[cell] = step_;
          touched_.push_back(cell);
        }
      };
      for (const NodeId v : recolored_) {
        for (const NodeId u : dag_.predecessors(v)) touch(u);
        for (const NodeId u : dag_.successors(v)) touch(u);
      }
      // Hash every touched cell before recoloring any: synchronous steps
      // keep the colors independent of the order cells are visited in.
      hashed_.clear();
      for (const std::uint32_t cell : touched_) {
        const Cell& range = cells_[cell];
        for (std::uint32_t i = range.start; i < range.start + range.size; ++i) {
          hashed_.push_back({refined_color(dag_, colors_, members_[i]),
                             members_[i]});
        }
      }
      recolored_.clear();
      auto segment = hashed_.begin();
      for (const std::uint32_t cell : touched_) {
        const auto end = segment + cells_[cell].size;
        split(cell, segment, end);
        segment = end;
      }
    }
  }

  using Hashed = std::vector<std::pair<std::uint64_t, NodeId>>;

  /// Split `cell` by its members' new colors in [first, last). The parts
  /// go in color order, each sorted by id; the first keeps the cell's id.
  void split(std::uint32_t cell, Hashed::iterator first,
             Hashed::iterator last) {
    const std::uint64_t color = first->first;
    if (std::all_of(first, last,
                    [color](const auto& h) { return h.first == color; })) {
      return;
    }
    std::sort(first, last);
    std::uint32_t position = cells_[cell].start;
    for (auto part_begin = first; part_begin != last;) {
      const std::uint64_t part_color = part_begin->first;
      const auto part_end =
          std::find_if(part_begin, last, [part_color](const auto& h) {
            return h.first != part_color;
          });
      const auto size = static_cast<std::uint32_t>(part_end - part_begin);
      std::uint32_t part = cell;
      if (part_begin == first) {
        cells_[cell] = Cell{position, size};
      } else {
        part = add_cell(position, size);
      }
      for (auto it = part_begin; it != part_end; ++it) {
        members_[position++] = it->second;
        cell_of_[it->second] = part;
        colors_[it->second] = part_color;
        recolored_.push_back(it->second);
      }
      queue_if_open(part);
      part_begin = part_end;
    }
  }

  const Dag& dag_;
  std::vector<std::uint64_t> colors_;
  std::vector<NodeId> members_;
  std::vector<std::uint32_t> cell_of_;
  std::vector<Cell> cells_;
  /// stamp_[c] == step_ while cell c is queued for the current step; the
  /// step counter never repeats, so no stamp is ever cleared.
  std::vector<std::uint64_t> stamp_;
  std::uint64_t step_ = 0;
  std::priority_queue<std::pair<std::uint64_t, std::uint32_t>,
                      std::vector<std::pair<std::uint64_t, std::uint32_t>>,
                      std::greater<>>
      open_;
  std::vector<NodeId> recolored_;
  std::vector<std::uint32_t> touched_;
  Hashed hashed_;
};

}  // namespace

CanonicalForm canonicalize(const Dag& dag) {
  const std::size_t n = dag.node_count();
  CanonicalForm form;

  std::vector<std::uint64_t> colors = stable_colors(dag);

  // The hash uses the STABLE refinement colors only — individualization
  // below makes id-dependent (best-effort) choices that must never leak
  // into the relabeling-invariant fingerprint.
  MultisetHash nodes, edges;
  for (std::size_t v = 0; v < n; ++v) {
    nodes.add(colors[v]);
    for (NodeId u : dag.predecessors(static_cast<NodeId>(v))) {
      edges.add(combine(colors[u], colors[v]));
    }
  }
  form.dag_hash = combine(combine(combine(nodes.digest(), edges.digest()), n),
                          dag.edge_count());

  form.order = Refiner(dag, std::move(colors)).run();
  return form;
}

std::string instance_fingerprint(const CanonicalForm& form, const Model& model,
                                 const PebblingConvention& convention,
                                 std::size_t red_limit,
                                 std::string_view solver,
                                 const SolverOptions& options) {
  const std::string option_string = canonical_option_string(options);
  // Two independently-salted 64-bit digests: 128 bits against birthday
  // collisions across a long-lived cache (and the audit behind them).
  std::string fingerprint;
  for (const std::uint64_t seed :
       {0x8BADF00DDEADBEEFULL, 0x1234ABCD5678EF01ULL}) {
    std::uint64_t h = mix(seed);
    h = combine(h, form.dag_hash);
    h = combine(h, hash_string(model.name(), seed));
    h = combine(h, static_cast<std::uint64_t>(model.epsilon().num()));
    h = combine(h, static_cast<std::uint64_t>(model.epsilon().den()));
    h = combine(h, (convention.sources_start_blue ? 2u : 0u) |
                       (convention.sinks_end_blue ? 1u : 0u));
    h = combine(h, red_limit);
    h = combine(h, hash_string(solver, seed));
    h = combine(h, hash_string(option_string, seed));
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    if (!fingerprint.empty()) fingerprint.push_back('-');
    fingerprint += buf;
  }
  return fingerprint;
}

}  // namespace rbpeb::serve
