// Intrusive recency list over a dense id universe.
//
// All LRU-style policies in this library keep their recency order in an
// `IndexedList`: a doubly-linked list whose nodes are preallocated, indexed
// by the id itself (item id or block id). Every operation is O(1) with no
// allocation on the hot path, and membership is an O(1) flag check, which is
// what makes the simulator fast enough for multi-million-access sweeps.
// Per-operation contracts are hot-tier (GC_HOT_REQUIRE): enforced by
// default, compiled out under GC_FAST_SIM.
//
// Layout: an operation writes its nodes and the list header, meaning the
// sentinel node and the size. The header shares one 64-byte line (the node
// array is placed so that the sentinel starts a line, with the size right
// after it), and the list object itself only holds pointers that no
// operation writes. Under gcached's concurrent clients a miss on a shard
// therefore moves one header line between cores, not the header's line
// plus the object's (docs/CONCURRENCY.md, "What a hold writes").
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "util/contracts.hpp"

namespace gcaching {

class IndexedList {
 public:
  using Id = std::uint32_t;

  /// Bytes of the line the header (sentinel node, then size) shares.
  static constexpr std::size_t kHeaderLine = 64;

  explicit IndexedList(std::size_t universe)
      : sentinel_(static_cast<Id>(universe)) {
    GC_REQUIRE(universe < kNull, "universe exceeds the 32-bit id space");
    // `pad` nodes in front put the sentinel, node `universe`, at the start
    // of a line; the size follows it, and the storage owns the rest of
    // that line, so no other object shares it.
    const std::size_t pad = (kNodesPerLine - universe % kNodesPerLine) %
                            kNodesPerLine;
    const std::size_t header = (pad + universe) * sizeof(Node);
    // A plain array with a line of slack to align within, not an aligned
    // operator new: on gcached-hits that read a peak RSS of 26.3 MB
    // against 22.4 MB.
    storage_ = std::make_unique_for_overwrite<std::byte[]>(
        kHeaderLine + header + kHeaderLine);
    const auto misalign =
        reinterpret_cast<std::uintptr_t>(storage_.get()) % kHeaderLine;
    std::byte* const lines =
        storage_.get() + (kHeaderLine - misalign) % kHeaderLine;
    nodes_ = reinterpret_cast<Node*>(lines + pad * sizeof(Node));
    ::new (std::uninitialized_fill_n(nodes_, universe, Node{kNull, kNull}))
        Node{sentinel_, sentinel_};
    size_ = ::new (lines + header + sizeof(Node)) std::size_t{0};
  }

  std::size_t universe() const noexcept { return sentinel_; }
  std::size_t size() const noexcept { return *size_; }
  bool empty() const noexcept { return *size_ == 0; }

  bool contains(Id id) const {
    GC_HOT_REQUIRE(id < universe(), "id out of range");
    return nodes_[id].next != kNull;
  }

  /// Most-recently-used end.
  Id front() const {
    GC_HOT_REQUIRE(!empty(), "front() of empty list");
    return nodes_[sentinel()].next;
  }

  /// Least-recently-used end.
  Id back() const {
    GC_HOT_REQUIRE(!empty(), "back() of empty list");
    return nodes_[sentinel()].prev;
  }

  void push_front(Id id) {
    GC_HOT_REQUIRE(id < universe(), "id out of range");
    GC_HOT_REQUIRE(nodes_[id].next == kNull, "id already in list");
    link_after(sentinel(), id);
    ++*size_;
  }

  void push_back(Id id) {
    GC_HOT_REQUIRE(id < universe(), "id out of range");
    GC_HOT_REQUIRE(nodes_[id].next == kNull, "id already in list");
    link_after(nodes_[sentinel()].prev, id);
    ++*size_;
  }

  void remove(Id id) {
    GC_HOT_REQUIRE(id < universe(), "id out of range");
    GC_HOT_REQUIRE(nodes_[id].next != kNull, "removing id not in list");
    unlink(id);
    nodes_[id] = Node{kNull, kNull};
    --*size_;
  }

  void move_to_front(Id id) {
    GC_HOT_REQUIRE(nodes_[id].next != kNull,
                   "move_to_front of id not in list");
    if (nodes_[sentinel()].next == id) return;  // already most recent
    unlink(id);
    link_after(sentinel(), id);
  }

  Id pop_back() {
    const Id id = back();
    remove(id);
    return id;
  }

  void clear() {
    // O(universe) — only used between runs, never on the hot path.
    const Id s = sentinel();
    for (Id id = 0; id < s; ++id) nodes_[id] = Node{kNull, kNull};
    nodes_[s] = Node{s, s};
    *size_ = 0;
  }

  /// Snapshot MRU -> LRU (for tests).
  std::vector<Id> to_vector() const {
    std::vector<Id> out;
    out.reserve(*size_);
    for (Id cur = nodes_[sentinel()].next; cur != sentinel();
         cur = nodes_[cur].next)
      out.push_back(cur);
    return out;
  }

  /// Iterate LRU -> MRU until fn returns false. Used for victim scans that
  /// must skip ineligible entries (e.g. items of the currently-missed block).
  template <typename Fn>
  void for_each_from_lru(Fn&& fn) const {
    for (Id cur = nodes_[sentinel()].prev; cur != sentinel();) {
      const Id prev = nodes_[cur].prev;  // fn may remove cur
      if (!fn(cur)) return;
      cur = prev;
    }
  }

  /// Where the header's two fields live (for layout tests).
  const void* sentinel_address() const noexcept { return nodes_ + sentinel_; }
  const void* size_address() const noexcept { return size_; }

 private:
  // 8-byte node: membership is encoded as next != kNull, so the whole
  // recency state an operation touches is a handful of 8-byte slots.
  static constexpr Id kNull = static_cast<Id>(-1);
  struct Node {
    Id prev;
    Id next;
  };

  static constexpr std::size_t kNodesPerLine = kHeaderLine / sizeof(Node);

  Id sentinel() const noexcept { return sentinel_; }

  void link_after(Id pos, Id id) {
    Node& n = nodes_[id];
    n.prev = pos;
    n.next = nodes_[pos].next;
    nodes_[n.next].prev = id;
    nodes_[pos].next = id;
  }

  void unlink(Id id) {
    Node& n = nodes_[id];
    nodes_[n.prev].next = n.next;
    nodes_[n.next].prev = n.prev;
  }

  // Set at construction (or by a move) only: no operation writes the
  // object, just the storage its pointers reach.
  Id sentinel_;  ///< the sentinel's id, == universe()
  std::unique_ptr<std::byte[]> storage_;
  Node* nodes_ = nullptr;        ///< ids 0..universe-1, then the sentinel
  std::size_t* size_ = nullptr;  ///< right after the sentinel, on its line
};

}  // namespace gcaching
