// Offline Belady (furthest-in-future) references.
//
// `BeladyItem` is Belady's MIN at item granularity: loads only the requested
// item, evicts the resident item whose next use is furthest in the future.
// It is the offline optimum for traditional (item) caching [Belady 1966,
// Mattson 1970] and therefore a certified *lower* bound on every Item
// Cache's misses — but NOT optimal for GC caching, which is NP-complete
// (Theorem 1). `BeladyBlock` is the same idea at block granularity.
//
// `BeladyGreedyGc` is an offline GC *heuristic* guided by Section 4.4's
// insight: on a miss, load exactly the block items that will be requested
// again before the block's next "natural" eviction horizon, and evict by
// furthest item next-use. It gives a strong practical upper bound on OPT
// for large traces where the exact solver (src/offline) is infeasible.
#pragma once

#include <cstdint>
#include <memory>
#include <queue>
#include <span>
#include <string>
#include <vector>

#include "core/policy.hpp"
#include "util/contracts.hpp"

namespace gcaching {

namespace detail {

/// Shared "next use" precomputation. `next_use[p]` is the next position
/// after p at which trace[p]'s key (item or block) is requested again, or
/// kNever.
class NextUseIndex {
 public:
  static constexpr std::uint64_t kNever = ~std::uint64_t{0};

  /// keys[p] = the key of access p (item id, or block id of the item).
  void build(std::span<const std::uint32_t> keys, std::size_t key_universe);

  std::uint64_t next_after(std::size_t pos) const { return next_use_[pos]; }
  std::size_t trace_length() const { return next_use_.size(); }

 private:
  std::vector<std::uint64_t> next_use_;
};

/// Lazy max-heap of (next_use, key) with O(log n) amortized eviction choice.
///
/// The mutators are header-inline: update() runs once per *access* inside
/// the fast engines' loop, and an out-of-line call per access costs more
/// than the push itself (see docs/PERF.md).
class FurthestQueue {
 public:
  void init(std::size_t key_universe);
  void clear();

  void update(std::uint32_t key, std::uint64_t next_use) {
    current_[key] = next_use;
    active_[key] = true;
    heap_.push(Entry{next_use, key});
  }

  void deactivate(std::uint32_t key) { active_[key] = false; }

  /// Pops and returns the active key with the maximum next_use.
  std::uint32_t pop_furthest() {
    while (!heap_.empty()) {
      const Entry top = heap_.top();
      heap_.pop();
      if (active_[top.key] && current_[top.key] == top.next_use) {
        active_[top.key] = false;
        return top.key;
      }
    }
    GC_CHECK(false, "pop_furthest on empty queue");
    return 0;  // unreachable
  }

 private:
  struct Entry {
    std::uint64_t next_use;
    std::uint32_t key;
    bool operator<(const Entry& o) const {
      if (next_use != o.next_use) return next_use < o.next_use;
      return key < o.key;
    }
  };

  std::priority_queue<Entry> heap_;
  std::vector<std::uint64_t> current_;  // key -> latest next_use
  std::vector<bool> active_;
};

}  // namespace detail

/// Furthest-in-future Item Cache (traditional-model OPT).
class BeladyItem final : public ReplacementPolicy {
 public:
  BeladyItem() = default;

  void attach(const BlockMap& map, CacheContents& cache) override;
  void prepare(const Trace& trace) override;
  void on_miss(ItemId item) override;
  void reset() override;
  std::string name() const override { return "belady-item"; }

  void on_hit(ItemId item) override {
    GC_HOT_REQUIRE(prepared_, "Belady requires prepare(trace)");
    queue_.update(item, index_.next_after(pos_));
    ++pos_;
  }

 private:
  detail::NextUseIndex index_;
  detail::FurthestQueue queue_;
  std::size_t pos_ = 0;
  bool prepared_ = false;
};

/// Furthest-in-future Block Cache (whole-block loads and evictions).
class BeladyBlock final : public ReplacementPolicy {
 public:
  BeladyBlock() = default;

  void attach(const BlockMap& map, CacheContents& cache) override;
  void prepare(const Trace& trace) override;
  void on_miss(ItemId item) override;
  void reset() override;
  std::string name() const override { return "belady-block"; }

  void on_hit(ItemId item) override {
    GC_HOT_REQUIRE(prepared_, "Belady requires prepare(trace)");
    queue_.update(map().block_of(item), block_index_.next_after(pos_));
    ++pos_;
  }

 private:
  detail::NextUseIndex block_index_;  // keyed by block id
  detail::FurthestQueue queue_;       // over blocks
  std::size_t pos_ = 0;
  bool prepared_ = false;
};

/// Offline GC heuristic: item-granularity Belady eviction + clairvoyant
/// selective block loading (only items used before the requested item's
/// own next reuse horizon are side-loaded).
class BeladyGreedyGc final : public ReplacementPolicy {
 public:
  BeladyGreedyGc() = default;

  void attach(const BlockMap& map, CacheContents& cache) override;
  void prepare(const Trace& trace) override;
  void on_miss(ItemId item) override;
  void reset() override;
  std::string name() const override { return "belady-greedy-gc"; }

  void on_hit(ItemId item) override {
    GC_HOT_REQUIRE(prepared_, "BeladyGreedyGc requires prepare(trace)");
    queue_.update(item, item_index_.next_after(pos_));
    ++pos_;
    advance_cursors(item);
  }

 private:
  detail::NextUseIndex item_index_;
  detail::FurthestQueue queue_;
  // first_use_after_[x] computed on the fly via per-item occurrence lists.
  std::vector<std::vector<std::uint64_t>> occurrences_;  // item -> positions
  std::vector<std::size_t> occ_cursor_;                  // item -> next idx
  std::size_t pos_ = 0;
  bool prepared_ = false;

  std::uint64_t next_use_of(ItemId item) const {
    // First occurrence strictly after the current position; cursors only
    // move forward so the scan is amortized O(1) per occurrence.
    const auto& occ = occurrences_[item];
    std::size_t c = occ_cursor_[item];
    while (c < occ.size() && occ[c] <= pos_) ++c;
    return c < occ.size() ? occ[c] : detail::NextUseIndex::kNever;
  }

  void advance_cursors(ItemId accessed) {
    auto& c = occ_cursor_[accessed];
    const auto& occ = occurrences_[accessed];
    while (c < occ.size() && occ[c] <= pos_) ++c;
  }
};

}  // namespace gcaching
