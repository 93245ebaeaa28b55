#include "policies/belady.hpp"

#include "util/contracts.hpp"

namespace gcaching {

namespace detail {

void NextUseIndex::build(std::span<const std::uint32_t> keys,
                         std::size_t key_universe) {
  next_use_.assign(keys.size(), kNever);
  std::vector<std::uint64_t> last_seen(key_universe, kNever);
  for (std::size_t p = keys.size(); p-- > 0;) {
    const std::uint32_t k = keys[p];
    GC_REQUIRE(k < key_universe, "key out of range");
    next_use_[p] = last_seen[k];
    last_seen[k] = p;
  }
}

void FurthestQueue::init(std::size_t key_universe) {
  heap_ = {};
  current_.assign(key_universe, 0);
  active_.assign(key_universe, false);
}

void FurthestQueue::clear() {
  heap_ = {};
  current_.assign(current_.size(), 0);
  active_.assign(active_.size(), false);
}

}  // namespace detail

// ---------------------------------------------------------------------------
// BeladyItem
// ---------------------------------------------------------------------------

void BeladyItem::attach(const BlockMap& map, CacheContents& cache) {
  set_attachment(map, cache);
  queue_.init(map.num_items());
  pos_ = 0;
}

void BeladyItem::prepare(const Trace& trace) {
  index_.build(trace.accesses(), map().num_items());
  prepared_ = true;
}

void BeladyItem::on_miss(ItemId item) {
  GC_HOT_REQUIRE(prepared_, "Belady requires prepare(trace)");
  if (cache().full()) {
    const ItemId victim = queue_.pop_furthest();
    cache().evict(victim);
  }
  cache().load(item);
  queue_.update(item, index_.next_after(pos_));
  ++pos_;
}

void BeladyItem::reset() {
  queue_.clear();
  pos_ = 0;
}

// ---------------------------------------------------------------------------
// BeladyBlock
// ---------------------------------------------------------------------------

void BeladyBlock::attach(const BlockMap& map, CacheContents& cache) {
  set_attachment(map, cache);
  GC_REQUIRE(cache.capacity() >= map.max_block_size(),
             "a Block Cache needs capacity >= B");
  queue_.init(map.num_blocks());
  pos_ = 0;
}

void BeladyBlock::prepare(const Trace& trace) {
  block_index_.build(compute_block_ids(map(), trace), map().num_blocks());
  prepared_ = true;
}

void BeladyBlock::on_miss(ItemId item) {
  GC_HOT_REQUIRE(prepared_, "Belady requires prepare(trace)");
  const BlockId block = map().block_of(item);
  GC_CHECK(cache().residents_of_block(block) == 0,
           "block-granularity invariant broken");
  const std::size_t need = map().block_size(block);
  while (cache().capacity() - cache().occupancy() < need) {
    const BlockId victim = queue_.pop_furthest();
    cache().evict_block(victim);
  }
  cache().load_block(block);
  queue_.update(block, block_index_.next_after(pos_));
  ++pos_;
}

void BeladyBlock::reset() {
  queue_.clear();
  pos_ = 0;
}

// ---------------------------------------------------------------------------
// BeladyGreedyGc
// ---------------------------------------------------------------------------

void BeladyGreedyGc::attach(const BlockMap& map, CacheContents& cache) {
  set_attachment(map, cache);
  queue_.init(map.num_items());
  pos_ = 0;
}

void BeladyGreedyGc::prepare(const Trace& trace) {
  item_index_.build(trace.accesses(), map().num_items());
  occurrences_.assign(map().num_items(), {});
  for (std::size_t p = 0; p < trace.size(); ++p)
    occurrences_[trace[p]].push_back(p);
  occ_cursor_.assign(map().num_items(), 0);
  prepared_ = true;
}

void BeladyGreedyGc::on_miss(ItemId item) {
  GC_HOT_REQUIRE(prepared_, "BeladyGreedyGc requires prepare(trace)");
  const BlockId block = map().block_of(item);
  // 1. The requested item itself: evict the globally-furthest item if full.
  if (cache().full()) {
    const ItemId victim = queue_.pop_furthest();
    cache().evict(victim);
  }
  cache().load(item);
  const std::uint64_t own_next = item_index_.next_after(pos_);
  queue_.update(item, own_next);

  // 2. Clairvoyant side-loading: take block items that will be requested
  //    before this item's own reuse horizon — they would otherwise be a
  //    fresh miss each. If the item is never requested again, fall back to
  //    a capacity-sized horizon.
  const std::uint64_t horizon = own_next != detail::NextUseIndex::kNever
                                    ? own_next
                                    : pos_ + cache().capacity();
  for (ItemId sibling : map().items_of(block)) {
    if (cache().contains(sibling)) continue;
    const std::uint64_t s_next = next_use_of(sibling);
    if (s_next == detail::NextUseIndex::kNever || s_next > horizon) continue;
    if (cache().full()) {
      const ItemId victim = queue_.pop_furthest();
      const std::uint64_t v_next = next_use_of(victim);
      if (victim == item) {
        // The requested item must stay resident through the miss
        // (Definition 1: the loaded subset contains it); if it is the
        // furthest-used resident, no side-load can pay for itself.
        queue_.update(victim, v_next);
        break;
      }
      if (v_next <= s_next) {
        // Not profitable: the victim is needed sooner than the side-load.
        queue_.update(victim, v_next);
        continue;
      }
      cache().evict(victim);
    }
    cache().load(sibling);
    queue_.update(sibling, s_next);
  }
  ++pos_;
  advance_cursors(item);
}

void BeladyGreedyGc::reset() {
  queue_.clear();
  occ_cursor_.assign(occ_cursor_.size(), 0);
  pos_ = 0;
}

}  // namespace gcaching
