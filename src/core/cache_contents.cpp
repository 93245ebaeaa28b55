#include "core/cache_contents.hpp"

#include "util/contracts.hpp"

namespace gcaching {

BlockId CacheContents::missed_block() const {
  GC_REQUIRE(in_miss(), "no miss transaction is open");
  return current_block_;
}

void CacheContents::for_each_resident(
    const std::function<void(ItemId)>& fn) const {
  visit_residents([&fn](ItemId it) { fn(it); });
}

std::vector<ItemId> CacheContents::resident_items() const {
  std::vector<ItemId> out;
  out.reserve(occupancy_);
  visit_residents([&out](ItemId it) { out.push_back(it); });
  return out;
}

std::size_t CacheContents::residents_of_block(BlockId block) const {
  std::size_t n = 0;
  visit_residents_of_block(block, [&n](ItemId) { ++n; });
  return n;
}

void CacheContents::reset() {
  for (Flag& f : flags_) store(f, Flag{});
  occupancy_ = 0;
  current_block_ = kInvalidBlock;
  current_request_ = kInvalidItem;
  items_loaded_ = sideloads_ = evictions_ = wasted_sideloads_ = 0;
}

}  // namespace gcaching
