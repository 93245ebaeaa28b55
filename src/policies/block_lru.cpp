#include "policies/block_lru.hpp"

#include "util/contracts.hpp"

namespace gcaching {

void BlockLru::attach(const BlockMap& map, CacheContents& cache) {
  set_attachment(map, cache);
  GC_REQUIRE(cache.capacity() >= map.max_block_size(),
             "a Block Cache needs capacity >= B to hold any block");
  lru_ = std::make_unique<IndexedList>(map.num_blocks());
}

void BlockLru::on_hit(ItemId item) {
  lru_->move_to_front(map().block_of(item));
}

void BlockLru::evict_block(BlockId block) {
  lru_->remove(block);
  GC_HOT_CHECK(cache().residents_of_block(block) == map().block_size(block),
               "block-granularity invariant broken");
  cache().evict_block(block);
}

void BlockLru::on_miss(ItemId item) {
  const BlockId block = map().block_of(item);
  // Whole-block residency invariant: a miss on any item means the entire
  // block is absent.
  GC_CHECK(cache().residents_of_block(block) == 0,
           "block-granularity invariant broken");
  const std::size_t need = map().block_size(block);
  while (cache().capacity() - cache().occupancy() < need)
    evict_block(lru_->back());
  cache().load_block(block);
  lru_->push_front(block);
}

void BlockLru::reset() {
  if (lru_) lru_->clear();
}

}  // namespace gcaching
