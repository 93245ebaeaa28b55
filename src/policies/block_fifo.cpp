#include "policies/block_fifo.hpp"

#include "util/contracts.hpp"

namespace gcaching {

void BlockFifo::attach(const BlockMap& map, CacheContents& cache) {
  set_attachment(map, cache);
  GC_REQUIRE(cache.capacity() >= map.max_block_size(),
             "a Block Cache needs capacity >= B to hold any block");
  queue_ = std::make_unique<IndexedList>(map.num_blocks());
}

void BlockFifo::on_hit(ItemId /*item*/) {
  // FIFO ignores hits.
}

void BlockFifo::on_miss(ItemId item) {
  const BlockId block = map().block_of(item);
  GC_CHECK(cache().residents_of_block(block) == 0,
           "block-granularity invariant broken");
  const std::size_t need = map().block_size(block);
  while (cache().capacity() - cache().occupancy() < need) {
    const BlockId victim = queue_->pop_back();
    GC_HOT_CHECK(
        cache().residents_of_block(victim) == map().block_size(victim),
        "block-granularity invariant broken");
    cache().evict_block(victim);
  }
  cache().load_block(block);
  queue_->push_front(block);
}

void BlockFifo::reset() {
  if (queue_) queue_->clear();
}

}  // namespace gcaching
