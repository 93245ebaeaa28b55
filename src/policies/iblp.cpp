#include "policies/iblp.hpp"

#include <sstream>

#include "util/contracts.hpp"

namespace gcaching {

namespace {

void validate_config(const IblpConfig& cfg, const BlockMap& map,
                     const CacheContents& cache) {
  GC_REQUIRE(cfg.total() == cache.capacity(),
             "IBLP layer sizes must sum to the cache capacity");
  if (cfg.block_layer > 0)
    GC_REQUIRE(cfg.block_layer >= map.max_block_size(),
               "block layer must be able to hold at least one block");
  if (cfg.item_layer == 0)
    GC_REQUIRE(cfg.block_layer > 0, "cache cannot have zero total size");
}

std::string format_name(const char* base, const IblpConfig& cfg) {
  std::ostringstream os;
  os << base << "(i=" << cfg.item_layer << ",b=" << cfg.block_layer << ")";
  return os.str();
}

}  // namespace

// ---------------------------------------------------------------------------
// Standard IBLP
// ---------------------------------------------------------------------------

void Iblp::attach(const BlockMap& map, CacheContents& cache) {
  set_attachment(map, cache);
  validate_config(cfg_, map, cache);
  item_lru_ = std::make_unique<IndexedList>(map.num_items());
  block_lru_ = std::make_unique<IndexedList>(map.num_blocks());
  b_used_ = 0;
}

void Iblp::insert_into_item_layer(ItemId item) {
  if (cfg_.item_layer == 0) return;  // degenerate: pure Block Cache
  GC_CHECK(!item_lru_->contains(item), "item already in item layer");
  if (item_lru_->size() == cfg_.item_layer) {
    const ItemId victim = item_lru_->pop_back();
    // The victim leaves the cache entirely unless the block layer still
    // covers it (non-inclusive layers may duplicate).
    if (!block_lru_->contains(map().block_of(victim)))
      cache().evict(victim);
  }
  item_lru_->push_front(item);
}

void Iblp::evict_lru_block() {
  const BlockId victim = block_lru_->pop_back();
  b_used_ -= map().block_size(victim);
  // Items duplicated into the item layer stay resident there.
  cache().visit_residents_of_block(victim, [this](ItemId it) {
    if (!item_lru_->contains(it)) cache().evict(it);
  });
}

void Iblp::on_hit(ItemId item) {
  if (item_lru_->contains(item)) {
    // Served by the item layer; the block layer must not observe the access
    // (Section 5.1: hot items must not reorder the block LRU list).
    item_lru_->move_to_front(item);
    return;
  }
  // Item-layer miss served by the block layer: a block-layer hit.
  const BlockId block = map().block_of(item);
  GC_CHECK(block_lru_->contains(block),
           "model hit but item is in neither layer");
  block_lru_->move_to_front(block);
  // The item layer missed, so it fetches the item (from the block layer —
  // free at the model level) and caches it.
  insert_into_item_layer(item);
}

void Iblp::on_miss(ItemId item) {
  const BlockId block = map().block_of(item);
  GC_CHECK(!block_lru_->contains(block),
           "model miss but block is resident in block layer");
  if (cfg_.block_layer > 0) {
    // Block layer loads the whole block, whole-block LRU eviction.
    const std::size_t need = map().block_size(block);
    while (cfg_.block_layer - b_used_ < need) evict_lru_block();
    cache().load_block(block);  // skips items the item layer holds
    b_used_ += need;
    block_lru_->push_front(block);
    insert_into_item_layer(item);
  } else {
    // Degenerate: pure item-LRU cache.
    if (item_lru_->size() == cfg_.item_layer) {
      const ItemId victim = item_lru_->pop_back();
      cache().evict(victim);
    }
    cache().load(item);
    item_lru_->push_front(item);
  }
}

void Iblp::reset() {
  if (item_lru_) item_lru_->clear();
  if (block_lru_) block_lru_->clear();
  b_used_ = 0;
}

std::string Iblp::name() const { return format_name("iblp", cfg_); }

// ---------------------------------------------------------------------------
// Exclusive-layers ablation
// ---------------------------------------------------------------------------

void IblpExclusive::attach(const BlockMap& map, CacheContents& cache) {
  set_attachment(map, cache);
  validate_config(cfg_, map, cache);
  item_lru_ = std::make_unique<IndexedList>(map.num_items());
  block_lru_ = std::make_unique<IndexedList>(map.num_blocks());
  covered_.assign(map.num_items(), false);
  b_used_ = 0;
}

std::size_t IblpExclusive::uncovered_need(BlockId block) const {
  // Slots the block layer needs to take this block exclusively: items not
  // already held by the item layer.
  std::size_t need = 0;
  for (ItemId it : map().items_of(block))
    if (!item_lru_->contains(it)) ++need;
  return need;
}

void IblpExclusive::evict_lru_block() {
  const BlockId victim = block_lru_->pop_back();
  cache().visit_residents_of_block(victim, [this](ItemId it) {
    if (covered_[it]) {
      covered_[it] = false;
      --b_used_;
      cache().evict(it);
    }
  });
}

void IblpExclusive::insert_into_item_layer(ItemId item) {
  if (cfg_.item_layer == 0) return;
  GC_CHECK(!item_lru_->contains(item), "item already in item layer");
  if (item_lru_->size() == cfg_.item_layer) {
    const ItemId victim = item_lru_->pop_back();
    const BlockId vblock = map().block_of(victim);
    // Demote back into block coverage when possible (the "more complicated
    // tracking" Section 5.1 mentions); otherwise the victim leaves.
    if (block_lru_->contains(vblock) && b_used_ < cfg_.block_layer) {
      covered_[victim] = true;
      ++b_used_;
    } else {
      cache().evict(victim);
    }
  }
  item_lru_->push_front(item);
}

void IblpExclusive::on_hit(ItemId item) {
  if (item_lru_->contains(item)) {
    item_lru_->move_to_front(item);
    return;
  }
  const BlockId block = map().block_of(item);
  GC_CHECK(covered_[item] && block_lru_->contains(block),
           "model hit but item is in neither layer");
  block_lru_->move_to_front(block);
  // Promote exclusively: the block-layer slot is freed.
  covered_[item] = false;
  --b_used_;
  insert_into_item_layer(item);
}

void IblpExclusive::on_miss(ItemId item) {
  const BlockId block = map().block_of(item);
  GC_CHECK(!block_lru_->contains(block),
           "model miss but block is resident in block layer");
  if (cfg_.block_layer > 0) {
    const std::size_t need = uncovered_need(block);
    while (cfg_.block_layer - b_used_ < need) evict_lru_block();
    for (ItemId it : map().items_of(block)) {
      if (!item_lru_->contains(it)) {
        GC_CHECK(!cache().contains(it), "exclusive invariant broken");
        cache().load(it);
        covered_[it] = true;
        ++b_used_;
      }
    }
    block_lru_->push_front(block);
    // The requested item moves to the item layer exclusively.
    GC_CHECK(covered_[item], "requested item must have been loaded");
    covered_[item] = false;
    --b_used_;
    insert_into_item_layer(item);
  } else {
    if (item_lru_->size() == cfg_.item_layer) {
      const ItemId victim = item_lru_->pop_back();
      cache().evict(victim);
    }
    cache().load(item);
    item_lru_->push_front(item);
  }
}

void IblpExclusive::reset() {
  if (item_lru_) item_lru_->clear();
  if (block_lru_) block_lru_->clear();
  covered_.assign(covered_.size(), false);
  b_used_ = 0;
}

std::string IblpExclusive::name() const {
  return format_name("iblp-excl", cfg_);
}

// ---------------------------------------------------------------------------
// Block-layer-first ordering ablation
// ---------------------------------------------------------------------------

void IblpBlockFirst::attach(const BlockMap& map, CacheContents& cache) {
  set_attachment(map, cache);
  validate_config(cfg_, map, cache);
  item_lru_ = std::make_unique<IndexedList>(map.num_items());
  block_lru_ = std::make_unique<IndexedList>(map.num_blocks());
  b_used_ = 0;
}

void IblpBlockFirst::insert_into_item_layer(ItemId item) {
  if (cfg_.item_layer == 0) return;
  if (item_lru_->contains(item)) {
    item_lru_->move_to_front(item);
    return;
  }
  if (item_lru_->size() == cfg_.item_layer) {
    const ItemId victim = item_lru_->pop_back();
    if (!block_lru_->contains(map().block_of(victim)))
      cache().evict(victim);
  }
  item_lru_->push_front(item);
}

void IblpBlockFirst::evict_lru_block() {
  const BlockId victim = block_lru_->pop_back();
  b_used_ -= map().block_size(victim);
  cache().visit_residents_of_block(victim, [this](ItemId it) {
    if (!item_lru_->contains(it)) cache().evict(it);
  });
}

void IblpBlockFirst::on_hit(ItemId item) {
  const BlockId block = map().block_of(item);
  if (block_lru_->contains(block)) {
    // Front layer (block) serves the hit — and, being in front, reorders on
    // every touch. This is exactly the pollution hazard.
    block_lru_->move_to_front(block);
    return;
  }
  // Block layer missed; the item layer behind it serves the hit.
  GC_CHECK(item_lru_->contains(item),
           "model hit but item is in neither layer");
  item_lru_->move_to_front(item);
}

void IblpBlockFirst::on_miss(ItemId item) {
  const BlockId block = map().block_of(item);
  if (cfg_.block_layer > 0) {
    const std::size_t need = map().block_size(block);
    while (cfg_.block_layer - b_used_ < need) evict_lru_block();
    cache().load_block(block);
    b_used_ += need;
    block_lru_->push_front(block);
    // The back layer (items) also missed and caches the requested item.
    insert_into_item_layer(item);
  } else {
    if (item_lru_->contains(item)) {
      item_lru_->move_to_front(item);
    } else {
      if (item_lru_->size() == cfg_.item_layer) {
        const ItemId victim = item_lru_->pop_back();
        cache().evict(victim);
      }
      cache().load(item);
      item_lru_->push_front(item);
    }
  }
}

void IblpBlockFirst::reset() {
  if (item_lru_) item_lru_->clear();
  if (block_lru_) block_lru_->clear();
  b_used_ = 0;
}

std::string IblpBlockFirst::name() const {
  return format_name("iblp-blockfirst", cfg_);
}

}  // namespace gcaching
