#include "core/block_map.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>

#include "util/contracts.hpp"
#include "util/mathx.hpp"

namespace gcaching {

namespace {

/// s when B = 2^s fits a shift of a 32-bit id (s <= 31).
std::optional<unsigned> shift_of(std::size_t block_size) {
  if (!std::has_single_bit(block_size) || block_size > (std::size_t{1} << 31))
    return std::nullopt;
  return static_cast<unsigned>(std::countr_zero(block_size));
}

/// ceil(2^64 / B) for B >= 2: with it, item / B is the high word of a
/// 64x64-bit product, exact for every 32-bit item (Lemire, Kaser and Kurz,
/// "Faster Remainder by Direct Computation", 2019). For B >= 2^32 the
/// product stays below 2^64, so every item lands in block 0.
std::uint64_t reciprocal_of(std::size_t block_size) {
  return UINT64_MAX / block_size + 1;
}

BlockId divide(ItemId item, std::uint64_t reciprocal) {
  return static_cast<BlockId>(
      (static_cast<unsigned __int128>(reciprocal) * item) >> 64);
}

/// out[i] = block(items[i]) for i < n; returns the largest item. The
/// pointers do not alias, so no run-time overlap check is needed.
template <typename BlockOf>
ItemId transform_run(const ItemId* __restrict items, std::size_t n,
                     BlockId* __restrict out, BlockOf block) {
  ItemId max_item = 0;
  for (std::size_t i = 0; i < n; ++i) {
    max_item = std::max(max_item, items[i]);
    out[i] = block(items[i]);
  }
  return max_item;
}

/// out[i] = block(items[i]); returns the largest item, which the caller
/// checks against its universe once instead of once per access. Runs of a
/// fixed kRun items, then the tail: GCC's -O2 vectorizer (the "very-cheap"
/// cost model) takes only a loop whose trip count is a multiple of the
/// vector width and that needs no alias check, so the fixed runs vectorize
/// a shift by B = 2^s at -O2 as well as at -O3. Each run ends in a
/// horizontal max; at 64 items that costs less than one plain loop saves
/// (docs/PERF.md, "A shift for a power-of-two B").
template <typename BlockOf>
ItemId transform_with_max(std::span<const ItemId> items, BlockId* out,
                          BlockOf block) {
  constexpr std::size_t kRun = 64;
  const std::size_t whole = items.size() / kRun * kRun;
  ItemId max_item = 0;
  for (std::size_t i = 0; i < whole; i += kRun)
    max_item = std::max(
        max_item, transform_run(items.data() + i, kRun, out + i, block));
  return std::max(max_item, transform_run(items.data() + whole,
                                          items.size() - whole, out + whole,
                                          block));
}

/// True when table[i] == i for every i < n.
bool starts_with_identity(const std::vector<ItemId>& table, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    if (table[i] != i) return false;
  return true;
}

}  // namespace

UniformBlockMap::UniformBlockMap(std::size_t num_items, std::size_t block_size)
    : num_items_(num_items),
      block_size_(block_size),
      num_blocks_(ceil_div(num_items, block_size)),
      shift_(shift_of(block_size)) {
  GC_REQUIRE(num_items > 0, "universe must be non-empty");
  GC_REQUIRE(block_size > 0, "block size must be positive");
  reciprocal_ = shift_ ? 0 : reciprocal_of(block_size);
}

UniformBlockMap::UniformBlockMap(
    std::size_t num_items, std::size_t block_size,
    std::shared_ptr<const std::vector<ItemId>> identity)
    : UniformBlockMap(num_items, block_size) {
  GC_REQUIRE(identity != nullptr && identity->size() >= num_items,
             "a borrowed item table must cover the universe");
  GC_HOT_REQUIRE(starts_with_identity(*identity, num_items),
                 "a borrowed item table must be the identity 0..n-1");
  identity_ = std::move(identity);
  items_.store(identity_->data(), std::memory_order_release);
}

const ItemId* UniformBlockMap::build_items() const {
  // GCLINT-ALLOW(hot-path): runs once per map, on its first items_of; every later call returns at the acquire load in items_of before reaching here
  const std::lock_guard<std::mutex> lock(build_mutex_);
  if (const ItemId* built = items_.load(std::memory_order_relaxed))
    return built;  // another reader built it while this one waited
  auto identity = std::make_shared<std::vector<ItemId>>(num_items_);
  std::iota(identity->begin(), identity->end(), ItemId{0});
  identity_ = std::move(identity);
  items_.store(identity_->data(), std::memory_order_release);
  return identity_->data();
}

BlockId UniformBlockMap::block_of(ItemId item) const {
  GC_REQUIRE(item < num_items_, "item id out of range");
  return shift_ ? item >> *shift_ : divide(item, reciprocal_);
}

void UniformBlockMap::block_ids_of(std::span<const ItemId> items,
                                   BlockId* out) const {
  const std::uint64_t r = reciprocal_;
  const ItemId max_item =
      shift_ ? transform_with_max(items, out,
                                  [s = *shift_](ItemId it) { return it >> s; })
             : transform_with_max(items, out,
                                  [r](ItemId it) { return divide(it, r); });
  GC_REQUIRE(max_item < num_items_, "trace references item outside the map");
}

ExplicitBlockMap::ExplicitBlockMap(std::vector<std::vector<ItemId>> blocks)
    : blocks_(std::move(blocks)) {
  GC_REQUIRE(!blocks_.empty(), "partition must contain at least one block");
  std::size_t total = 0;
  for (auto& b : blocks_) {
    GC_REQUIRE(!b.empty(), "blocks must be non-empty");
    std::sort(b.begin(), b.end());
    GC_REQUIRE(std::adjacent_find(b.begin(), b.end()) == b.end(),
               "duplicate item within a block");
    total += b.size();
    max_block_size_ = std::max(max_block_size_, b.size());
  }
  item_to_block_.assign(total, kInvalidBlock);
  for (BlockId j = 0; j < blocks_.size(); ++j) {
    for (ItemId it : blocks_[j]) {
      GC_REQUIRE(it < total, "item ids must be dense 0..n-1");
      GC_REQUIRE(item_to_block_[it] == kInvalidBlock,
                 "item appears in two blocks — not a partition");
      item_to_block_[it] = j;
    }
  }
  // Density: every id 0..n-1 covered (any gap would leave kInvalidBlock).
  GC_CHECK(std::find(item_to_block_.begin(), item_to_block_.end(),
                     kInvalidBlock) == item_to_block_.end(),
           "item universe must be dense");
}

BlockId ExplicitBlockMap::block_of(ItemId item) const {
  GC_REQUIRE(item < item_to_block_.size(), "item id out of range");
  return item_to_block_[item];
}

void ExplicitBlockMap::block_ids_of(std::span<const ItemId> items,
                                    BlockId* out) const {
  // The clamp keeps an out-of-range item from reading past the table before
  // the check after the loop rejects it.
  const BlockId* table = item_to_block_.data();
  const std::size_t last = item_to_block_.size() - 1;
  const ItemId max_item = transform_with_max(items, out, [=](ItemId it) {
    return table[std::min<std::size_t>(it, last)];
  });
  GC_REQUIRE(max_item < item_to_block_.size(),
             "trace references item outside the map");
}

std::span<const ItemId> ExplicitBlockMap::items_of(BlockId block) const {
  GC_REQUIRE(block < blocks_.size(), "block id out of range");
  return std::span<const ItemId>(blocks_[block].data(), blocks_[block].size());
}

std::shared_ptr<BlockMap> make_singleton_blocks(std::size_t num_items) {
  return std::make_shared<UniformBlockMap>(num_items, 1);
}

std::shared_ptr<BlockMap> make_uniform_blocks(std::size_t num_items,
                                              std::size_t block_size) {
  return std::make_shared<UniformBlockMap>(num_items, block_size);
}

}  // namespace gcaching
