#include "gcached/gcached.hpp"

#include <cmath>

#include "policies/block_fifo.hpp"
#include "policies/block_lru.hpp"
#include "policies/item_clock.hpp"
#include "policies/item_fifo.hpp"
#include "policies/item_lru.hpp"
#include "policies/item_slru.hpp"
#include "util/contracts.hpp"

namespace gcaching::gcached {

namespace {

template <typename Policy>
std::unique_ptr<ConcurrentCache> make_sharded(
    std::shared_ptr<const BlockMap> map, const GcachedConfig& cfg,
    const std::string& name) {
  auto make = [] { return Policy(); };
  return std::make_unique<ShardedCache<Policy, decltype(make)>>(
      std::move(map), cfg, make, name);
}

}  // namespace

std::vector<std::string> supported_concurrent_specs() {
  return {"item-lru",   "item-fifo",  "item-clock",
          "item-slru",  "block-lru",  "block-fifo"};
}

std::string validate_gcached_request(long long shards, long long threads) {
  if (shards <= 0)
    return "--shards must be a positive integer (got " +
           std::to_string(shards) +
           "): each shard is an independently locked sub-cache, and the "
           "runtime needs at least one";
  if (threads <= 0)
    return "--threads must be a positive integer (got " +
           std::to_string(threads) +
           "): the load generator needs at least one client thread";
  return "";
}

std::optional<std::uint64_t> fill_us_to_ns(double fill_us) {
  const double ns = fill_us * 1000.0;
  if (!std::isfinite(ns) || ns < 0.0 || ns >= 0x1p63) return std::nullopt;
  return static_cast<std::uint64_t>(ns);
}

std::unique_ptr<ConcurrentCache> make_concurrent_cache(
    const std::string& spec, std::shared_ptr<const BlockMap> map,
    const GcachedConfig& cfg) {
  if (spec == "item-lru") return make_sharded<ItemLru>(std::move(map), cfg, spec);
  if (spec == "item-fifo")
    return make_sharded<ItemFifo>(std::move(map), cfg, spec);
  if (spec == "item-clock")
    return make_sharded<ItemClock>(std::move(map), cfg, spec);
  if (spec == "item-slru")
    return make_sharded<ItemSlru>(std::move(map), cfg, spec);
  if (spec == "block-lru")
    return make_sharded<BlockLru>(std::move(map), cfg, spec);
  if (spec == "block-fifo")
    return make_sharded<BlockFifo>(std::move(map), cfg, spec);
  GC_REQUIRE(false,
             "policy spec '" + spec +
                 "' cannot run under gcached: only policies whose state is a "
                 "function of (map, own-shard cache, own-shard accesses) "
                 "shard — offline (belady-*), capacity-coupled (iblp*, "
                 "athreshold) and globally-stateful (item-arc, footprint) "
                 "policies are excluded; see docs/CONCURRENCY.md and "
                 "supported_concurrent_specs()");
  return nullptr;  // unreachable
}

}  // namespace gcaching::gcached
