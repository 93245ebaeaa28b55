#include "gcached/gcached.hpp"

#include <cmath>
#include <type_traits>

#include "policies/factory.hpp"
#include "policies/policy_table.hpp"
#include "util/contracts.hpp"

namespace gcaching::gcached {

namespace {

/// The classes that shard: their state is a function of (map, own-shard
/// cache, own-shard accesses) alone (see gcached.hpp).
template <typename P>
constexpr bool kShardable =
    std::is_same_v<P, ItemLru> || std::is_same_v<P, ItemFifo> ||
    std::is_same_v<P, ItemClock> || std::is_same_v<P, ItemSlru> ||
    std::is_same_v<P, BlockLru> || std::is_same_v<P, BlockFifo>;

}  // namespace

std::vector<std::string> supported_concurrent_specs() {
  std::vector<std::string> specs;
  for (std::string& spec : known_policy_names())
    if (visit_policy(spec, 0,
                     [](auto make) { return kShardable<decltype(make())>; }))
      specs.push_back(std::move(spec));
  return specs;
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
  return visit_policy(
      spec, cfg.capacity, [&](auto make) -> std::unique_ptr<ConcurrentCache> {
        using P = decltype(make());
        if constexpr (kShardable<P>)
          return std::make_unique<ShardedCache<P, decltype(make)>>(map, cfg,
                                                                   make, spec);
        std::string shardable;
        for (const std::string& s : supported_concurrent_specs())
          shardable += (shardable.empty() ? "" : ", ") + s;
        GC_REQUIRE(false,
                   "policy spec '" + spec +
                       "' cannot run under gcached: only policies whose state "
                       "is a function of (map, own-shard cache, own-shard "
                       "accesses) shard, which are " +
                       shardable +
                       " — offline, capacity-coupled and globally-stateful "
                       "policies are excluded; see docs/CONCURRENCY.md and "
                       "supported_concurrent_specs()");
        return nullptr;  // unreachable
      });
}

}  // namespace gcaching::gcached
