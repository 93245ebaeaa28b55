#include "offline/opt_portfolio.hpp"

#include "core/simulator.hpp"
#include "policies/belady.hpp"
#include "policies/iblp.hpp"
#include "util/contracts.hpp"

namespace gcaching {

PortfolioResult opt_portfolio_upper(const BlockMap& map, const Trace& trace,
                                    std::size_t capacity,
                                    bool include_iblp_sweep) {
  GC_REQUIRE(capacity >= 1, "capacity must be positive");
  PortfolioResult best;
  best.misses = ~std::uint64_t{0};
  const auto consider = [&](ReplacementPolicy&& policy) {
    const SimStats s = simulate(map, trace, policy, capacity);
    if (s.misses < best.misses) {
      best.misses = s.misses;
      best.best_policy = policy.name();
    }
  };
  consider(BeladyItem());
  consider(BeladyGreedyGc());
  if (capacity >= map.max_block_size()) consider(BeladyBlock());
  if (include_iblp_sweep && capacity >= 2 * map.max_block_size()) {
    // A small split grid; IBLP is online but still yields legal schedules,
    // and its layered structure often beats the pure clairvoyant policies
    // on adversarial traces built around layered reservations.
    for (double frac : {0.25, 0.5, 0.75}) {
      const auto i = static_cast<std::size_t>(frac *
                                              static_cast<double>(capacity));
      const std::size_t b = capacity - i;
      if (b < map.max_block_size()) continue;
      consider(Iblp(IblpConfig{i, b}));
    }
  }
  return best;
}

}  // namespace gcaching
