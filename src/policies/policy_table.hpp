// The policy table: one row per spec name, the one place a policy is
// registered. A row holds the spec name, the keys its spec accepts, how
// those keys build the concrete class, and the class's relative simulation
// cost. make_policy, simulate_fast_spec, known_policy_names,
// estimated_sim_cost, the stack-column rule (factory.hpp) and gcached's
// make_concurrent_cache all read it, through visit_policy.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "policies/athreshold.hpp"
#include "policies/belady.hpp"
#include "policies/block_fifo.hpp"
#include "policies/block_lru.hpp"
#include "policies/footprint.hpp"
#include "policies/gcm.hpp"
#include "policies/iblp.hpp"
#include "policies/item_arc.hpp"
#include "policies/item_clock.hpp"
#include "policies/item_fifo.hpp"
#include "policies/item_lfu.hpp"
#include "policies/item_lru.hpp"
#include "policies/item_random.hpp"
#include "policies/item_slru.hpp"
#include "util/contracts.hpp"

namespace gcaching {

/// The keys a spec accepts; unused entries are empty.
using SpecKeys = std::array<std::string_view, 2>;

/// A spec `<name>[:key=value[,key=value...]]` split into its name and
/// parameters, with the cache capacity it is built for.
class SpecArgs {
 public:
  /// Throws on a parameter without '=' or a repeated key.
  SpecArgs(std::string_view spec, std::size_t capacity);

  std::string_view name() const noexcept { return name_; }
  std::size_t capacity() const noexcept { return capacity_; }

  /// Throws unless every given key is one of `keys`.
  void require_known(const SpecKeys& keys) const;

  /// `key`'s value parsed as a T by util/parse.hpp's parse_number (no sign
  /// on an unsigned, no trailing text, finite) and at most `max`, or
  /// `fallback` when the spec omits it; otherwise throws naming the spec
  /// and the key.
  template <typename T>
  T get(std::string_view key, T fallback,
        T max = std::numeric_limits<T>::max()) const;

 private:
  std::string spec_;
  std::string name_;
  std::size_t capacity_;
  std::vector<std::pair<std::string, std::string>> params_;
};

/// One policy. `make` builds the class from the spec's parameters;
/// `unit_cost` is its cost per access relative to item-lru.
template <typename P>
struct PolicyRow {
  std::string_view name;
  double unit_cost = 0.0;
  SpecKeys keys{};
  P (*make)(const SpecArgs&) = [](const SpecArgs&) { return P(); };
};

/// The IBLP family's split: i defaults to half the capacity and b to the
/// rest; each must fit in the capacity before the two are summed.
inline IblpConfig iblp_config(const SpecArgs& a) {
  const std::size_t cap = a.capacity();
  const std::size_t i = a.get<std::uint64_t>("i", cap / 2, cap);
  const std::size_t b = a.get<std::uint64_t>("b", cap - i, cap);
  GC_REQUIRE(i + b == cap, "IBLP spec i+b must equal the cache capacity");
  return {i, b};
}

// Costs are calibrated from the GC_FAST_SIM throughputs in
// BENCH_throughput.json (zipf workload) after the data-oriented policy
// rewrites — the lazily-ordered LFU bucket and the FlatBlockIndex geometry
// compressed the spread from ~70x to ~17x. A misestimate only shifts the
// sweep's schedule order, never correctness. Row order is
// known_policy_names() order.
inline constexpr std::tuple kPolicyTable{
    PolicyRow<ItemLru>{"item-lru", 1.0},
    PolicyRow<ItemFifo>{"item-fifo", 1.0},
    PolicyRow<ItemLfu>{"item-lfu", 1.3},
    PolicyRow<ItemClock>{"item-clock", 1.4},
    PolicyRow<ItemRandom>{"item-random", 1.0, {"seed"}, [](const SpecArgs& a) {
      return ItemRandom(a.get<std::uint64_t>("seed", 1));
    }},
    PolicyRow<ItemSlru>{"item-slru", 1.9, {"p"}, [](const SpecArgs& a) {
      return ItemSlru(a.get("p", 0.5));
    }},
    PolicyRow<ItemArc>{"item-arc", 1.5},
    PolicyRow<FootprintCache>{"footprint", 6.1, {"cold_block"},
                              [](const SpecArgs& a) {
      return FootprintCache(a.get<std::uint64_t>("cold_block", 1, 1) != 0);
    }},
    PolicyRow<BlockLru>{"block-lru", 4.3},
    PolicyRow<BlockFifo>{"block-fifo", 5.0},
    PolicyRow<Iblp>{"iblp", 10.7, {"i", "b"}, [](const SpecArgs& a) {
      return Iblp(iblp_config(a));
    }},
    PolicyRow<IblpExclusive>{"iblp-excl", 7.9, {"i", "b"},
                             [](const SpecArgs& a) {
      return IblpExclusive(iblp_config(a));
    }},
    PolicyRow<IblpBlockFirst>{"iblp-blockfirst", 11.8, {"i", "b"},
                              [](const SpecArgs& a) {
      return IblpBlockFirst(iblp_config(a));
    }},
    PolicyRow<Gcm>{"gcm", 4.3, {"seed", "sideload"}, [](const SpecArgs& a) {
      return Gcm(a.get<std::uint64_t>("seed", 1),
                 a.get<std::uint64_t>("sideload", 0));
    }},
    PolicyRow<MarkingItem>{"marking-item", 1.5, {"seed"},
                           [](const SpecArgs& a) {
      return MarkingItem(a.get<std::uint64_t>("seed", 1));
    }},
    PolicyRow<MarkingBlockMark>{"marking-blockmark", 8.3, {"seed"},
                                [](const SpecArgs& a) {
      return MarkingBlockMark(a.get<std::uint64_t>("seed", 1));
    }},
    PolicyRow<AThreshold>{"athreshold", 6.9, {"a"}, [](const SpecArgs& a) {
      return AThreshold(static_cast<unsigned>(a.get<std::uint64_t>(
          "a", 1, std::numeric_limits<unsigned>::max())));
    }},
    PolicyRow<BeladyItem>{"belady-item", 12.1},
    PolicyRow<BeladyBlock>{"belady-block", 14.8},
    PolicyRow<BeladyGreedyGc>{"belady-greedy-gc", 17.5},
};

/// Calls `fn(row)` on the row named `name`; false when no row has it.
template <typename Fn>
bool for_policy_row(std::string_view name, Fn&& fn) {
  return std::apply(
      [&](const auto&... row) {
        return ((row.name == name && (fn(row), true)) || ...);
      },
      kPolicyTable);
}

/// Builds one row's policy: `make()` returns it by value, so guaranteed
/// elision lets non-movable classes through.
template <typename P>
struct PolicyMaker {
  const PolicyRow<P>& row;
  const SpecArgs& args;
  P operator()() const { return row.make(args); }
};

/// The one point where a spec's dynamic name becomes a static type. Parses
/// `spec` and returns `fn(make)` for the PolicyMaker of the row it names:
/// `decltype(make())` is the concrete class, and each `make()` builds one
/// for `capacity`, parsing the parameter values. Throws ContractViolation
/// on an unknown name or a key the row does not accept.
template <typename Fn>
auto visit_policy(std::string_view spec, std::size_t capacity, Fn&& fn) {
  const SpecArgs args(spec, capacity);
  std::optional<std::invoke_result_t<Fn&, PolicyMaker<ItemLru>>> out;
  const bool found = for_policy_row(args.name(), [&](const auto& row) {
    args.require_known(row.keys);
    out.emplace(fn(PolicyMaker{row, args}));
  });
  GC_REQUIRE(found, "unknown policy spec: " + std::string(spec));
  return std::move(*out);
}

}  // namespace gcaching
