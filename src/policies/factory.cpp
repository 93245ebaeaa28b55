#include "policies/factory.hpp"

#include <algorithm>
#include <optional>
#include <type_traits>

#include "core/simulator.hpp"
#include "locality/stack_column.hpp"
#include "obs/obs.hpp"
#include "policies/policy_table.hpp"
#include "util/contracts.hpp"
#include "util/parse.hpp"

namespace gcaching {

SpecArgs::SpecArgs(std::string_view spec, std::size_t capacity)
    : spec_(spec), name_(spec.substr(0, spec.find(':'))), capacity_(capacity) {
  if (name_.size() == spec.size()) return;
  std::string_view rest = spec.substr(name_.size() + 1);
  while (!rest.empty()) {
    const std::string_view kv = rest.substr(0, rest.find(','));
    rest.remove_prefix(std::min(rest.size(), kv.size() + 1));
    const auto eq = kv.find('=');
    GC_REQUIRE(eq != std::string_view::npos,
               "policy parameter must be key=value: " + std::string(kv));
    const std::string key(kv.substr(0, eq));
    for (const auto& param : params_)
      GC_REQUIRE(param.first != key,
                 "policy spec '" + spec_ + "' repeats key '" + key + "'");
    params_.emplace_back(key, kv.substr(eq + 1));
  }
}

void SpecArgs::require_known(const SpecKeys& keys) const {
  for (const auto& [key, value] : params_)
    GC_REQUIRE(!key.empty() && std::find(keys.begin(), keys.end(), key) !=
                                   keys.end(),
               "policy spec '" + spec_ + "' has unknown key '" + key + "'");
}

template <typename T>
T SpecArgs::get(std::string_view key, T fallback, T max) const {
  for (const auto& [k, value] : params_) {
    if (k != key) continue;
    const std::optional<T> v = parse_number<T>(value);
    GC_REQUIRE(v && *v <= max,
               "policy spec '" + spec_ + "': key '" + k + "' needs " +
                   (std::is_integral_v<T>
                        ? "an unsigned integer <= " + std::to_string(max)
                        : std::string("a number")) +
                   ", got '" + value + "'");
    return *v;
  }
  return fallback;
}

template std::uint64_t SpecArgs::get(std::string_view, std::uint64_t,
                                     std::uint64_t) const;
template double SpecArgs::get(std::string_view, double, double) const;

std::unique_ptr<ReplacementPolicy> make_policy(const std::string& spec,
                                               std::size_t capacity) {
  return visit_policy(
      spec, capacity, [](auto make) -> std::unique_ptr<ReplacementPolicy> {
        return std::unique_ptr<decltype(make())>(new decltype(make())(make()));
      });
}

SimStats simulate_fast_spec(const std::string& spec, const BlockMap& map,
                            const Trace& trace,
                            std::span<const BlockId> block_ids,
                            std::size_t capacity) {
  return visit_policy(spec, capacity, [&](auto make) {
    auto policy = make();
    return simulate_fast(map, trace, policy, capacity, block_ids);
  });
}

SimStats simulate_fast_spec(const std::string& spec, const BlockMap& map,
                            const Trace& trace, std::size_t capacity) {
  BlockIdVector storage;
  const std::span<const BlockId> ids = resolve_block_ids(map, trace, storage);
  return simulate_fast_spec(spec, map, trace, ids, capacity);
}

SimStats simulate_fast_spec(const std::string& spec, const Workload& workload,
                            std::size_t capacity) {
  GC_REQUIRE(workload.map != nullptr, "workload has no block map");
  return simulate_fast_spec(spec, *workload.map, workload.trace, capacity);
}

bool stack_column_eligible(const std::string& spec, const BlockMap& map) {
  return visit_policy(spec, 0, [&](auto make) {
    using P = decltype(make());
    return std::is_same_v<P, ItemLru> ||
           (std::is_same_v<P, BlockLru> &&
            locality::block_column_supported(map));
  });
}

std::vector<SimStats> simulate_column_spec(
    const std::string& spec, const BlockMap& map, const Trace& trace,
    std::span<const BlockId> block_ids,
    std::span<const std::size_t> capacities) {
  std::vector<SimStats> column;
  if (!stack_column_eligible(spec, map)) {
    column.reserve(capacities.size());
    for (const std::size_t capacity : capacities)
      column.push_back(
          simulate_fast_spec(spec, map, trace, block_ids, capacity));
    return column;
  }
  GC_OBS_SPAN(span, "stack_column_pass", "column");
  GC_OBS_SPAN_ARG(span, "capacities", std::to_string(capacities.size()));
  column = visit_policy(spec, 0, [&](auto make) {
    return std::is_same_v<decltype(make()), ItemLru>
               ? locality::item_lru_column(map, trace, capacities)
               : locality::block_lru_column(map, trace, block_ids, capacities);
  });
  if constexpr (kHotChecksEnabled)
    for (std::size_t i = 0; i < capacities.size(); ++i)
      GC_CHECK(column[i] == simulate_fast_spec(spec, map, trace, block_ids,
                                               capacities[i]),
               "stack-column derivation diverged from per-cell simulate_fast");
  return column;
}

double estimated_sim_cost(const std::string& spec, std::uint64_t accesses) {
  // Unknown names get a middle-of-the-pack estimate: misscheduling one row
  // costs a little balance, never correctness.
  double unit = 8.0;
  for_policy_row(spec.substr(0, spec.find(':')),
                 [&](const auto& row) { unit = row.unit_cost; });
  return unit * static_cast<double>(accesses);
}

std::vector<std::string> known_policy_names() {
  return std::apply(
      [](const auto&... row) {
        return std::vector<std::string>{std::string(row.name)...};
      },
      kPolicyTable);
}

}  // namespace gcaching
