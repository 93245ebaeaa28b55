// Scenario: watch the competitive gap open, live.
//
// Runs the paper's lower-bound constructions (Theorems 2 and 3) as
// executable adversaries against an Item Cache, a Block Cache, and IBLP,
// printing the measured online/OPT ratio next to the analytic bound it
// instantiates — the content of Figure 3, as an interactive demo.
//
//   $ ./examples/adversarial_gap [k] [B] [h]
#include <cstdlib>
#include <iostream>

#include "bounds/competitive.hpp"
#include "bounds/partition.hpp"
#include "policies/factory.hpp"
#include "traces/adversary.hpp"
#include "util/parse.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace gcaching;

  const auto arg = [&](int index, std::size_t fallback) -> std::size_t {
    if (argc <= index) return fallback;
    if (const auto v = parse_number<std::size_t>(argv[index])) return *v;
    std::cerr << "usage: adversarial_gap [k] [B] [h] (unsigned integers)\n";
    std::exit(2);
  };
  const std::size_t k = arg(1, 1024);
  const std::size_t B = arg(2, 16);
  const std::size_t h = arg(3, 64);
  const double kd = static_cast<double>(k), Bd = static_cast<double>(B),
               hd = static_cast<double>(h);

  std::cout << "online cache k = " << k << ", block size B = " << B
            << ", offline comparator h = " << h << "\n\n";

  traces::AdversaryOptions opts;
  opts.k = k;
  opts.h = h;
  opts.B = B;
  opts.phases = 20;

  const auto split = bounds::iblp_optimal_partition(kd, hd, Bd);
  std::size_t i_star = static_cast<std::size_t>(split.item_layer + 0.5);
  if (k - i_star > 0 && k - i_star < B) i_star = k - B;
  const std::string iblp_spec = "iblp:i=" + std::to_string(i_star) +
                                ",b=" + std::to_string(k - i_star);

  TextTable table({"policy", "adversary", "online misses", "OPT misses",
                   "measured ratio", "analytic bound"});
  auto add = [&](const std::string& spec, const std::string& which) {
    auto policy = make_policy(spec, k);
    traces::AdversaryResult res;
    std::string bound;
    if (which == "Thm2 (anti-item)") {
      res = traces::run_item_adversary(*policy, opts);
      bound = spec.rfind("item", 0) == 0
                  ? TextTable::fmt_ratio(bounds::item_cache_lower(kd, hd, Bd))
                  : "-";
    } else {
      res = traces::run_block_adversary(*policy, opts);
      bound = spec.rfind("block", 0) == 0
                  ? TextTable::fmt_ratio(
                        bounds::block_cache_lower(kd, hd, Bd))
                  : "-";
    }
    table.add_row({policy->name(), which,
                   TextTable::fmt_int(res.online_steady_misses),
                   TextTable::fmt_int(res.opt_steady_misses),
                   TextTable::fmt_ratio(res.steady_ratio()), bound});
  };

  for (const std::string& spec : {std::string("item-lru"),
                                  std::string("block-lru"), iblp_spec}) {
    add(spec, "Thm2 (anti-item)");
    if (h <= k / B) add(spec, "Thm3 (anti-block)");
  }
  std::cout << table;

  std::cout << "\nIBLP upper bound at its optimal split for this h: "
            << TextTable::fmt_ratio(split.ratio)
            << "  (i = " << i_star << ", b = " << (k - i_star) << ")\n"
            << "GC lower bound (any deterministic policy): "
            << TextTable::fmt_ratio(bounds::gc_lower_bound(kd, hd, Bd))
            << "\n\nEach specialist is destroyed by the adversary built for"
               " it; IBLP\nstays near its Theorem 7 bound under both. (The"
               " bound is asymptotic\nand the harness's prescribed-OPT"
               " accounting is exact only for the\nadversary's target class,"
               " so small overshoots at this scale are\nexpected — see"
               " DESIGN.md.)\n";
  return 0;
}
