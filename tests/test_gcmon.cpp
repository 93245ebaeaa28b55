// Tests for the gcmon runtime-monitoring tier (src/obs/gcmon.*,
// hdr_histogram.hpp) and its gcached/loadgen integration.
//
// The load-bearing guarantees:
//   * HdrHistogram percentiles stay within the documented <=1% relative
//     error of the exact nearest-rank sample, on adversarial distributions
//     (bimodal, single-bucket, overflow) — and are bit-exact below 256 ns;
//   * merge is bucket-wise addition, hence associative and commutative:
//     merge order never changes any percentile;
//   * concurrent record/merge/query never corrupts counts (the tsan preset
//     runs this suite via the `gcached` label);
//   * the monitor's harvest (fed by a fake shard source here): snapshots
//     carry each shard's cumulative counters and their sum, gauges
//     included, and the latency summary persists across histogram
//     deregistration (final-export gauge semantics);
//   * the Prometheus exposition round-trips its own validator with one
//     family per counter of obs/counters.hpp, write_file_atomic leaves no
//     debris on failure, and a failed export is sticky and readable from
//     the monitor;
//   * attaching a monitor changes NOTHING: at 1 and 4 clients, with and
//     without a fill latency, the final harvest's SimStats are
//     collect_stats bit for bit and its lock counts the LoadResult's, and
//     1 client stays bit-identical to simulate_fast (the differential
//     anchor with monitoring attached);
//   * under load every shard's harvested counters never decrease, and the
//     final snapshot is the shards' collect_stats split;
//   * detail::replay_closed_loop times exactly the jittered sample that
//     detail::timed_ops recomputes, each timed op records exactly its access
//     duration, untimed ops never read the clock, and inter-op bookkeeping
//     time never lands in the histogram (pinned with a deterministic fake
//     clock); the sampled quantiles match the exact ones over every op,
//     including on a B = 16 block-boundary pattern a fixed stride aliases.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "gcached/gcached.hpp"
#include "gcached/loadgen.hpp"
#include "obs/gcmon.hpp"
#include "obs/hdr_histogram.hpp"
#include "policies/factory.hpp"
#include "traces/synthetic.hpp"
#include "util/rng.hpp"

namespace gcaching {
namespace {

using obs::HdrHistogram;
using obs::Monitor;
using obs::MonitorConfig;
using obs::ShardCounters;
using obs::Snapshot;

/// Attaches a fake shard source serving `shards` (read at every harvest).
void attach_fake(Monitor& mon, const std::vector<ShardCounters>& shards) {
  mon.attach_shards([&shards] { return shards; });
}

// ---- HdrHistogram bucket geometry -------------------------------------------

TEST(HdrHistogram, ExactRegionRoundTripsBitIdentically) {
  // Values below 2*kSubBuckets = 256 get width-1 buckets: the representative
  // IS the value.
  for (std::uint64_t v = 0; v < 2 * HdrHistogram::kSubBuckets; ++v) {
    const std::size_t idx = HdrHistogram::bucket_index(v);
    EXPECT_EQ(HdrHistogram::bucket_lower(idx), v);
    EXPECT_EQ(HdrHistogram::bucket_width(idx), 1u);
    EXPECT_EQ(HdrHistogram::bucket_representative(idx),
              static_cast<double>(v));
  }
}

TEST(HdrHistogram, BucketIndexIsMonotoneAndEdgesAreConsistent) {
  // Every bucket's lower edge maps back to that bucket, and indices are
  // non-decreasing across a log-spread sweep of values.
  for (std::size_t idx = 0; idx < HdrHistogram::kOverflowBucket; ++idx) {
    const std::uint64_t lo = HdrHistogram::bucket_lower(idx);
    EXPECT_EQ(HdrHistogram::bucket_index(lo), idx) << "lower edge of " << idx;
    const std::uint64_t hi = lo + HdrHistogram::bucket_width(idx) - 1;
    EXPECT_EQ(HdrHistogram::bucket_index(hi), idx) << "upper edge of " << idx;
  }
  std::size_t prev = 0;
  for (std::uint64_t v = 0; v < (1ULL << 22); v += 97) {
    const std::size_t idx = HdrHistogram::bucket_index(v);
    EXPECT_GE(idx, prev);
    prev = idx;
  }
}

TEST(HdrHistogram, OverflowBucketCatchesEverythingPastMaxExponent) {
  const std::uint64_t edge = 1ULL << HdrHistogram::kMaxExponent;
  EXPECT_EQ(HdrHistogram::bucket_index(edge), HdrHistogram::kOverflowBucket);
  EXPECT_EQ(HdrHistogram::bucket_index(edge - 1),
            HdrHistogram::kOverflowBucket - 1);
  EXPECT_EQ(HdrHistogram::bucket_index(~0ULL), HdrHistogram::kOverflowBucket);
  HdrHistogram h;
  h.record(edge);
  h.record(~0ULL);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.bucket_count(HdrHistogram::kOverflowBucket), 2u);
  // The overflow bucket reports its lower edge for every quantile.
  EXPECT_EQ(h.quantile(0.5), static_cast<double>(edge));
  EXPECT_EQ(h.max_value(), static_cast<double>(edge));
}

// ---- Percentile error bound vs exact nearest-rank ---------------------------

/// Exact nearest-rank with the same convention quantile() documents: the
/// sorted sample at index round(q * (N - 1)).
double exact_nearest_rank(std::vector<std::uint64_t> samples, double q) {
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  return static_cast<double>(
      samples[static_cast<std::size_t>(pos + 0.5)]);
}

void expect_quantiles_within_bound(const std::vector<std::uint64_t>& samples,
                                   const char* what) {
  HdrHistogram h;
  for (const std::uint64_t v : samples) h.record(v);
  ASSERT_EQ(h.count(), samples.size());
  for (const double q : {0.0, 0.25, 0.50, 0.90, 0.99, 0.999, 1.0}) {
    const double exact = exact_nearest_rank(samples, q);
    const double got = h.quantile(q);
    if (exact == 0.0) {
      EXPECT_EQ(got, 0.0) << what << " q=" << q;
    } else {
      EXPECT_NEAR(got / exact, 1.0, 0.01)
          << what << " q=" << q << " exact=" << exact << " got=" << got;
    }
  }
}

/// Two far-apart modes — the distribution where a mean or a coarse bucket
/// scheme goes badly wrong: fast hits ~500 ns, slow fills ~2 ms.
std::vector<std::uint64_t> bimodal_samples() {
  std::vector<std::uint64_t> samples;
  for (std::uint64_t i = 0; i < 10'000; ++i)
    samples.push_back(400 + i % 200);  // 400..599 ns
  for (std::uint64_t i = 0; i < 10'000; ++i)
    samples.push_back(1'900'000 + 40 * (i % 10'000));  // 1.9..2.3 ms
  return samples;
}

/// One sample per octave across the whole dynamic range below overflow —
/// maximally stresses the per-octave sub-bucket rounding.
std::vector<std::uint64_t> log_spread_samples() {
  std::vector<std::uint64_t> samples;
  for (unsigned k = 0; k < HdrHistogram::kMaxExponent; ++k)
    for (std::uint64_t j = 0; j < 50; ++j)
      samples.push_back((1ULL << k) + j * ((1ULL << k) / 64 + 1));
  return samples;
}

TEST(HdrHistogram, BimodalDistributionStaysWithinOnePercent) {
  expect_quantiles_within_bound(bimodal_samples(), "bimodal");
}

TEST(HdrHistogram, SingleBucketDistributionIsExactToTheBound) {
  // Every sample identical: all quantiles must report that one bucket.
  std::vector<std::uint64_t> samples(5'000, 300'000);
  expect_quantiles_within_bound(samples, "single-bucket");
  HdrHistogram h;
  for (const std::uint64_t v : samples) h.record(v);
  EXPECT_EQ(h.quantile(0.0), h.quantile(1.0));
}

TEST(HdrHistogram, LogSpreadDistributionStaysWithinOnePercent) {
  expect_quantiles_within_bound(log_spread_samples(), "log-spread");
}

TEST(HdrHistogram, EmptyHistogramReportsZero) {
  HdrHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0.0);
  EXPECT_EQ(h.max_value(), 0.0);
}

// ---- Merge algebra ----------------------------------------------------------

void fill_pattern(HdrHistogram& h, std::uint64_t base, std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) h.record(base + i * 37);
}

TEST(HdrHistogram, MergeIsAssociativeAndCommutative) {
  HdrHistogram a, b, c;
  fill_pattern(a, 100, 1'000);
  fill_pattern(b, 50'000, 1'000);
  fill_pattern(c, 9'000'000, 1'000);

  HdrHistogram ab_c;  // (a + b) + c
  ab_c.merge_from(a);
  ab_c.merge_from(b);
  ab_c.merge_from(c);
  HdrHistogram c_ba;  // c + (b + a)
  c_ba.merge_from(c);
  c_ba.merge_from(b);
  c_ba.merge_from(a);

  ASSERT_EQ(ab_c.count(), 3'000u);
  ASSERT_EQ(c_ba.count(), 3'000u);
  for (std::size_t i = 0; i < HdrHistogram::kBuckets; ++i)
    ASSERT_EQ(ab_c.bucket_count(i), c_ba.bucket_count(i)) << "bucket " << i;
  for (const double q : {0.01, 0.5, 0.99, 0.999})
    EXPECT_EQ(ab_c.quantile(q), c_ba.quantile(q)) << "q=" << q;
  EXPECT_EQ(ab_c.max_value(), c_ba.max_value());
}

TEST(HdrHistogram, MergePreservesExactCountsAndClearResets) {
  HdrHistogram a, b;
  fill_pattern(a, 10, 100);
  fill_pattern(b, 10, 100);  // identical pattern: counts double
  a.merge_from(b);
  EXPECT_EQ(a.count(), 200u);
  EXPECT_EQ(a.bucket_count(HdrHistogram::bucket_index(10)), 2u);
  a.clear();
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.quantile(0.5), 0.0);
}

// Concurrent recorders + a live merger: the tsan preset runs this via the
// `gcached` label. After quiescing, every record must be accounted for.
TEST(HdrHistogram, ConcurrentRecordAndMergeStress) {
  constexpr std::size_t kThreads = 4;
  constexpr std::uint64_t kPerThread = 50'000;
  HdrHistogram shared;
  std::vector<std::thread> recorders;
  for (std::size_t t = 0; t < kThreads; ++t) {
    recorders.emplace_back([&shared, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i)
        shared.record(100 + t * 1'000 + i % 500);
    });
  }
  // Live merger: repeatedly merge the (still-recording) histogram into a
  // scratch table and query it — must never crash, corrupt, or block.
  std::thread merger([&shared] {
    for (int round = 0; round < 50; ++round) {
      HdrHistogram scratch;
      scratch.merge_from(shared);
      const double p50 = scratch.quantile(0.5);
      ASSERT_GE(p50, 0.0);
      ASSERT_LE(scratch.count(), kThreads * kPerThread);
    }
  });
  for (std::thread& th : recorders) th.join();
  merger.join();
  EXPECT_EQ(shared.count(), kThreads * kPerThread);
  HdrHistogram merged;
  merged.merge_from(shared);
  EXPECT_EQ(merged.count(), kThreads * kPerThread);
}

// ---- Monitor harvest --------------------------------------------------------

TEST(GcmonMonitor, HarvestComputesExactDeltasBetweenSnapshots) {
  // Snapshots are cumulative: consecutive ones give the exact deltas.
  std::vector<ShardCounters> shards(2);
  Monitor mon;
  attach_fake(mon, shards);

  shards[0].stats.hits = 5;
  shards[1].stats.misses = 3;
  shards[1].residency = 4;
  const Snapshot s1 = mon.harvest_now();
  EXPECT_EQ(s1.seq, 0u);
  ASSERT_EQ(s1.shards.size(), 2u);
  EXPECT_EQ(s1.shards[0], shards[0]);
  EXPECT_EQ(s1.shards[1], shards[1]);
  EXPECT_EQ(s1.totals.stats.hits, 5u);
  EXPECT_EQ(s1.totals.stats.misses, 3u);

  shards[0].stats.hits = 7;
  shards[0].residency = 9;
  const Snapshot s2 = mon.harvest_now();
  EXPECT_EQ(s2.seq, 1u);
  EXPECT_EQ(s2.shards[0].stats.hits, 7u);  // cumulative
  EXPECT_EQ(s2.shards[0].stats.hits - s1.shards[0].stats.hits, 2u);
  EXPECT_EQ(s2.shards[1].stats.misses - s1.shards[1].stats.misses, 0u);
  EXPECT_EQ(s2.totals.residency, 13u);  // gauges sum over shards
  EXPECT_GE(s2.uptime_s, s1.uptime_s);
}

TEST(GcmonMonitor, LatencySummaryPersistsAfterDeregistration) {
  HdrHistogram h;
  h.record(1'000);
  h.record(2'000);
  Monitor mon;
  mon.add_histogram(&h);
  const Snapshot live = mon.harvest_now();
  EXPECT_EQ(live.latency.count, 2u);
  EXPECT_GT(live.latency.p50_ns, 0.0);
  mon.remove_histogram(&h);
  // Final-export gauge semantics: the last observed summary persists
  // instead of snapping to zero once the load threads deregister.
  const Snapshot after = mon.harvest_now();
  EXPECT_EQ(after.latency.count, 2u);
  EXPECT_EQ(after.latency.p50_ns, live.latency.p50_ns);
}

TEST(GcmonMonitor, BackgroundThreadHarvestsAndStopTakesFinalSnapshot) {
  MonitorConfig cfg;
  cfg.interval = std::chrono::milliseconds(1);
  Monitor mon(cfg);
  std::size_t harvests = 0;  // harvests are serialized under the monitor
  mon.attach_shards([&harvests] {
    ++harvests;
    return std::vector<ShardCounters>{};
  });
  EXPECT_FALSE(mon.running());
  mon.start();
  EXPECT_TRUE(mon.running());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  mon.stop();
  EXPECT_FALSE(mon.running());
  // At least the immediate first tick plus stop()'s final harvest.
  EXPECT_GE(harvests, 2u);
  // stop() is idempotent and start() can relaunch.
  mon.stop();
  mon.start();
  mon.stop();
}

TEST(GcmonMonitor, JsonlStreamStartsEmptyAtTheFirstHarvest) {
  // Two monitors on one JSONL path, as two runs of one command line: the
  // file holds only the second stream, so its seq and counters never fall.
  const std::string path = ::testing::TempDir() + "gcmon_two_streams.jsonl";
  std::vector<ShardCounters> shards(1);
  MonitorConfig cfg;
  cfg.jsonl_path = path;
  for (int run = 0; run < 2; ++run) {
    Monitor mon(cfg);
    attach_fake(mon, shards);
    for (std::uint64_t k = 1; k <= 3; ++k) {
      shards[0].stats.hits = k;
      mon.harvest_now();
    }
    EXPECT_EQ(mon.export_error(), "");
  }
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u);
  for (std::size_t k = 0; k < lines.size(); ++k) {
    EXPECT_EQ(lines[k].rfind("{\"seq\": " + std::to_string(k) + ",", 0), 0u)
        << lines[k];
    EXPECT_NE(lines[k].find("\"hits\": " + std::to_string(k + 1) + ","),
              std::string::npos)
        << lines[k];
  }
  std::remove(path.c_str());
}

// ---- Prometheus / JSONL export ----------------------------------------------

TEST(GcmonExport, PrometheusTextRoundTripsTheValidator) {
  std::vector<ShardCounters> shards(2);
  shards[0].stats.hits = 11;
  shards[1].locks.trylock_failures = 12'345;
  HdrHistogram h;
  h.record(5'000);
  Monitor mon;
  attach_fake(mon, shards);
  mon.add_histogram(&h);
  const Snapshot snap = mon.harvest_now();
  const std::string text = obs::prometheus_text(snap);
  EXPECT_EQ(obs::validate_prometheus_text(text), "");
  EXPECT_NE(text.find("gcached_shard_hits_total{shard=\"0\"} 11"),
            std::string::npos);
  EXPECT_NE(text.find("gcached_shard_trylock_failures_total{shard=\"1\"} "
                      "12345"),
            std::string::npos);
  // One family per counter of the record, named by its JSON key.
  for (const obs::Counter& c : obs::counters(ShardCounters{})) {
    const std::string family = std::string("# TYPE gcached_shard_") + c.key +
                               (c.gauge ? " gauge\n" : "_total counter\n");
    EXPECT_NE(text.find(family), std::string::npos) << family;
  }
  EXPECT_NE(text.find("# TYPE gcached_shard_fills_inflight gauge"),
            std::string::npos);
  EXPECT_NE(text.find("gcached_latency_count 1"), std::string::npos);
  EXPECT_NE(text.find("gcmon_snapshot_seq"), std::string::npos);
}

TEST(GcmonExport, ValidatorRejectsMalformedExpositions) {
  using obs::validate_prometheus_text;
  EXPECT_NE(validate_prometheus_text(""), "");  // no samples
  EXPECT_NE(validate_prometheus_text("metric_without_type 1\n"), "");
  EXPECT_NE(validate_prometheus_text("# TYPE 9bad counter\n9bad 1\n"), "");
  EXPECT_NE(validate_prometheus_text("# TYPE m counter\nm nan\n"), "");
  EXPECT_NE(
      validate_prometheus_text("# TYPE m counter\nm{shard=\"0} 1\n"), "");
  EXPECT_NE(validate_prometheus_text("# BOGUS m counter\nm 1\n"), "");
  EXPECT_EQ(validate_prometheus_text("# HELP m h\n# TYPE m counter\nm 1\n"),
            "");
  EXPECT_EQ(
      validate_prometheus_text("# TYPE m gauge\nm{shard=\"0\"} 1.5\n"), "");
}

TEST(GcmonExport, JsonlLineCarriesTotalsLatencyAndPerShardArrays) {
  std::vector<ShardCounters> shards(2);
  shards[0].stats.hits = 4;
  shards[1].locks.holds = 6;
  Monitor mon;
  attach_fake(mon, shards);
  const Snapshot snap = mon.harvest_now();
  const std::string line = obs::jsonl_line(snap);
  EXPECT_NE(line.find("\"seq\": 0"), std::string::npos);
  EXPECT_NE(line.find("\"totals\": {\"accesses\": 0, \"hits\": 4, "),
            std::string::npos);
  EXPECT_NE(line.find("\"lock_acquisitions\": 6"), std::string::npos);
  EXPECT_NE(line.find("\"latency\": {\"count\": 0"), std::string::npos);
  EXPECT_NE(line.find("\"shards\": [{\"accesses\": 0, \"hits\": 4, "),
            std::string::npos);
  EXPECT_EQ(line.find("deltas"), std::string::npos);
}

TEST(GcmonExport, WriteFileAtomicWritesWholeFileAndFailsCleanly) {
  const std::string path = ::testing::TempDir() + "gcmon_atomic_test.prom";
  ASSERT_TRUE(obs::write_file_atomic(path, "# TYPE m counter\nm 1\n"));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "# TYPE m counter\nm 1\n");
  std::remove(path.c_str());
  // Unwritable target directory: returns false, leaves no temp debris.
  EXPECT_FALSE(obs::write_file_atomic(
      "/nonexistent_gcmon_dir/out.prom", "x"));
}

TEST(GcmonExport, FailedExportIsStickyAndNamesThePath) {
  // Both targets sit under a regular file, so neither can ever be created.
  const std::string file = ::testing::TempDir() + "gcmon_not_a_dir";
  std::ofstream(file) << "x";
  MonitorConfig cfg;
  cfg.prometheus_path = file + "/m.prom";
  cfg.jsonl_path = file + "/s.jsonl";
  Monitor mon(cfg);
  EXPECT_EQ(mon.export_error(), "");
  mon.harvest_now();
  EXPECT_EQ(mon.export_error(), "cannot write " + cfg.prometheus_path);
  // Sticky: the first failure stays reported across later harvests.
  mon.harvest_now();
  EXPECT_EQ(mon.export_error(), "cannot write " + cfg.prometheus_path);

  MonitorConfig jsonl_only;
  jsonl_only.jsonl_path = cfg.jsonl_path;
  Monitor stream(jsonl_only);
  stream.harvest_now();
  EXPECT_EQ(stream.export_error(), "cannot write " + cfg.jsonl_path);
  std::remove(file.c_str());
}

// ---- Sampled, bracketed latency measurement (fake clock) --------------------

/// Deterministic manual clock for detail::replay_closed_loop. A timed op
/// calls now() exactly twice (t0 before the access, t1 after); the clock
/// injects `inter_op_ns` of "bookkeeping time" before every t0, modeling
/// the loop-control / recording tail that the OLD chained measurement
/// wrongly attributed to the next operation. `calls` counts every read.
struct FakeClock {
  using duration = std::chrono::nanoseconds;
  using time_point = std::chrono::time_point<FakeClock, duration>;
  static inline std::uint64_t now_ns = 0;
  static inline std::uint64_t calls = 0;
  static inline std::uint64_t inter_op_ns = 0;
  static time_point now() {
    if (calls % 2 == 0) now_ns += inter_op_ns;  // gap lands BEFORE t0
    ++calls;
    return time_point(duration(static_cast<std::int64_t>(now_ns)));
  }
  static void reset(std::uint64_t gap) {
    now_ns = 0;
    calls = 0;
    inter_op_ns = gap;
  }
};

TEST(LoadgenBracketing, RecordedLatencyIsExactlyTheAccessDuration) {
  FakeClock::reset(10'000);  // huge inter-op gap: must never be recorded
  const SplitMix64 rng(42);
  constexpr std::uint64_t kOps = 400;
  // Op i takes 100 + i % 150 ns: inside the histogram's exact region, so
  // every recorded value is bit-precise.
  const auto duration = [](std::uint64_t i) { return 100 + i % 150; };
  obs::HdrHistogram hist;
  std::vector<std::uint64_t> timed;  // ops that ran between t0 and t1
  std::uint64_t all_ns = 0;
  const std::uint64_t replayed =
      gcached::detail::replay_closed_loop<FakeClock>(
          [&](std::size_t i) {
            if (FakeClock::calls % 2 == 1) timed.push_back(i);
            FakeClock::now_ns += duration(i);
            all_ns += duration(i);
          },
          /*start=*/0, /*stride=*/1, /*wrap=*/1'000, kOps, rng, hist);
  EXPECT_EQ(replayed, kOps);

  // The timed ops are exactly the schedule timed_ops recomputes.
  std::vector<std::uint64_t> schedule;
  const std::uint64_t n = gcached::detail::timed_ops(
      kOps, rng, [&schedule](std::uint64_t op) { schedule.push_back(op); });
  EXPECT_EQ(timed, schedule);
  ASSERT_EQ(n, timed.size());
  ASSERT_GT(n, 0u);

  // Each timed op recorded exactly its own access duration.
  std::vector<std::uint64_t> expected(256, 0);
  for (const std::uint64_t op : schedule) ++expected[duration(op)];
  ASSERT_EQ(hist.count(), n);
  for (std::uint64_t v = 0; v < expected.size(); ++v)
    EXPECT_EQ(hist.bucket_count(obs::HdrHistogram::bucket_index(v)),
              expected[v])
        << "value " << v;
  // The 10 us inter-op gap never leaked into any op's latency ...
  EXPECT_LT(hist.max_value(), 250.0);
  // ... even though the clock saw every gap pass, and untimed ops never
  // read the clock at all.
  EXPECT_EQ(FakeClock::calls, 2 * n);
  EXPECT_EQ(FakeClock::now_ns, n * 10'000 + all_ns);
}

TEST(LoadgenBracketing, StrideWrapsBackToTheThreadsOwnStart) {
  FakeClock::reset(0);
  const SplitMix64 rng(3);
  obs::HdrHistogram hist;
  std::vector<std::size_t> visited;
  gcached::detail::replay_closed_loop<FakeClock>(
      [&visited](std::size_t i) { visited.push_back(i); },
      /*start=*/1, /*stride=*/2, /*wrap=*/5, /*ops=*/5, rng, hist);
  EXPECT_EQ(visited, (std::vector<std::size_t>{1, 3, 1, 3, 1}));
  EXPECT_EQ(hist.count(), gcached::detail::timed_ops(5, rng));
}

/// Replays `durations` (op i takes durations[i] ns) through the closed
/// loop and checks the sampled p50/p99/p999 against the exact nearest-rank
/// over ALL ops.
///
/// The bound: the sample holds n ~ N / 16 ops (n >= 9000 for the N >= 160k
/// used here). Its empirical q-quantile sits at population rank q +- e with
/// standard deviation sqrt(q (1 - q) / n) in rank. The jittered gaps make
/// the sample positions a renewal process whose phase mod any short period
/// mixes within a few gaps, so this binomial scale applies even to
/// periodic traces. Allowing e = 5 standard deviations, the sampled value
/// must lie within the HDR's 1% of the exact values at ranks q - e and
/// q + e (clamped to [0, 1]). At n = 10k that is e = 0.025 at p50, 0.005 at
/// p99 and 0.0016 at p999. The seed is fixed, so the test is deterministic.
void expect_sampled_quantiles_within_bound(
    const std::vector<std::uint64_t>& durations, const char* what) {
  FakeClock::reset(0);
  obs::HdrHistogram hist;
  gcached::detail::replay_closed_loop<FakeClock>(
      [&durations](std::size_t i) { FakeClock::now_ns += durations[i]; },
      /*start=*/0, /*stride=*/1, /*wrap=*/durations.size(),
      /*ops=*/durations.size(), SplitMix64(7), hist);
  const double n = static_cast<double>(hist.count());
  ASSERT_GE(n, 9'000.0) << what;
  for (const double q : {0.50, 0.99, 0.999}) {
    const double e = 5.0 * std::sqrt(q * (1.0 - q) / n);
    const double lo = exact_nearest_rank(durations, std::max(0.0, q - e));
    const double hi = exact_nearest_rank(durations, std::min(1.0, q + e));
    const double got = hist.quantile(q);
    EXPECT_GE(got, lo * 0.99) << what << " q=" << q << " lo=" << lo;
    EXPECT_LE(got, hi * 1.01) << what << " q=" << q << " hi=" << hi;
  }
}

/// `base` repeated until it covers at least `ops` ops.
std::vector<std::uint64_t> repeated(const std::vector<std::uint64_t>& base,
                                    std::size_t ops) {
  std::vector<std::uint64_t> out;
  while (out.size() < ops) out.insert(out.end(), base.begin(), base.end());
  return out;
}

TEST(LoadgenBracketing, SampledQuantilesMatchEveryOpOnABlockBoundaryPattern) {
  // The GC model's scan: a miss at each B = 16 block boundary loads the
  // whole block, and the next 15 ops are sideloaded hits. A fixed stride of
  // 16 would time only the 20 us misses (p50 = 20 us) or only the hits
  // (p99 ~ 140 ns); the jittered sample sees both in proportion.
  std::vector<std::uint64_t> durations(160'000);
  for (std::uint64_t i = 0; i < durations.size(); ++i)
    durations[i] = i % 16 == 0 ? 20'000 : 100 + (i * 7) % 41;
  expect_sampled_quantiles_within_bound(durations, "block-boundary");
}

TEST(LoadgenBracketing, SampledQuantilesMatchEveryOpOnBimodalAndLogSpread) {
  expect_sampled_quantiles_within_bound(repeated(bimodal_samples(), 160'000),
                                        "bimodal");
  expect_sampled_quantiles_within_bound(
      repeated(log_spread_samples(), 160'000), "log-spread");
}

// ---- Differential anchor with monitoring attached ---------------------------

TEST(GcmonDifferential, AttachedMonitorNeverPerturbsTheRun) {
  // A live monitor harvesting on a tight interval must not change what the
  // run computes: the final harvest is the run's own statistics. One client
  // on one shard stays bit-identical to simulate_fast (the gcached anchor),
  // with or without a fill latency, since nothing can coalesce.
  Workload w = traces::zipf_items(2048, 16, 30'000, 0.9, 7);
  w.trace.precompute_block_ids(*w.map);
  const std::size_t capacity = 256;
  const SimStats expected = simulate_fast_spec("item-lru", w, capacity);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    for (const std::uint64_t fill_ns :
         {std::uint64_t{0}, std::uint64_t{5'000}}) {
      SCOPED_TRACE(std::to_string(threads) + " threads, fill " +
                   std::to_string(fill_ns) + " ns");
      gcached::GcachedConfig cfg;
      cfg.num_shards = threads;
      cfg.capacity = capacity;
      cfg.fill_latency_ns = fill_ns;
      const auto cache =
          gcached::make_concurrent_cache("item-lru", w.map, cfg);

      MonitorConfig mcfg;
      mcfg.interval = std::chrono::milliseconds(1);
      Monitor mon(mcfg);
      mon.attach_shards([&cache] { return cache->shard_counters(); });
      mon.start();
      gcached::LoadSpec spec;
      spec.threads = threads;
      spec.monitor = &mon;
      const gcached::LoadResult res =
          run_load(*cache, w.trace, w.trace.block_ids(), spec);
      mon.stop();
      if (threads == 1) {
        EXPECT_EQ(res.stats, expected);
      }

      // The lock counts are the clients' slots summed per shard, and the
      // LoadResult's the same slots summed per client: the monitor's reads
      // are uncounted, so the two sums agree.
      const Snapshot last = mon.harvest_now();
      EXPECT_EQ(last.totals.stats, cache->collect_stats());
      EXPECT_EQ(last.totals.stats, res.stats);
      EXPECT_EQ(last.totals.locks,
                (LockCounts{res.lockfree_hits, res.lock_acquisitions,
                            res.lock_contended, res.backoff_rounds}));
      EXPECT_EQ(last.totals.fills_inflight, 0u);
      EXPECT_EQ(last.latency.count, res.latency_samples);
      if (threads == 1) {
        // The closed loop timed its jittered sample, recomputed here.
        EXPECT_EQ(res.latency_samples,
                  gcached::detail::timed_ops(
                      res.ops, gcached::detail::thread_rng(spec.seed, 0)));
      }
    }
  }
}

// Per-shard consistency under load: the tsan and asan presets run this via
// the `gcmon`/`gcached` labels. The monitor reads each shard under its lock
// while 4 clients fill through the MSHR path.
TEST(GcmonDifferential, HarvestsAreConsistentPerShardUnderLoad) {
  Workload w = traces::zipf_items(8192, 16, 20'000, 0.9, 11);
  w.trace.precompute_block_ids(*w.map);
  gcached::GcachedConfig cfg;
  cfg.num_shards = 8;
  cfg.capacity = 512;
  cfg.fill_latency_ns = 20'000;
  const auto cache = gcached::make_concurrent_cache("block-lru", w.map, cfg);

  MonitorConfig mcfg;
  mcfg.interval = std::chrono::milliseconds(1);
  Monitor mon(mcfg);
  // Every harvest, as the source read it; harvests are serialized under
  // the monitor, so appending here needs no lock of its own.
  std::vector<std::vector<ShardCounters>> harvests;
  mon.attach_shards([&cache, &harvests] {
    harvests.push_back(cache->shard_counters());
    return harvests.back();
  });
  mon.start();
  gcached::LoadSpec spec;
  spec.threads = 4;
  spec.monitor = &mon;
  const gcached::LoadResult res =
      run_load(*cache, w.trace, w.trace.block_ids(), spec);
  mon.stop();

  ASSERT_GE(harvests.size(), 2u);
  for (std::size_t k = 1; k < harvests.size(); ++k) {
    ASSERT_EQ(harvests[k].size(), cfg.num_shards);
    for (std::size_t s = 0; s < cfg.num_shards; ++s) {
      const std::vector<obs::Counter> a = obs::counters(harvests[k - 1][s]);
      const std::vector<obs::Counter> b = obs::counters(harvests[k][s]);
      for (std::size_t f = 0; f < a.size(); ++f) {
        if (a[f].gauge) continue;
        EXPECT_LE(a[f].value, b[f].value)
            << a[f].key << ", harvest " << k << ", shard " << s;
      }
    }
  }

  // The final harvest is the quiesced shards' collect_stats split.
  const std::vector<ShardCounters>& last = harvests.back();
  const std::vector<ShardCounters> now = cache->shard_counters();
  ShardCounters sum;
  for (std::size_t s = 0; s < cfg.num_shards; ++s) {
    EXPECT_EQ(last[s], now[s]) << "shard " << s;
    EXPECT_EQ(last[s].fills_inflight, 0u) << "shard " << s;
    sum += last[s];
  }
  EXPECT_EQ(sum.stats, res.stats);
  EXPECT_EQ(sum.locks.holds, res.lock_acquisitions);
  EXPECT_EQ(sum.locks.trylock_failures, res.backoff_rounds);
  EXPECT_EQ(sum.stats.hits + sum.stats.misses + sum.stats.delayed_hits,
            res.ops);
}

}  // namespace
}  // namespace gcaching
