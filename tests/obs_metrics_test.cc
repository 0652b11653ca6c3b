#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace phrasemine {
namespace {

TEST(ObsMetricsTest, CounterSumsStripes) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("c_total");
  c->Increment();
  c->Add(41);
  EXPECT_EQ(c->Value(), 42u);
  EXPECT_EQ(registry.Snapshot().counter("c_total"), 42u);
  EXPECT_EQ(registry.Snapshot().counter("missing"), 0u);
}

TEST(ObsMetricsTest, GaugeTracksLevelAndHighWater) {
  MetricsRegistry registry;
  Gauge* g = registry.GetGauge("depth");
  EXPECT_EQ(g->Add(3), 3);
  EXPECT_EQ(g->Add(-2), 1);
  EXPECT_EQ(g->Value(), 1);
  EXPECT_EQ(g->Max(), 3);
  g->Set(-5);
  EXPECT_EQ(g->Value(), -5);
  EXPECT_EQ(g->Max(), 3);  // peak survives the drop
  EXPECT_EQ(registry.Snapshot().gauge("depth"), -5);
}

TEST(ObsMetricsTest, RegistryHandlesAreStableAndFindOrCreate) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("same_total");
  for (int i = 0; i < 100; ++i) registry.GetCounter("filler_" + std::to_string(i));
  EXPECT_EQ(registry.GetCounter("same_total"), a);
  EXPECT_NE(registry.GetCounter("other_total"), a);
}

TEST(ObsMetricsTest, HistogramBucketBoundsCoverTheLogScale) {
  // Small values are exact; above that each bucket's inclusive upper
  // bound must actually contain every value mapping to the bucket and
  // the bounds must be strictly increasing (cumulative `le` samples
  // depend on it).
  for (uint64_t v : {1u, 2u, 3u}) {
    EXPECT_EQ(Histogram::BucketIndex(v), v - 1);
    EXPECT_EQ(Histogram::BucketUpperBound(v - 1), v);
  }
  uint64_t prev = 0;
  for (std::size_t i = 0; i + 1 < Histogram::kBuckets; ++i) {
    const uint64_t ub = Histogram::BucketUpperBound(i);
    EXPECT_GT(ub, prev) << "bucket " << i;
    EXPECT_EQ(Histogram::BucketIndex(ub), i) << "bucket " << i;
    EXPECT_EQ(Histogram::BucketIndex(ub + 1), i + 1) << "bucket " << i;
    prev = ub;
  }
  EXPECT_EQ(Histogram::BucketUpperBound(Histogram::kBuckets - 1), UINT64_MAX);
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);  // clamps into the first bucket
  EXPECT_EQ(Histogram::BucketIndex(UINT64_MAX), Histogram::kBuckets - 1);
}

TEST(ObsMetricsTest, HistogramQuantilesLandInTheRecordedOctave) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("lat_us");
  for (int i = 0; i < 90; ++i) h->Record(100);
  for (int i = 0; i < 10; ++i) h->Record(10000);
  // Keep the snapshot alive: histogram() points into it.
  const MetricsSnapshot metrics = registry.Snapshot();
  const HistogramSnapshot* snap = metrics.histogram("lat_us");
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->count, 100u);
  EXPECT_EQ(snap->sum, 90u * 100 + 10u * 10000);
  // Log-scale buckets are ~19% wide, so quantiles are approximate: the
  // median must sit in 100's bucket, the p99 in 10000's.
  EXPECT_GE(snap->Quantile(0.50), 90.0);
  EXPECT_LE(snap->Quantile(0.50), 130.0);
  EXPECT_GE(snap->Quantile(0.99), 8000.0);
  EXPECT_LE(snap->Quantile(0.99), 13000.0);
  EXPECT_EQ(HistogramSnapshot{}.Quantile(0.5), 0.0);
}

TEST(ObsMetricsTest, PrometheusTextGolden) {
  MetricsRegistry registry;
  registry.GetCounter("service_queries_total")->Add(7);
  registry.GetCounter("pool_rejected_total");
  registry.GetGauge("pool_queue_depth")->Set(2);
  Histogram* h = registry.GetHistogram("service_latency_us");
  h->Record(1);
  h->Record(3);
  h->Record(3);

  const std::string text = registry.Snapshot().ToPrometheusText();
  EXPECT_EQ(text,
            "# TYPE pool_rejected_total counter\n"
            "pool_rejected_total 0\n"
            "# TYPE service_queries_total counter\n"
            "service_queries_total 7\n"
            "# TYPE pool_queue_depth gauge\n"
            "pool_queue_depth 2\n"
            "# TYPE service_latency_us histogram\n"
            "service_latency_us_bucket{le=\"1\"} 1\n"
            "service_latency_us_bucket{le=\"3\"} 3\n"
            "service_latency_us_bucket{le=\"+Inf\"} 3\n"
            "service_latency_us_sum 7\n"
            "service_latency_us_count 3\n");
}

TEST(ObsMetricsTest, LabeledNamesKeepSuffixesBeforeLabels) {
  // The registry treats `{label="v"}` as part of the name; the exposition
  // must splice histogram/bucket suffixes before the label block and the
  // TYPE line must carry the bare name.
  MetricsRegistry registry;
  registry.GetCounter("exec_total{algorithm=\"nra\"}")->Add(4);
  Histogram* h = registry.GetHistogram("lat_us{shard=\"0\"}");
  h->Record(2);

  const std::string text = registry.Snapshot().ToPrometheusText();
  EXPECT_NE(text.find("# TYPE exec_total counter\n"
                      "exec_total{algorithm=\"nra\"} 4\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE lat_us histogram\n"), std::string::npos) << text;
  EXPECT_NE(text.find("lat_us_bucket{le=\"2\",shard=\"0\"} 1\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("lat_us_sum{shard=\"0\"} 2\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("lat_us_count{shard=\"0\"} 1\n"), std::string::npos)
      << text;
}

TEST(ObsMetricsTest, JsonMatchesTextExposition) {
  MetricsRegistry registry;
  registry.GetCounter("a_total")->Add(3);
  registry.GetGauge("b")->Set(-4);
  Histogram* h = registry.GetHistogram("c_us");
  h->Record(5);
  h->Record(9);

  EXPECT_EQ(registry.Snapshot().ToJson(),
            "{\n"
            "  \"counters\": {\n"
            "    \"a_total\": 3\n"
            "  },\n"
            "  \"gauges\": {\n"
            "    \"b\": -4\n"
            "  },\n"
            "  \"histograms\": {\n"
            "    \"c_us\": {\"count\": 2, \"sum\": 14, "
            "\"buckets\": [[5, 1], [9, 2]]}\n"
            "  }\n"
            "}\n");
}

// Thread-safety hammer: writers on every metric kind race a snapshotting
// reader. Run under TSan in CI (the sanitize-tsan job's scoped test list
// includes this binary); the final totals are exact once writers join.
TEST(ObsMetricsTest, ConcurrentWritersAndSnapshotsAgree) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("hammer_total");
  Gauge* g = registry.GetGauge("hammer_depth");
  Histogram* h = registry.GetHistogram("hammer_us");

  constexpr int kThreads = 8;
  constexpr int kIters = 20000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads + 1);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        c->Increment();
        g->Add(1);
        g->Add(-1);
        h->Record(static_cast<uint64_t>(t * kIters + i + 1));
        // Late-created metrics race the snapshotter's map walk too.
        if (i == kIters / 2) {
          registry.GetCounter("late_total{t=\"" + std::to_string(t) + "\"}")
              ->Increment();
        }
      }
    });
  }
  workers.emplace_back([&] {
    for (int i = 0; i < 50; ++i) {
      const MetricsSnapshot snap = registry.Snapshot();
      EXPECT_LE(snap.counter("hammer_total"),
                static_cast<uint64_t>(kThreads) * kIters);
      (void)snap.ToPrometheusText();
    }
  });
  for (std::thread& w : workers) w.join();

  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counter("hammer_total"),
            static_cast<uint64_t>(kThreads) * kIters);
  EXPECT_EQ(snap.gauge("hammer_depth"), 0);
  EXPECT_LE(registry.GetGauge("hammer_depth")->Max(), kThreads);
  const HistogramSnapshot* hs = snap.histogram("hammer_us");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->count, static_cast<uint64_t>(kThreads) * kIters);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(snap.counter("late_total{t=\"" + std::to_string(t) + "\"}"), 1u);
  }
}

}  // namespace
}  // namespace phrasemine
