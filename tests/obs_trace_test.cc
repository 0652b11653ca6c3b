#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "obs/trace.h"
#include "service/cache.h"
#include "service/service.h"
#include "shard/sharded_engine.h"
#include "test_util.h"

// Global allocation counter for the tracing-off overhead test below: the
// observability contract is that an untraced request performs ZERO trace
// allocations, and counting every operator new is the only way to see one
// sneak in. The counter is relaxed -- the test reads it single-threaded
// with the pool idle.
namespace {
std::atomic<std::size_t> g_alloc_count{0};

void* CountingAlloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return CountingAlloc(size); }
void* operator new[](std::size_t size) { return CountingAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace phrasemine {
namespace {

using testing::MakeSmallSyntheticCorpus;
using testing::MakeTinyEngine;

const TraceSpan* Child(const TraceSpan& span, const std::string& name) {
  for (const auto& child : span.children) {
    if (child->name == name) return child.get();
  }
  return nullptr;
}

double CounterValue(const TraceSpan& span, const std::string& name) {
  for (const auto& [counter, value] : span.counters) {
    if (counter == name) return value;
  }
  return 0.0;
}

TEST(ObsTraceTest, HelpersAreNullSafe) {
  EXPECT_EQ(AddSpan(nullptr, "child"), nullptr);
  AddCounter(nullptr, "n", 1.0);  // must not crash
  SetDetail(nullptr, "detail");
  TraceSpan root;
  TraceSpan* child = AddSpan(&root, "child");
  ASSERT_NE(child, nullptr);
  EXPECT_EQ(root.children.size(), 1u);
  EXPECT_EQ(root.children[0].get(), child);
}

TEST(ObsTraceTest, ExplainGolden) {
  TraceSpan root;
  root.name = "query";
  root.wall_ms = 1.5;
  TraceSpan* plan = AddSpan(&root, "plan");
  plan->wall_ms = 0.25;
  SetDetail(plan, "cost: NRA");
  TraceSpan* mine = AddSpan(&root, "mine");
  mine->wall_ms = 1.0;
  AddCounter(mine, "shards", 3);
  AddCounter(mine, "frac", 0.5);
  TraceSpan* shard = AddSpan(mine, "shard 0");
  shard->wall_ms = 0.5;
  AddCounter(shard, "entries_read", 10);

  EXPECT_EQ(root.Explain(),
            "query  1.500 ms\n"
            "|- plan  0.250 ms  cost: NRA\n"
            "`- mine  1.000 ms  [shards=3 frac=0.500]\n"
            "   `- shard 0  0.500 ms  [entries_read=10]\n");
  EXPECT_EQ(root.ToJson(),
            "{\"name\": \"query\", \"wall_ms\": 1.5000, \"children\": "
            "[{\"name\": \"plan\", \"wall_ms\": 0.2500, "
            "\"detail\": \"cost: NRA\"}, "
            "{\"name\": \"mine\", \"wall_ms\": 1.0000, "
            "\"counters\": {\"shards\": 3, \"frac\": 0.500}, \"children\": "
            "[{\"name\": \"shard 0\", \"wall_ms\": 0.5000, "
            "\"counters\": {\"entries_read\": 10}}]}]}\n");
}

TEST(ObsTraceTest, SingleEngineTraceCarriesMinePhases) {
  MiningEngine engine = MakeTinyEngine();
  PhraseServiceOptions options;
  options.pool.num_threads = 1;
  PhraseService service(&engine, options);

  ServiceRequest request;
  request.query =
      engine.ParseQuery("query optimization", QueryOperator::kAnd).value();
  request.options.trace = true;
  request.algorithm = Algorithm::kNra;
  const ServiceReply reply = service.MineSync(request);

  ASSERT_NE(reply.trace, nullptr);
  EXPECT_EQ(reply.trace->name, "query");
  // The mine's trace was re-rooted under the request span and stripped
  // from the (cacheable) result.
  EXPECT_EQ(reply.result.trace, nullptr);
  const TraceSpan* plan = Child(*reply.trace, "plan");
  ASSERT_NE(plan, nullptr);
  EXPECT_FALSE(plan->detail.empty());
  const TraceSpan* cache = Child(*reply.trace, "cache_lookup");
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(CounterValue(*cache, "hit"), 0.0);
  const TraceSpan* mine = Child(*reply.trace, "mine:nra");
  ASSERT_NE(mine, nullptr);
  const TraceSpan* traversal = Child(*mine, "traversal");
  ASSERT_NE(traversal, nullptr);
  EXPECT_GT(CounterValue(*traversal, "entries_read"), 0.0);
  EXPECT_NE(Child(*mine, "extract_topk"), nullptr);
}

TEST(ObsTraceTest, ShardedDiskTraceStructureAndFleetDeltasAgree) {
  ShardedEngineOptions engine_options;
  engine_options.num_shards = 3;
  engine_options.engine.extractor.min_df = 2;
  engine_options.disk_backed = true;
  ShardedEngine sharded = ShardedEngine::Build(MakeSmallSyntheticCorpus(300),
                                               std::move(engine_options));
  PhraseServiceOptions options;
  options.pool.num_threads = 2;
  PhraseService service(&sharded, options);

  ServiceRequest request;
  request.query = sharded.ParseQuery("topic:0 topic:1",
                                     QueryOperator::kOr).value();
  request.options.trace = true;
  request.algorithm = Algorithm::kNraDisk;

  const MetricsSnapshot before = service.metrics_snapshot();
  const ServiceReply cold = service.MineSync(request);
  const MetricsSnapshot after = service.metrics_snapshot();

  ASSERT_NE(cold.trace, nullptr);
  EXPECT_EQ(cold.trace->name, "query");
  const TraceSpan* mine = Child(*cold.trace, "mine:sharded");
  ASSERT_NE(mine, nullptr);
  EXPECT_FALSE(mine->detail.empty());
  EXPECT_EQ(CounterValue(*mine, "shards"), 3.0);
  for (const char* phase : {"fill", "gather", "materialize"}) {
    EXPECT_NE(Child(*mine, phase), nullptr) << phase;
  }

  // Every shard's scatter leg is its own span; the traced per-shard disk
  // reads must sum to the merged result's device charge AND to the fleet
  // counters' delta -- three views of one execution.
  const TraceSpan* scatter = Child(*mine, "scatter");
  ASSERT_NE(scatter, nullptr);
  ASSERT_EQ(scatter->children.size(), 3u);
  double traced_blocks = 0.0;
  double traced_entries = 0.0;
  for (std::size_t s = 0; s < scatter->children.size(); ++s) {
    const TraceSpan& leg = *scatter->children[s];
    EXPECT_EQ(leg.name, "shard " + std::to_string(s));
    traced_blocks += CounterValue(leg, "disk_blocks");
    traced_entries += CounterValue(leg, "entries_read");
  }
  EXPECT_GT(traced_blocks, 0.0);
  EXPECT_GT(traced_entries, 0.0);
  EXPECT_EQ(traced_blocks,
            static_cast<double>(cold.result.disk_io.blocks_read));
  EXPECT_EQ(traced_blocks,
            static_cast<double>(after.counter("disk_blocks_total") -
                                before.counter("disk_blocks_total")));
  uint64_t per_shard_blocks = 0;
  for (std::size_t s = 0; s < 3; ++s) {
    const std::string name =
        "shard_disk_blocks_total{shard=\"" + std::to_string(s) + "\"}";
    per_shard_blocks += after.counter(name) - before.counter(name);
  }
  EXPECT_EQ(static_cast<double>(per_shard_blocks), traced_blocks);
  EXPECT_EQ(after.counter("service_queries_total") -
                before.counter("service_queries_total"),
            1u);

  // Warm repeat: the trace collapses to plan + cache lookup.
  const ServiceReply warm = service.MineSync(request);
  ASSERT_NE(warm.trace, nullptr);
  ASSERT_TRUE(warm.result_cache_hit);
  EXPECT_EQ(warm.trace->children.size(), 2u);
  const TraceSpan* cache = Child(*warm.trace, "cache_lookup");
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(CounterValue(*cache, "hit"), 1.0);
  EXPECT_EQ(Child(*warm.trace, "mine:sharded"), nullptr);
}

TEST(ObsTraceTest, TracingOffAddsNoAllocationsOnTheWarmPath) {
  MiningEngine engine = MakeTinyEngine();
  PhraseServiceOptions options;
  options.pool.num_threads = 1;
  PhraseService service(&engine, options);

  ServiceRequest request;
  request.query =
      engine.ParseQuery("query optimization", QueryOperator::kAnd).value();
  request.algorithm = Algorithm::kExact;

  // Warm the result cache, the word-list structures and every lazy
  // thread_local so the measured runs are identical cache hits.
  ASSERT_FALSE(service.MineSync(request).result_cache_hit);
  ASSERT_TRUE(service.MineSync(request).result_cache_hit);

  const auto measure = [&](bool trace) {
    request.options.trace = trace;
    const std::size_t start = g_alloc_count.load(std::memory_order_relaxed);
    const ServiceReply reply = service.MineSync(request);
    const std::size_t used =
        g_alloc_count.load(std::memory_order_relaxed) - start;
    EXPECT_TRUE(reply.result_cache_hit);
    EXPECT_EQ(reply.trace != nullptr, trace);
    return used;
  };

  // A warm untraced hit allocates the same (small) amount every time --
  // the trace machinery contributes exactly nothing when off -- while
  // turning tracing on must be the only thing that costs more.
  const std::size_t off_first = measure(false);
  const std::size_t off_second = measure(false);
  const std::size_t on = measure(true);
  EXPECT_EQ(off_first, off_second);
  EXPECT_GT(on, off_first);
}

}  // namespace
}  // namespace phrasemine
