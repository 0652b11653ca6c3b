// PhraseService throughput: queries/sec and cache hit rate at 1/2/4/8
// worker threads against the serial MiningEngine::Mine baseline, on a
// synthetic workload with realistic repetition (production query streams
// are heavily skewed, which is what the result cache exploits). A final
// mixed read/update phase interleaves Ingest batches with the query
// stream to price epoch-based cache invalidation, and a hot-hit phase
// prices one result-cache hit in process CPU over every thread. Results
// are also written to BENCH_service.json so the perf trajectory is
// tracked over time.
//
// Knobs: PM_SERVICE_DOCS (corpus size, default 2000),
//        PM_SERVICE_REQUESTS (workload length, default 1200),
//        PM_SERVICE_DISTINCT (distinct queries, default 40),
//        PM_SERVICE_UPDATES (ingest batches in the mixed phase,
//                            default requests/20).

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <future>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/engine.h"
#include "eval/query_gen.h"
#include "service/cache.h"
#include "service/planner.h"
#include "service/service.h"
#include "text/synthetic.h"

namespace phrasemine::bench {
namespace {

MiningEngine BuildEngine(std::size_t num_docs) {
  SyntheticCorpusOptions options = SyntheticCorpusGenerator::ReutersLike();
  options.num_docs = num_docs;
  SyntheticCorpusGenerator generator(options);
  return MiningEngine::Build(generator.Generate());
}

/// A skewed request stream over a fixed set of distinct queries: Zipf-ish
/// repetition via squared uniform draws, mimicking head-heavy traffic.
std::vector<ServiceRequest> MakeWorkload(const std::vector<Query>& distinct,
                                         std::size_t num_requests) {
  Rng rng(2024);
  std::vector<ServiceRequest> workload;
  workload.reserve(num_requests);
  for (std::size_t i = 0; i < num_requests; ++i) {
    const double u = rng.NextDouble();
    const auto index = static_cast<std::size_t>(
        u * u * static_cast<double>(distinct.size()));
    Query q = distinct[std::min(index, distinct.size() - 1)];
    q.op = (index % 3 == 0) ? QueryOperator::kOr : QueryOperator::kAnd;
    workload.push_back(ServiceRequest{std::move(q), MineOptions{}, {}});
  }
  return workload;
}

/// One row of the warm-cache thread sweep, kept for the JSON report.
struct SweepRow {
  std::size_t threads = 0;
  double qps = 0.0;
  double speedup = 0.0;
  double hit_rate = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
};

/// Process CPU time over every thread, in microseconds.
double ProcessCpuMicros() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) / 1e3;
}

/// Documents re-materialized as strings so the mixed-phase updater never
/// reads the engine corpus concurrently with queries.
std::vector<UpdateDoc> MaterializeUpdateDocs(const MiningEngine& engine,
                                             std::size_t count) {
  std::vector<UpdateDoc> docs;
  const Corpus& corpus = engine.corpus();
  docs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    UpdateDoc doc;
    for (TermId t : corpus.doc(static_cast<DocId>(i % corpus.size())).tokens) {
      doc.tokens.push_back(corpus.vocab().TermText(t));
    }
    docs.push_back(std::move(doc));
  }
  return docs;
}

int Main() {
  PrintHeader("Service throughput: thread pool + planner + sharded caches",
              "Warm-cache service at 8 threads >= 4x serial Mine QPS; "
              "hit rate grows with thread-count reruns of the same stream");

  const std::size_t num_docs = EnvSize("PM_SERVICE_DOCS", 2000);
  const std::size_t num_requests = EnvSize("PM_SERVICE_REQUESTS", 1200);
  const std::size_t num_distinct = EnvSize("PM_SERVICE_DISTINCT", 40);

  std::printf("corpus: %zu docs, workload: %zu requests over <=%zu distinct "
              "queries\n\n",
              num_docs, num_requests, num_distinct);

  MiningEngine engine = BuildEngine(num_docs);

  QueryGenOptions gen_options;
  gen_options.num_queries = num_distinct;
  gen_options.min_term_df = 8;
  gen_options.min_pairwise_codf = 3;
  gen_options.min_and_matches = 3;
  std::vector<Query> distinct = QuerySetGenerator(gen_options).Generate(
      engine.dict(), engine.inverted(), engine.corpus().size());
  if (distinct.empty()) {
    std::printf("no usable queries harvested; corpus too small\n");
    return 1;
  }
  std::printf("harvested %zu distinct queries\n", distinct.size());
  std::vector<ServiceRequest> workload =
      MakeWorkload(distinct, num_requests);

  // --- Serial baseline: planner-chosen algorithm, no caches ---------------
  // A separate engine so the service's lazily shared state cannot help it.
  MiningEngine serial_engine = BuildEngine(num_docs);
  // Pre-plan outside the timed region (the service amortizes planning the
  // same way through its result cache).
  std::vector<std::pair<Query, Algorithm>> serial_plan;
  serial_plan.reserve(workload.size());
  for (const ServiceRequest& request : workload) {
    const Query canonical = CanonicalizeQuery(request.query);
    const PlannerInputs inputs = CostPlanner::GatherInputs(
        serial_engine, canonical, request.options,
        serial_engine.delta_snapshot());
    serial_plan.emplace_back(
        canonical, CostPlanner::PlanFromInputs(inputs, PlannerOptions{})
                       .algorithm);
  }
  StopWatch serial_watch;
  for (const auto& [query, algorithm] : serial_plan) {
    MineResult result = serial_engine.Mine(query, algorithm);
    (void)result;
  }
  const double serial_ms = serial_watch.ElapsedMillis();
  const double serial_qps =
      1000.0 * static_cast<double>(workload.size()) / serial_ms;
  std::printf("\nserial MiningEngine::Mine: %7.1f ms total, %9.0f q/s\n\n",
              serial_ms, serial_qps);

  // --- Service at increasing thread counts --------------------------------
  std::printf("%8s %10s %10s %9s %9s %9s\n", "threads", "total_ms", "q/s",
              "speedup", "hit_rate", "p95_ms");
  double speedup_at_8 = 0.0;
  std::vector<SweepRow> sweep;
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    PhraseServiceOptions options;
    options.pool.num_threads = threads;
    options.pool.queue_capacity = 512;
    PhraseService service(&engine, options);

    // Warm both caches: one untimed pass over the distinct queries in both
    // operator modes (the acceptance criterion measures warm serving).
    for (const ServiceRequest& request : workload) {
      (void)service.MineSync(request);
    }
    const CacheStats warm = service.stats().result_cache;

    StopWatch watch;
    std::vector<std::future<ServiceReply>> futures;
    futures.reserve(workload.size());
    for (const ServiceRequest& request : workload) {
      futures.push_back(service.Submit(request));
    }
    for (auto& future : futures) (void)future.get();
    const double ms = watch.ElapsedMillis();
    const double qps = 1000.0 * static_cast<double>(workload.size()) / ms;
    const ServiceStats stats = service.stats();
    // Hit rate of the timed pass only.
    const uint64_t timed_hits = stats.result_cache.hits - warm.hits;
    const uint64_t timed_lookups = (stats.result_cache.hits +
                                    stats.result_cache.misses) -
                                   (warm.hits + warm.misses);
    const double hit_rate =
        timed_lookups == 0
            ? 0.0
            : static_cast<double>(timed_hits) /
                  static_cast<double>(timed_lookups);
    const double speedup = qps / serial_qps;
    if (threads == 8) speedup_at_8 = speedup;
    sweep.push_back(SweepRow{threads, qps, speedup, hit_rate,
                             stats.p50_latency_ms, stats.p95_latency_ms,
                             stats.p99_latency_ms, stats.p999_latency_ms});
    std::printf("%8zu %10.1f %10.0f %8.1fx %8.1f%% %9.3f\n", threads, ms,
                qps, speedup, 100.0 * hit_rate, stats.p95_latency_ms);
  }

  // --- Mixed read/update workload (8 threads) ------------------------------
  // An updater thread ingests document batches while the full query stream
  // is in flight: every ingest moves the epoch, so the result cache keeps
  // re-missing -- this prices epoch-based invalidation under churn.
  const std::size_t num_updates = EnvSize(
      "PM_SERVICE_UPDATES", std::max<std::size_t>(10, num_requests / 20));
  SweepRow mixed;
  uint64_t mixed_epoch = 0;
  {
    PhraseServiceOptions options;
    options.pool.num_threads = 8;
    options.pool.queue_capacity = 512;
    PhraseService service(&engine, options);
    for (const ServiceRequest& request : workload) {
      (void)service.MineSync(request);  // warm lists + epoch-0 results
    }
    const CacheStats warm = service.stats().result_cache;
    const std::vector<UpdateDoc> update_docs =
        MaterializeUpdateDocs(engine, num_updates);

    StopWatch watch;
    std::thread updater([&] {
      for (std::size_t i = 0; i < num_updates; ++i) {
        UpdateBatch batch;
        batch.inserts.push_back(update_docs[i]);
        (void)service.IngestBatch(batch);
        std::this_thread::yield();
      }
    });
    std::vector<std::future<ServiceReply>> futures;
    futures.reserve(workload.size());
    for (const ServiceRequest& request : workload) {
      futures.push_back(service.Submit(request));
    }
    // Per-reply execution latencies of the timed pass only -- the
    // service's own histogram is cumulative and would mix in the warm-up
    // replay's samples.
    std::vector<double> latencies;
    latencies.reserve(futures.size());
    for (auto& future : futures) {
      latencies.push_back(future.get().latency_ms);
    }
    updater.join();
    const double ms = watch.ElapsedMillis();
    const ServiceStats stats = service.stats();
    std::sort(latencies.begin(), latencies.end());
    mixed.threads = 8;
    mixed.qps = 1000.0 * static_cast<double>(workload.size()) / ms;
    mixed.speedup = mixed.qps / serial_qps;
    // Hit rate of the timed (churning) pass only -- the warm-up replay
    // would otherwise mask the epoch-invalidation cost this phase prices.
    const uint64_t timed_hits = stats.result_cache.hits - warm.hits;
    const uint64_t timed_lookups =
        (stats.result_cache.hits + stats.result_cache.misses) -
        (warm.hits + warm.misses);
    mixed.hit_rate = timed_lookups == 0
                         ? 0.0
                         : static_cast<double>(timed_hits) /
                               static_cast<double>(timed_lookups);
    auto tail = [&](std::size_t permille) {
      return latencies.empty()
                 ? 0.0
                 : latencies[std::min(latencies.size() - 1,
                                      latencies.size() * permille / 1000)];
    };
    mixed.p50_ms = latencies.empty() ? 0.0 : latencies[latencies.size() / 2];
    mixed.p95_ms = tail(950);
    mixed.p99_ms = tail(990);
    mixed.p999_ms = tail(999);
    mixed_epoch = stats.epoch;
    std::printf("\nmixed read/update at 8 threads: %.0f q/s (%.1fx serial) "
                "with %zu ingests, final epoch %llu, hit_rate %.1f%%\n",
                mixed.qps, mixed.speedup, num_updates,
                static_cast<unsigned long long>(mixed_epoch),
                100.0 * mixed.hit_rate);
  }

  // --- Hot hits: process CPU per result-cache hit ---------------------------
  // Every timed request is a result-cache hit, three in flight from one
  // submitting thread over a 4-worker pool. The CPU is the whole
  // process's, the submitting thread included, so work moved between the
  // pool and the submitter cannot hide. Reported: the median of five
  // rounds (informational, ungated).
  double hit_cpu_us = 0.0;
  {
    PhraseServiceOptions options;
    options.pool.num_threads = 4;
    PhraseService service(&engine, options);
    for (const ServiceRequest& request : workload) {
      (void)service.MineSync(request);  // every distinct query now cached
    }
    constexpr std::size_t kInFlight = 3;
    constexpr std::size_t kRounds = 5;
    const std::size_t per_round = std::max<std::size_t>(workload.size(), 20000);
    std::vector<double> rounds;
    std::size_t misses = 0;
    for (std::size_t round = 0; round < kRounds; ++round) {
      std::deque<std::future<ServiceReply>> inflight;
      auto settle = [&] {
        if (!inflight.front().get().result_cache_hit) ++misses;
        inflight.pop_front();
      };
      const double start = ProcessCpuMicros();
      for (std::size_t i = 0; i < per_round; ++i) {
        if (inflight.size() >= kInFlight) settle();
        inflight.push_back(service.Submit(workload[i % workload.size()]));
      }
      while (!inflight.empty()) settle();
      rounds.push_back((ProcessCpuMicros() - start) /
                       static_cast<double>(per_round));
    }
    std::sort(rounds.begin(), rounds.end());
    hit_cpu_us = rounds[rounds.size() / 2];
    std::printf("\nhot hits: %.2f us process CPU per hit (median of %zu "
                "rounds of %zu, %zu in flight, %zu misses)\n",
                hit_cpu_us, kRounds, per_round, kInFlight, misses);
  }

  // --- Overload: open-loop at 2x capacity, admission control on -------------
  // Arrivals are paced at twice the service's measured capacity with the
  // result cache off, so the queue would grow without bound if nothing
  // shed. The admission gate (bounded depth + hopeless-deadline check)
  // must keep the *admitted* tail flat and convert the excess into typed
  // ResourceExhausted/DeadlineExceeded refusals instead of unbounded
  // queueing delay. Reported: shed rate and p99 of admitted queries.
  struct OverloadRow {
    std::size_t requests = 0;
    double capacity_qps = 0.0;
    double offered_qps = 0.0;
    double shed_rate = 0.0;
    double deadline_rate = 0.0;
    double p99_admitted_ms = 0.0;
    std::size_t ok = 0;
    std::size_t shed = 0;
    std::size_t deadline_exceeded = 0;
  } overload;
  {
    PhraseServiceOptions options;
    options.pool.num_threads = 2;
    options.pool.queue_capacity = 64;
    options.enable_result_cache = false;  // every admitted query executes
    options.admission.max_queue_depth = 16;
    PhraseService service(&engine, options);

    // Capacity probe: closed-loop sequential, the sustainable q/s of this
    // configuration (and, inverted, its mean execution time).
    const std::size_t probe_n = std::min<std::size_t>(workload.size(), 100);
    StopWatch probe;
    for (std::size_t i = 0; i < probe_n; ++i) {
      (void)service.MineSync(workload[i]);
    }
    overload.capacity_qps =
        1000.0 * static_cast<double>(probe_n) / probe.ElapsedMillis();

    overload.requests = std::min<std::size_t>(workload.size(), 400);
    overload.offered_qps = 2.0 * overload.capacity_qps;
    const double mean_exec_ms = 1000.0 / overload.capacity_qps;
    // Deadline with headroom over one execution but not over a growing
    // queue: an admitted query that waits behind ~a full admission window
    // blows it, which is exactly what the gate is there to prevent.
    const double deadline_ms = std::max(10.0, 20.0 * mean_exec_ms);
    const auto interarrival =
        std::chrono::duration<double, std::micro>(1e6 / overload.offered_qps);

    // Bursty arrivals (the workload generator's burst model, compressed):
    // each burst lands back-to-back, then the loop sleeps to hold the 2x
    // *average* rate. Per-request sleeps would let scheduler overshoot
    // quietly pace the offered load back down to capacity; bursts keep
    // the instantaneous depth honest, which is what the gate bounds.
    constexpr std::size_t kBurst = 32;
    std::vector<std::future<ServiceReply>> futures;
    futures.reserve(overload.requests);
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < overload.requests; ++i) {
      ServiceRequest request = workload[i];
      request.deadline_ms = deadline_ms;
      futures.push_back(service.Submit(std::move(request)));
      if ((i + 1) % kBurst == 0) {
        std::this_thread::sleep_until(
            start +
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                interarrival * static_cast<double>(i + 1)));
      }
    }
    std::vector<double> admitted_ms;
    admitted_ms.reserve(futures.size());
    for (auto& future : futures) {
      const ServiceReply reply = future.get();
      if (reply.status.ok()) {
        ++overload.ok;
        admitted_ms.push_back(reply.latency_ms);
      } else if (reply.status.code() == StatusCode::kDeadlineExceeded) {
        ++overload.deadline_exceeded;
      } else {
        ++overload.shed;  // admission / queue-bound refusals
      }
    }
    const auto total = static_cast<double>(overload.requests);
    overload.shed_rate = static_cast<double>(overload.shed) / total;
    overload.deadline_rate =
        static_cast<double>(overload.deadline_exceeded) / total;
    std::sort(admitted_ms.begin(), admitted_ms.end());
    overload.p99_admitted_ms =
        admitted_ms.empty()
            ? 0.0
            : admitted_ms[std::min(admitted_ms.size() - 1,
                                   admitted_ms.size() * 990 / 1000)];
    std::printf("\noverload at 2x capacity (%.0f q/s offered, cache off, "
                "admission depth 16, deadline %.1fms):\n"
                "  %zu requests: %zu ok, %zu shed (%.1f%%), %zu deadline-"
                "exceeded (%.1f%%), p99 of admitted %.3fms\n",
                overload.offered_qps, deadline_ms, overload.requests,
                overload.ok, overload.shed, 100.0 * overload.shed_rate,
                overload.deadline_exceeded, 100.0 * overload.deadline_rate,
                overload.p99_admitted_ms);
  }

  // --- JSON report ----------------------------------------------------------
  if (std::FILE* json = std::fopen("BENCH_service.json", "w")) {
    std::fprintf(json, "{\n  \"serial_qps\": %.1f,\n  \"warm_sweep\": [",
                 serial_qps);
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      const SweepRow& row = sweep[i];
      std::fprintf(json,
                   "%s\n    {\"threads\": %zu, \"qps\": %.1f, \"speedup\": "
                   "%.2f, \"hit_rate\": %.4f, \"p50_ms\": %.4f, \"p95_ms\": "
                   "%.4f, \"p99_ms\": %.4f, \"p999_ms\": %.4f}",
                   i == 0 ? "" : ",", row.threads, row.qps, row.speedup,
                   row.hit_rate, row.p50_ms, row.p95_ms, row.p99_ms,
                   row.p999_ms);
    }
    std::fprintf(json,
                 "\n  ],\n  \"mixed\": {\"threads\": %zu, \"qps\": %.1f, "
                 "\"speedup\": %.2f, \"hit_rate\": %.4f, \"p50_ms\": %.4f, "
                 "\"p95_ms\": %.4f, \"p99_ms\": %.4f, \"p999_ms\": %.4f, "
                 "\"updates\": %zu, \"final_epoch\": "
                 "%llu},\n",
                 mixed.threads, mixed.qps, mixed.speedup, mixed.hit_rate,
                 mixed.p50_ms, mixed.p95_ms, mixed.p99_ms, mixed.p999_ms,
                 num_updates,
                 static_cast<unsigned long long>(mixed_epoch));
    std::fprintf(json, "  \"hit_cpu_us\": %.3f,\n", hit_cpu_us);
    std::fprintf(json,
                 "  \"overload\": {\"requests\": %zu, \"capacity_qps\": "
                 "%.1f, \"offered_qps\": %.1f, \"ok\": %zu, \"shed\": %zu, "
                 "\"deadline_exceeded\": %zu, \"shed_rate\": %.4f, "
                 "\"deadline_rate\": %.4f, \"p99_admitted_ms\": %.4f},\n",
                 overload.requests, overload.capacity_qps,
                 overload.offered_qps, overload.ok, overload.shed,
                 overload.deadline_exceeded, overload.shed_rate,
                 overload.deadline_rate, overload.p99_admitted_ms);
    std::fprintf(json,
                 "  \"speedup_at_8\": %.2f,\n  \"meets_target\": %s\n}\n",
                 speedup_at_8, speedup_at_8 >= 4.0 ? "true" : "false");
    std::fclose(json);
    std::printf("wrote BENCH_service.json\n");
  }

  std::printf("\nspeedup at 8 threads (warm cache): %.1fx %s\n", speedup_at_8,
              speedup_at_8 >= 4.0 ? "(meets >=4x target)"
                                  : "(BELOW 4x target)");
  return speedup_at_8 >= 4.0 ? 0 : 2;
}

}  // namespace
}  // namespace phrasemine::bench

int main() { return phrasemine::bench::Main(); }
