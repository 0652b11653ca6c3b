// Demonstrates the observability surface end to end: a disk-backed sharded
// service answers one cold and one warm traced query, prints each explain
// tree (plan -> cache lookup -> scatter/fill/gather/materialize,
// with per-shard disk reads), dumps the slow-query log, and finishes with
// the full Prometheus text exposition of the service's metric registry.
//
// Run from the build directory: ./example_trace_explain
#include <cstdio>
#include <string>
#include <utility>

#include "service/cache.h"
#include "service/service.h"
#include "shard/sharded_engine.h"
#include "text/synthetic.h"

namespace {

phrasemine::Corpus MakeCorpus() {
  phrasemine::SyntheticCorpusOptions options;
  options.seed = 1234;
  options.num_docs = 400;
  options.num_topics = 6;
  options.topic_vocab = 120;
  options.shared_vocab = 400;
  options.num_stopwords = 30;
  options.phrases_per_topic = 20;
  options.min_doc_tokens = 40;
  options.max_doc_tokens = 120;
  phrasemine::SyntheticCorpusGenerator generator(options);
  return generator.Generate();
}

void Show(const char* heading, const phrasemine::ServiceReply& reply) {
  std::printf("== %s (%s, %.3f ms)\n", heading,
              reply.result_cache_hit ? "result-cache hit" : "executed",
              reply.latency_ms);
  if (reply.trace != nullptr) {
    std::fputs(reply.trace->Explain().c_str(), stdout);
  }
  std::printf("\n");
}

}  // namespace

int main() {
  using namespace phrasemine;

  // Disk-backed fleet: a zero block budget spills every shard list, so the
  // NRA-disk trace below shows real (simulated) block reads and seeks.
  ShardedEngineOptions engine_options;
  engine_options.num_shards = 3;
  engine_options.engine.extractor.min_df = 2;
  engine_options.disk_backed = true;
  ShardedEngine sharded = ShardedEngine::Build(MakeCorpus(),
                                               std::move(engine_options));

  PhraseServiceOptions service_options;
  service_options.pool.num_threads = 2;
  service_options.slow_query_ms = 0.001;  // log everything, for the demo
  PhraseService service(&sharded, service_options);

  ServiceRequest request;
  request.query = sharded.ParseQuery("topic:0 topic:1",
                                     QueryOperator::kOr).value();
  request.options.k = 10;
  request.options.trace = true;
  request.algorithm = Algorithm::kNraDisk;

  // Cold: plans, scatters across the shards, reads the disk tier.
  Show("cold traced query", service.MineSync(request));

  // Warm: identical request, served from the result cache -- the trace
  // collapses to plan + cache lookup.
  Show("warm traced query", service.MineSync(request));

  std::printf("== slow-query log (threshold %.3f ms)\n",
              service.options().slow_query_ms);
  for (const PhraseService::SlowQueryEntry& entry : service.slow_queries()) {
    std::printf("%.3f ms  %s\n", entry.latency_ms, entry.description.c_str());
  }
  std::printf("\n== metrics exposition\n");
  std::fputs(service.metrics_snapshot().ToPrometheusText().c_str(), stdout);
  return 0;
}
