// Reproduces Table 5: word-list index sizes at 10/20/50% partial lists with
// the NDCG achieved at each size, per dataset. Sizes are reported two
// ways: measured over the query workload's lists at the paper's packed 12
// bytes/entry -- which is also what the lists occupy in memory, where
// they are held as packed SoA arrays -- and extrapolated to the whole
// vocabulary at that rate exactly as Section 5.7 does (avg list size x
// vocabulary size).

#include <cstdio>

#include "bench_common.h"

using namespace phrasemine;
using namespace phrasemine::bench;

namespace {

std::string Human(double bytes) {
  char buf[64];
  if (bytes >= 1e9) {
    std::snprintf(buf, sizeof(buf), "%.1f GB", bytes / 1e9);
  } else if (bytes >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.1f MB", bytes / 1e6);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f KB", bytes / 1e3);
  }
  return buf;
}

void RunDataset(BenchContext& ctx) {
  const WordScoreLists& lists = ctx.engine.word_lists();
  const double avg_list_bytes =
      lists.num_terms() == 0
          ? 0.0
          : static_cast<double>(lists.InMemoryBytes(1.0)) /
                static_cast<double>(lists.num_terms());
  const double vocab = static_cast<double>(ctx.engine.corpus().vocab().size());

  std::printf("\n--- %s (vocabulary %zu terms, avg full list %s) ---\n",
              ctx.name.c_str(), ctx.engine.corpus().vocab().size(),
              Human(avg_list_bytes).c_str());
  std::printf("%-7s %14s %16s %8s %8s\n", "list%", "size(12B)",
              "extrapolated", "NDCG-AND", "NDCG-OR");
  for (double fraction : {0.1, 0.2, 0.5}) {
    ctx.engine.SetSmjFraction(fraction);
    double ndcg_and = 0.0;
    double ndcg_or = 0.0;
    for (QueryOperator op : {QueryOperator::kAnd, QueryOperator::kOr}) {
      AggregateRun run =
          RunExperiment(ctx.engine, ctx.queries, op, Algorithm::kSmj,
                        MineOptions{.k = 5}, /*evaluate_quality=*/true);
      (op == QueryOperator::kAnd ? ndcg_and : ndcg_or) = run.quality.ndcg;
    }
    std::printf(
        "%-7.0f %14s %16s %8.3f %8.3f\n", fraction * 100,
        Human(static_cast<double>(lists.InMemoryBytes(fraction))).c_str(),
        Human(avg_list_bytes * fraction * vocab).c_str(), ndcg_and, ndcg_or);
  }
}

}  // namespace

int main() {
  PrintHeader(
      "Table 5: index sizes vs accuracy (packed 12 B/entry, in memory and "
      "on disk alike)",
      "modest storage (tens-of-MB range for the small dataset, GB range for "
      "the large one at full vocabulary) achieves NDCG > 0.9 by 20% lists");
  BenchContext reuters = BuildReuters();
  RunDataset(reuters);
  BenchContext pubmed = BuildPubmed();
  RunDataset(pubmed);
  return 0;
}
