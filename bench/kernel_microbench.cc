// Hot-path kernel microbenchmark: the SoA galloping/block merge kernels
// against the scalar AoS reference merge, on synthetic id-ordered word
// lists, for AND and OR queries over skewed (1:100 short-vs-long) and
// uniform list-length mixes. The kernel side runs the real SmjMiner over
// SoA lists; the scalar side runs the textbook Algorithm 2 merge from the
// test tree (tests/smj_reference.h) over AoS copies of the same lists,
// with the same scoring and top-k collector, so the measured gap is the
// data-layout + galloping win, and the differential tests guarantee both
// produce bitwise-identical rankings.
//
// Acceptance target: >= 2x AND-query throughput on the skewed mix (the
// galloping intersection drives from the short list and skips most of the
// long ones; the scalar merge must consume every entry). Enforced when
// PM_KERNEL_ENFORCE=1 (the CI step sets it; the tiny smoke run does not) --
// exit 2 below target.
//
// Writes BENCH_kernels.json for the CI perf trajectory and the
// bench-regression gate.
//
// Knobs: PM_KERNEL_SHORT (short list entries, default 2000),
//        PM_KERNEL_LONG (long list entries, default 200000),
//        PM_KERNEL_MS (per-measurement wall budget, default 300).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/kernels.h"
#include "core/smj_miner.h"
#include "index/word_lists.h"
#include "phrase/phrase_dictionary.h"
#include "smj_reference.h"

namespace phrasemine::bench {
namespace {

/// Sorted unique synthetic list over a sparse id universe. `overlap`
/// entries are copied from `base` (when given) so AND intersections are
/// non-trivial.
std::vector<ListEntry> MakeList(Rng& rng, std::size_t size,
                                PhraseId universe,
                                const std::vector<ListEntry>* base,
                                std::size_t overlap) {
  std::vector<ListEntry> entries;
  entries.reserve(size + overlap);
  for (std::size_t i = 0; i < size; ++i) {
    entries.push_back(ListEntry{static_cast<PhraseId>(rng.NextBelow(universe)),
                                1.0 - rng.NextDouble()});
  }
  if (base != nullptr) {
    for (std::size_t i = 0; i < overlap && i < base->size(); ++i) {
      entries.push_back((*base)[rng.NextBelow(base->size())]);
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const ListEntry& a, const ListEntry& b) {
              return a.phrase < b.phrase;
            });
  entries.erase(std::unique(entries.begin(), entries.end(),
                            [](const ListEntry& a, const ListEntry& b) {
                              return a.phrase == b.phrase;
                            }),
                entries.end());
  return entries;
}

struct Case {
  std::string name;
  std::vector<std::vector<ListEntry>> aos;  // scalar side, one per term
  WordIdOrderedLists lists{1.0};            // kernel side, SoA
  Query query;
  double scalar_qps = 0.0;
  double kernel_qps = 0.0;
  double speedup = 0.0;
};

Case MakeCase(std::string name, Rng& rng, QueryOperator op,
              std::span<const std::size_t> sizes, PhraseId universe) {
  Case c;
  c.name = std::move(name);
  c.query.op = op;
  c.aos.reserve(sizes.size());
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    // Every later list absorbs a slice of the first so the AND join has
    // survivors to score (~half the short list).
    c.aos.push_back(MakeList(rng, sizes[i], universe,
                             i == 0 ? nullptr : &c.aos[0],
                             i == 0 ? 0 : sizes[0] / 2));
    c.lists.Insert(static_cast<TermId>(i),
                   std::make_shared<const SoABlockList>(
                       SoABlockList::FromIdOrdered(c.aos[i])));
    c.query.terms.push_back(static_cast<TermId>(i));
  }
  return c;
}

/// Queries/second of one mine callable, measured over a fixed wall budget
/// (first call excluded as warmup).
template <typename MineFn>
double MeasureQps(MineFn&& mine, double budget_ms) {
  (void)mine();
  StopWatch watch;
  std::size_t iterations = 0;
  do {
    (void)mine();
    ++iterations;
  } while (watch.ElapsedMillis() < budget_ms);
  return 1000.0 * static_cast<double>(iterations) / watch.ElapsedMillis();
}

int Main() {
  PrintHeader("Kernel microbench: SoA galloping/block merges vs scalar SMJ",
              ">= 2x AND throughput on the skewed mix (galloping skips what "
              "the scalar merge must read); OR gains come from the SoA "
              "layout alone");

  const std::size_t short_len = EnvSize("PM_KERNEL_SHORT", 2000);
  const std::size_t long_len = EnvSize("PM_KERNEL_LONG", 200000);
  const double budget_ms =
      static_cast<double>(EnvSize("PM_KERNEL_MS", 300));
  const bool enforce = [] {
    const char* v = std::getenv("PM_KERNEL_ENFORCE");
    return v != nullptr && v[0] == '1';
  }();
  const auto universe =
      static_cast<PhraseId>(std::max<std::size_t>(4 * long_len, 1024));

  std::printf("short %zu, long %zu entries, %.0f ms per measurement, "
              "avx2 %s\n\n",
              short_len, long_len, budget_ms,
              kernels::HasAvx2() ? "yes" : "no");

  Rng rng(99);
  const std::size_t skewed_sizes[] = {short_len, long_len, long_len};
  const std::size_t uniform_sizes[] = {long_len / 2, long_len / 2,
                                       long_len / 2};
  std::vector<Case> cases;
  cases.push_back(MakeCase("and_skewed", rng, QueryOperator::kAnd,
                           skewed_sizes, universe));
  cases.push_back(MakeCase("and_uniform", rng, QueryOperator::kAnd,
                           uniform_sizes, universe));
  cases.push_back(MakeCase("or_skewed", rng, QueryOperator::kOr,
                           skewed_sizes, universe));
  cases.push_back(MakeCase("or_uniform", rng, QueryOperator::kOr,
                           uniform_sizes, universe));

  const PhraseDictionary dict;  // SMJ never consults it
  std::printf("%-12s %14s %14s %9s\n", "case", "scalar q/s", "kernel q/s",
              "speedup");
  double and_skewed_speedup = 0.0;
  double and_skewed_kernel_qps = 0.0;
  for (Case& c : cases) {
    SmjMiner miner(c.lists, dict);
    const MineOptions options{.k = 10};
    c.scalar_qps = MeasureQps(
        [&] {
          return testing::ReferenceSmjMine(c.query, c.aos, options.k,
                                           options.or_order);
        },
        budget_ms);
    c.kernel_qps =
        MeasureQps([&] { return miner.Mine(c.query, options); }, budget_ms);
    c.speedup = c.scalar_qps > 0.0 ? c.kernel_qps / c.scalar_qps : 0.0;
    if (c.name == "and_skewed") {
      and_skewed_speedup = c.speedup;
      and_skewed_kernel_qps = c.kernel_qps;
    }
    std::printf("%-12s %14.1f %14.1f %8.2fx\n", c.name.c_str(), c.scalar_qps,
                c.kernel_qps, c.speedup);
  }

  const bool meets_target = and_skewed_speedup >= 2.0;
  if (std::FILE* json = std::fopen("BENCH_kernels.json", "w")) {
    std::fprintf(json,
                 "{\n  \"kernel_and_skewed_qps\": %.1f,\n"
                 "  \"and_skewed_speedup\": %.2f,\n  \"avx2\": %s,\n"
                 "  \"cases\": [",
                 and_skewed_kernel_qps, and_skewed_speedup,
                 kernels::HasAvx2() ? "true" : "false");
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const Case& c = cases[i];
      std::fprintf(json,
                   "%s\n    {\"name\": \"%s\", \"scalar_qps\": %.1f, "
                   "\"kernel_qps\": %.1f, \"speedup\": %.2f}",
                   i == 0 ? "" : ",", c.name.c_str(), c.scalar_qps,
                   c.kernel_qps, c.speedup);
    }
    std::fprintf(json,
                 "\n  ],\n  \"target_enforced\": %s,\n"
                 "  \"meets_target\": %s\n}\n",
                 enforce ? "true" : "false", meets_target ? "true" : "false");
    std::fclose(json);
    std::printf("\nwrote BENCH_kernels.json\n");
  }

  std::printf("AND skewed speedup: %.2fx %s\n", and_skewed_speedup,
              meets_target ? "(meets >=2x target)"
              : enforce    ? "(BELOW 2x target)"
                           : "(informational)");
  return enforce && !meets_target ? 2 : 0;
}

}  // namespace
}  // namespace phrasemine::bench

int main() { return phrasemine::bench::Main(); }
