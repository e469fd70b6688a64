// Sharded scatter-gather search: single-query latency against the shard
// count on the Synthetic repository, plus an exactness check against the
// single unsharded engine (the sharded top-k must be byte-identical).
//
//   $ ./build/shard_search [--scale=F] [--threads=T] [--k=K]
//
// Every target is one ShardedEngine::Search, whose per-shard phases run in
// parallel on a T-thread pool; ms/query is the mean latency of those
// calls, issued one at a time. Shard sets are built into a temporary
// directory and removed afterwards.
#include <unistd.h>

#include <cstring>
#include <filesystem>

#include "bench/bench_common.h"
#include "serving/shard_builder.h"
#include "serving/sharded_engine.h"

using namespace d3l;

namespace {

bool SameRanking(const core::SearchResult& a, const core::SearchResult& b) {
  if (a.ranked.size() != b.ranked.size()) return false;
  for (size_t i = 0; i < a.ranked.size(); ++i) {
    if (a.ranked[i].table_index != b.ranked[i].table_index ||
        a.ranked[i].distance != b.ranked[i].distance) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  double scale = 1.0;
  size_t threads = serving::ThreadPool::DefaultThreads();
  size_t k = 20;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--scale=", 8) == 0) {
      double v = std::atof(a + 8);
      if (v > 0) scale = v;
    } else if (std::strncmp(a, "--threads=", 10) == 0) {
      long v = std::atol(a + 10);
      if (v > 0) threads = static_cast<size_t>(v);
    } else if (std::strncmp(a, "--k=", 4) == 0) {
      long v = std::atol(a + 4);
      if (v > 0) k = static_cast<size_t>(v);
    } else {
      std::fprintf(stderr, "unrecognized argument '%s'\n", a);
    }
  }
  printf("=== Sharded search scaling on Synthetic (scale=%.2f, threads=%zu, "
         "k=%zu) ===\n\n",
         scale, threads, k);

  auto data = bench::MakeSynthetic(scale);
  printf("lake: %zu tables\n", data.lake.size());

  core::D3LEngine unsharded;
  unsharded.IndexLake(data.lake).CheckOK();

  auto target_ids = eval::SampleTargets(data.lake, eval::Scaled(20, scale), 31);
  std::vector<const Table*> targets;
  for (uint32_t t : target_ids) targets.push_back(&data.lake.table(t));

  // Reference rankings, then a timed pass warmed by them like the sharded
  // rows below.
  std::vector<core::SearchResult> reference;
  for (const Table* t : targets) {
    reference.push_back(std::move(*unsharded.Search(*t, k)));
  }
  eval::Timer t_single;
  for (const Table* t : targets) unsharded.Search(*t, k).status().CheckOK();
  double single_ms = t_single.Seconds() * 1000 / static_cast<double>(targets.size());
  printf("unsharded engine: %.2f ms/query over %zu targets\n\n", single_ms,
         targets.size());

  namespace fs = std::filesystem;
  fs::path tmp = fs::temp_directory_path() /
                 ("d3l_shard_search_" + std::to_string(::getpid()));
  fs::create_directories(tmp);

  eval::TablePrinter out(
      {"shards", "build (s)", "open (s)", "ms/query", "speedup vs 1", "exact"});
  double one_shard_ms = 0;
  bool all_exact = true;
  for (size_t n_shards : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    if (n_shards > data.lake.size()) break;
    serving::ShardingOptions options;
    options.num_shards = n_shards;
    auto report = serving::BuildShards(
        data.lake, options, (tmp / std::string("s").append(std::to_string(n_shards))).string());
    report.status().CheckOK();

    serving::ShardedEngineOptions open_options;
    open_options.num_threads = threads;
    eval::Timer t_open;
    auto engine = serving::ShardedEngine::Open(report->manifest_path, open_options);
    engine.status().CheckOK();
    double open_s = t_open.Seconds();

    // Warm-up pass; an error here would skew the timed pass, so check it.
    for (const Table* t : targets) (*engine)->Search(*t, k).status().CheckOK();
    std::vector<Result<core::SearchResult>> results;
    results.reserve(targets.size());
    eval::Timer t_query;
    for (const Table* t : targets) results.push_back((*engine)->Search(*t, k));
    double ms = t_query.Seconds() * 1000 / static_cast<double>(targets.size());
    if (n_shards == 1) one_shard_ms = ms;

    bool exact = true;
    for (size_t i = 0; i < results.size(); ++i) {
      results[i].status().CheckOK();
      exact = exact && SameRanking(reference[i], *results[i]);
    }
    all_exact = all_exact && exact;
    out.AddRow({std::to_string(n_shards), eval::TablePrinter::Num(report->build_seconds),
                eval::TablePrinter::Num(open_s), eval::TablePrinter::Num(ms, 2),
                eval::TablePrinter::Num(one_shard_ms / ms, 2), exact ? "yes" : "NO"});
  }
  out.Print();
  fs::remove_all(tmp);

  printf(
      "\nShape to check: every row's ranking is exact (byte-identical to the\n"
      "unsharded engine). ms/query is single-query latency with the shards of\n"
      "one query in parallel; it can fall below the unsharded engine's only\n"
      "when per-shard retrieval and scoring outweigh the per-query fan-out\n"
      "and merge, so at small scales the sharded rows sit at or above it.\n");
  if (!all_exact) {
    fprintf(stderr, "FAIL: a sharded ranking diverged from the unsharded engine\n");
    return 1;  // fails the CI bench-smoke step, not just the artifact text
  }
  return 0;
}
