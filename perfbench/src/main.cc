// d3l_perfbench: the discovery benchmark's load generator, index builder and
// output checker.
//
//   d3l_perfbench --workload W --seed N --seconds S --trace 0|1 --work DIR
//                 [--spans FILE]
//
// runs one workload and prints, as its last stdout line, one JSON object:
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics; --trace 1 runs the same workload with spans recorded
// around every call into the library and reports the per-layer metrics.
// Every thread count is explicit; at most four threads are busy at once.
//
// Process layout. This process is the load process: it generates the lake
// for its workload (the query inputs and the ground truth), opens the index,
// drives the clients and checks the answers, so its peak RSS holds no
// index-build memory. Each set-up repetition builds the index in a fresh
// child process (the internal `build` role below).
//
//   d3l_perfbench build --workload W --seed N --out DIR --trace 0|1
//
// is that child: it writes the snapshot into DIR and prints "name value"
// lines with its timings and sizes.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "common/hash.h"
#include "core/join_graph.h"
#include "core/query.h"
#include "io/binary_io.h"
#include "serving/discovery_service.h"
#include "util.h"
#include "workload.h"

namespace fs = std::filesystem;
using namespace d3l;
using perfbench::Now;
using perfbench::ScopedSpan;

namespace {

struct Args {
  std::string role = "run";
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir;    // --work (run) or --out (build)
  std::string spans;  // --spans: where a traced run writes its spans
};

int Usage() {
  std::fprintf(stderr,
               "usage: d3l_perfbench --workload W --seed N --seconds S "
               "--trace 0|1 --work DIR [--spans FILE]\n"
               "       d3l_perfbench build --workload W --seed N --out DIR "
               "--trace 0|1\n"
               "workloads: %s\n",
               perfbench::WorkloadNames().c_str());
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  int i = 1;
  if (argc > 1 && std::strcmp(argv[1], "build") == 0) {
    args->role = "build";
    i = 2;
  }
  for (; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value);
    } else if (key == "--trace") {
      args->trace = std::atoi(value) != 0;
    } else if (key == "--work" || key == "--out") {
      args->dir = value;
    } else if (key == "--spans") {
      args->spans = value;
    } else {
      return false;
    }
  }
  return i == argc && !args->workload.empty() && !args->dir.empty() &&
         args->seconds > 0;
}

std::string SnapshotPath(const std::string& dir) { return dir + "/lake.d3l"; }

// ---------------------------------------------------------------------------
// The build role.

/// BuildProfile over every lake column and D3LIndexes::Sign over every
/// profile, called directly from the benchmark, outside IndexLake.
void BuildProbes(const DataLake& lake, const core::D3LOptions& options,
                 std::FILE* out) {
  const core::D3LEngine shell(options);  // provides the shared WEM model
  std::vector<std::vector<core::AttributeProfile>> profiles(lake.size());
  double t0 = Now();
  {
    std::vector<std::thread> workers;
    std::atomic<size_t> next{0};
    for (size_t w = 0; w < perfbench::kBuildThreads; ++w) {
      workers.emplace_back([&] {
        CachingEmbedder cache(&shell.wem());
        for (size_t t; (t = next.fetch_add(1)) < lake.size();) {
          for (size_t c = 0; c < lake.table(t).num_columns(); ++c) {
            profiles[t].push_back(core::BuildProfile(lake.table(t), c, shell.wem(),
                                                     &cache, options.profile));
          }
        }
      });
    }
    for (std::thread& w : workers) w.join();
  }
  std::fprintf(out, "core.build_profile_s %.9f\n", Now() - t0);

  const core::D3LIndexes indexes(options.index);
  t0 = Now();
  for (const auto& table : profiles) {
    for (const core::AttributeProfile& p : table) static_cast<void>(indexes.Sign(p));
  }
  std::fprintf(out, "lsh.sign_s %.9f\n", Now() - t0);
}

int BuildMain(const Args& args) {
  const perfbench::WorkloadSpec* spec = perfbench::FindWorkload(args.workload);
  if (spec == nullptr) return Usage();
  const benchdata::GeneratedLake data = perfbench::MakeLake(*spec);
  const core::D3LOptions options = perfbench::EngineOptions();

  // kBuildsPerRep builds, each timed for index_build_s. Only the first
  // counts in the set-up time: the child reports how long the others took.
  double first_done = 0;
  for (size_t b = 0; b < perfbench::kBuildsPerRep; ++b) {
    core::D3LEngine engine(options);
    const double t0 = Now();
    const Status indexed = engine.IndexLake(data.lake);
    if (!indexed.ok()) {
      std::fprintf(stderr, "IndexLake: %s\n", indexed.ToString().c_str());
      return 1;
    }
    const double t_index = Now() - t0;
    double t_graph = 0;
    if (spec->join) {
      const double g0 = Now();
      const core::SaJoinGraph graph = core::SaJoinGraph::Build(engine);
      t_graph = Now() - g0;
    }
    const double s0 = Now();
    const Status saved = engine.SaveSnapshot(SnapshotPath(args.dir));
    if (!saved.ok()) {
      std::fprintf(stderr, "SaveSnapshot: %s\n", saved.ToString().c_str());
      return 1;
    }
    const double t_save = Now() - s0;
    // search_cold: lake -> persisted index; join_real: lake -> index + graph.
    const double build_s = spec->join ? t_index + t_graph : t_index + t_save;
    std::printf("io.snapshot_write_s %.9f\ncore.join_graph_build_ms %.9f\n", t_save,
                t_graph * 1000);
    std::printf("snapshot_bytes %llu\n", static_cast<unsigned long long>(
                                             perfbench::FileBytes(SnapshotPath(args.dir))));
    std::printf("index_build_s %.9f\n", build_s);
    if (b == 0) first_done = Now();
  }
  std::printf("repeat_s %.9f\n", Now() - first_done);
  if (args.trace) BuildProbes(data.lake, options, stdout);
  return std::fflush(stdout) == 0 ? 0 : 1;
}

/// "name value" lines; a name printed several times keeps every value.
std::map<std::string, std::vector<double>> ParseKeyValues(const std::string& text) {
  std::map<std::string, std::vector<double>> values;
  std::istringstream in(text);
  std::string key;
  double value = 0;
  while (in >> key >> value) values[key].push_back(value);
  return values;
}

// ---------------------------------------------------------------------------
// The run role.

/// One answered query as the client saw it.
struct Sample {
  uint32_t target = 0;
  bool ok = false;
  bool hit = false;
  double ms = 0;         ///< submit to response, client clock
  double queue_s = 0;    ///< QueryStats as published by the service
  double profile_s = 0;
  double search_s = 0;
  uint64_t digest = 0;   ///< checks::ResultDigest (+ paths on join_real)
  size_t paths = 0;
};

struct LoopResult {
  std::vector<Sample> samples;
  double wall_s = 0;
  double cpu_s = 0;  ///< this process
};

/// Every per-layer metric with its unit, in print order. A traced run
/// prints all of them; a layer the workload does not exercise reads 0.
const std::pair<const char*, const char*> kLayerMetrics[] = {
    {"core.profile_ms", "ms"},         {"core.depth_counts_ms", "ms"},
    {"core.stop_depths_ms", "ms"},     {"core.collect_ms", "ms"},
    {"core.score_ms", "ms"},           {"core.rank_ms", "ms"},
    {"core.search_self_ms", "ms"},     {"core.rows_scored", "count"},
    {"core.candidates", "count"},      {"core.build_profile_s", "s"},
    {"core.join_graph_build_ms", "ms"}, {"core.join_paths_ms", "ms"},
    {"core.join_paths", "count"},      {"lsh.sign_s", "s"},
    {"io.snapshot_write_s", "s"},      {"io.index_parse_ms", "ms"},
    {"io.forest_parse_ms", "ms"},      {"io.section_mb.opts", "MB"},
    {"io.section_mb.lake", "MB"},      {"io.section_mb.indx", "MB"},
    {"io.section_mb.engn", "MB"},      {"serving.cache_hits", "count"},
    {"serving.cache_misses", "count"}, {"serving.cache_hit_ratio", "ratio"},
    {"serving.hit_ms", "ms"},          {"serving.miss_ms", "ms"},
    {"serving.shard_search_ms", "ms"}, {"serving.queue_ms", "ms"},
    {"serving.query_self_ms", "ms"},   {"obs.untraced_query_p50_ms", "ms"},
    {"obs.traced_query_p50_ms", "ms"}, {"obs.untraced_query_p99_ms", "ms"},
    {"obs.traced_query_p99_ms", "ms"}, {"obs.untraced_query_qps", "1/s"},
    {"obs.traced_query_qps", "1/s"},   {"proc.cpu_ms_per_query", "ms"},
};

/// Sets a per-layer metric with its unit from kLayerMetrics.
void Layer(perfbench::ResultLine* out, const std::string& name, double value) {
  for (const auto& [n, unit] : kLayerMetrics) {
    if (name == n) return out->Set(name, unit, value);
  }
  std::fprintf(stderr, "unknown layer metric %s\n", name.c_str());
  std::abort();
}

class Runner {
 public:
  Runner(const perfbench::WorkloadSpec& spec, const Args& args)
      : spec_(spec), args_(args), dir_(args.dir + "/deploy") {}

  int Run();

 private:
  // Set-up: one repetition builds, opens and warms up a deployment.
  Status SetupRep(bool keep);
  Status BuildChild();
  Status OpenOnce();
  Status WarmUp();
  void Release();

  const Table& TableOf(uint32_t t) const { return data_.lake.table(t); }
  Sample Query(uint32_t target, serving::DiscoveryService* service, uint64_t qid);
  LoopResult Loop(double seconds, size_t min_queries, serving::DiscoveryService* service);
  std::unique_ptr<serving::DiscoveryService> MakeService(bool traced) const;

  // Checks and metrics.
  struct Outcome {
    bool correct = false;
    double precision = 0, recall = 0, coverage = 0;
    double graph_build_ms = 0;  ///< SA-join graph build of the reference
    double paths = 0;           ///< join paths per answer
    double paths_ms = 0;        ///< FindAllJoinPaths per answer
  };
  Outcome Check(const std::vector<const LoopResult*>& loops);
  void LayerProbes(perfbench::ResultLine* out);
  void TraceMetrics(const LoopResult& loop, const LoopResult& traced,
                    const Outcome& outcome, perfbench::ResultLine* out) const;

  const perfbench::WorkloadSpec& spec_;
  const Args args_;
  const std::string dir_;
  benchdata::GeneratedLake data_;
  std::vector<uint32_t> order_;       ///< seeded target order

  // The current deployment (the last set-up repetition's is kept).
  std::unique_ptr<DataLake> meta_;
  std::unique_ptr<core::D3LEngine> engine_;
  std::unique_ptr<serving::EngineBackend> engine_backend_;
  std::unique_ptr<core::SaJoinGraph> graph_;
  std::unique_ptr<serving::DiscoveryService> service_;

  std::vector<double> setup_s_, open_s_, build_s_;
  /// The last build child's report; BuildValue reads its median.
  std::map<std::string, std::vector<double>> build_out_;
  double BuildValue(const std::string& name) const {
    auto it = build_out_.find(name);
    return it == build_out_.end() ? 0 : perfbench::Median(it->second);
  }
  /// Operations by kind (build, open, query): attempted, failed.
  std::map<std::string, std::pair<uint64_t, uint64_t>> ops_;
  std::mutex ops_mu_;
  void Count(const char* kind, bool ok) {
    std::lock_guard<std::mutex> lock(ops_mu_);
    auto& [attempted, failed] = ops_[kind];
    ++attempted;
    failed += ok ? 0 : 1;
  }
  double join_graph_build_ms_ = 0;  ///< SaJoinGraph::Build at open (join_real)
};

Status Runner::BuildChild() {
  fs::create_directories(dir_);
  const std::string out = dir_ + "/build.out";
  auto child = perfbench::Child::Spawn(
      {perfbench::SelfDir() + "/d3l_perfbench", "build", "--workload", spec_.name,
       "--seed", std::to_string(args_.seed), "--out", dir_, "--trace",
       args_.trace ? "1" : "0"},
      out);
  const Status done = child.ok() ? child->Wait() : child.status();
  build_out_ = ParseKeyValues(perfbench::ReadFile(out));
  if (!done.ok() || build_out_.count("index_build_s") == 0 ||
      build_out_.count("repeat_s") == 0) {
    Count("build", false);
    return done.ok() ? Status::Internal("build child printed no report") : done;
  }
  for (double v : build_out_["index_build_s"]) {
    build_s_.push_back(v);
    Count("build", true);
  }
  return Status::OK();
}

Status Runner::OpenOnce() {
  engine_backend_.reset();
  engine_.reset();
  meta_ = std::make_unique<DataLake>();
  const double t0 = Now();
  auto opened = core::D3LEngine::LoadSnapshot(SnapshotPath(dir_), meta_.get(),
                                              core::SnapshotLoadMode::kMapped);
  open_s_.push_back(Now() - t0);
  Count("open", opened.ok());
  if (!opened.ok()) return opened.status();
  engine_ = std::move(*opened);
  return Status::OK();
}

std::unique_ptr<serving::DiscoveryService> Runner::MakeService(bool traced) const {
  serving::DiscoveryServiceOptions options;
  options.num_threads = spec_.clients;
  options.trace_queries = traced;
  return std::make_unique<serving::DiscoveryService>(engine_backend_.get(), options);
}

Status Runner::WarmUp() {
  if (spec_.join) {
    const double g0 = Now();
    graph_ = std::make_unique<core::SaJoinGraph>(core::SaJoinGraph::Build(*engine_));
    join_graph_build_ms_ = (Now() - g0) * 1000;
  } else {
    auto identity = io::FileIdentity(SnapshotPath(dir_));
    if (!identity.ok()) return identity.status();
    engine_backend_ = std::make_unique<serving::EngineBackend>(
        engine_.get(), meta_.get(), HashCombine(identity->first, identity->second) | 1);
    service_ = MakeService(false);
  }
  const size_t n = order_.size();
  for (size_t i = 0; i < std::min(perfbench::kWarmupQueries, n); ++i) {
    const Sample s = Query(order_[n - 1 - i], service_.get(), 0);
    if (!s.ok) return Status::Internal("warm-up query failed");
  }
  return Status::OK();
}

void Runner::Release() {
  service_.reset();
  graph_.reset();
  engine_backend_.reset();
  engine_.reset();
  meta_.reset();
}

Status Runner::SetupRep(bool keep) {
  Release();
  const double t0 = Now();
  D3L_RETURN_NOT_OK(BuildChild());
  // kOpensPerRep opens, each timed for open_ms; only the last (the
  // deployment served) counts in this repetition's set-up time, and the
  // others' teardown neither.
  double extra = 0;
  for (size_t i = 0;; ++i) {
    const double o0 = Now();
    D3L_RETURN_NOT_OK(OpenOnce());
    if (i + 1 == perfbench::kOpensPerRep) break;
    engine_.reset();
    extra += Now() - o0;
  }
  D3L_RETURN_NOT_OK(WarmUp());
  setup_s_.push_back(Now() - t0 - extra - build_out_["repeat_s"].front());
  if (!keep) Release();
  return Status::OK();
}

Sample Runner::Query(uint32_t target, serving::DiscoveryService* service, uint64_t qid) {
  Sample s;
  s.target = target;
  if (spec_.join) {
    const double t0 = Now();
    ScopedSpan root("query", qid);
    Result<core::SearchResult> result = Status::Internal("not run");
    {
      ScopedSpan span("core.search", qid);
      result = engine_->Search(TableOf(target), perfbench::kTopK);
    }
    std::vector<core::JoinPath> paths;
    if (result.ok()) {
      ScopedSpan span("core.join_paths", qid);
      paths = core::FindAllJoinPaths(*graph_, *result);
    }
    s.ms = (Now() - t0) * 1000;
    s.ok = result.ok();
    if (s.ok) {
      s.paths = paths.size();
      s.digest = HashCombine(perfbench::ResultDigest(std::move(*result)),
                             perfbench::PathsDigest(paths));
    }
  } else {
    serving::QueryRequest request;
    request.target = &TableOf(target);
    request.k = perfbench::kTopK;
    const double t0 = Now();
    serving::QueryResponse response;
    {
      ScopedSpan span("serving.query", qid);
      response = service->Submit(request).get();
    }
    s.ms = (Now() - t0) * 1000;
    s.ok = response.result.ok();
    s.hit = response.stats.cache_hit;
    s.queue_s = response.stats.queue_seconds;
    s.profile_s = response.stats.profile_seconds;
    s.search_s = response.stats.search_seconds;
    if (s.ok) s.digest = perfbench::ResultDigest(std::move(*response.result));
  }
  Count("query", s.ok);
  return s;
}

LoopResult Runner::Loop(double seconds, size_t min_queries,
                        serving::DiscoveryService* service) {
  // Whole rounds of kRoundQueries targets: the next stretch of the seeded
  // order, continuing cyclically (every table once per lake-size queries).
  // The client that finds a round exhausted decides whether another one
  // starts.
  std::mutex mu;
  std::vector<uint32_t> round;
  size_t pos = 0, cursor = 0, issued = 0;
  bool stop = false;
  const auto next_round = [&] {
    round.clear();
    for (size_t i = 0; i < perfbench::kRoundQueries; ++i) {
      round.push_back(order_[cursor++ % order_.size()]);
    }
    pos = 0;
  };
  next_round();

  std::vector<std::vector<Sample>> per_client(spec_.clients);
  const double cpu0 = perfbench::CpuSeconds(0);
  const double t0 = Now();
  std::vector<std::thread> clients;
  for (size_t c = 0; c < spec_.clients; ++c) {
    clients.emplace_back([&, c] {
      for (;;) {
        uint32_t target = 0;
        uint64_t qid = 0;
        {
          std::lock_guard<std::mutex> lock(mu);
          if (!stop && pos == round.size()) {
            if (Now() - t0 >= seconds && issued >= min_queries) {
              stop = true;
            } else {
              next_round();
            }
          }
          if (stop) return;
          target = round[pos++];
          qid = ++issued;
        }
        per_client[c].push_back(Query(target, service, qid));
      }
    });
  }
  for (std::thread& t : clients) t.join();
  LoopResult loop;
  loop.wall_s = Now() - t0;
  loop.cpu_s = perfbench::CpuSeconds(0) - cpu0;
  for (auto& v : per_client) loop.samples.insert(loop.samples.end(), v.begin(), v.end());
  return loop;
}

void LatencyMetrics(const LoopResult& loop, const std::string& prefix,
                    perfbench::ResultLine* out) {
  std::vector<double> ms;
  for (const Sample& s : loop.samples) {
    if (s.ok) ms.push_back(s.ms);
  }
  out->Set(prefix + "query_p50_ms", "ms", perfbench::Percentile(ms, 0.50));
  out->Set(prefix + "query_p99_ms", "ms", perfbench::Percentile(ms, 0.99));
  out->Set(prefix + "query_qps", "1/s", static_cast<double>(ms.size()) / loop.wall_s);
}

Runner::Outcome Runner::Check(const std::vector<const LoopResult*>& loops) {
  Outcome outcome;
  // The reference is the opened engine, recomputing every answer afresh.
  const core::D3LEngine* engine = engine_.get();
  std::unique_ptr<core::SaJoinGraph> built;
  const core::SaJoinGraph* graph = graph_.get();
  if (graph == nullptr) {
    const double g0 = Now();
    built = std::make_unique<core::SaJoinGraph>(core::SaJoinGraph::Build(*engine));
    graph = built.get();
    outcome.graph_build_ms = (Now() - g0) * 1000;
  }

  // Every table's reference answer: the answered ones are compared with
  // it, and quality is scored over all of them, so it does not depend on
  // which targets a run reached.
  const double p0 = Now();
  const std::vector<perfbench::Reference> refs = perfbench::ComputeReferences(
      *engine, *graph, data_.truth, data_.lake, spec_.join, perfbench::kBuildThreads);
  const double check_s = Now() - p0;

  bool correct = true;
  size_t faults = 0, mismatches = 0, hit_mismatches = 0, hits = 0;
  for (uint32_t t = 0; t < refs.size(); ++t) {
    if (!refs[t].fault.empty()) {
      if (faults++ == 0) {
        std::fprintf(stderr, "check failed on %s: %s\n", TableOf(t).name().c_str(),
                     refs[t].fault.c_str());
      }
    }
  }
  for (const LoopResult* loop : loops) {
    for (const Sample& s : loop->samples) {
      if (!s.ok) continue;
      hits += s.hit ? 1 : 0;
      if (s.digest != refs[s.target].digest) {
        ++mismatches;
        hit_mismatches += s.hit ? 1 : 0;
      }
    }
  }
  if (faults > 0) correct = false;
  if (mismatches > 0) {
    std::fprintf(stderr,
                 "check failed: %zu answers (%zu of %zu cache hits) differ from a "
                 "single engine's recomputation\n",
                 mismatches, hit_mismatches, hits);
    correct = false;
  }

  std::vector<double> precision, recall, coverage, precision_base, recall_base, paths,
      paths_ms;
  for (const perfbench::Reference& ref : refs) {
    paths.push_back(static_cast<double>(ref.paths));
    paths_ms.push_back(ref.paths_seconds * 1000);
    const perfbench::Quality& q = ref.quality;
    if (!q.counted) continue;
    precision.push_back(q.precision);
    recall.push_back(q.recall);
    coverage.push_back(q.coverage);
    precision_base.push_back(q.precision_base);
    recall_base.push_back(q.recall_base);
  }
  const double p = perfbench::Mean(precision), r = perfbench::Mean(recall);
  const double p_base = perfbench::Mean(precision_base);
  const double r_base = perfbench::Mean(recall_base);
  if (precision.empty() || !(p > p_base) || !(r > r_base)) {
    std::fprintf(stderr,
                 "check failed: precision %.4f / recall %.4f do not clear a random "
                 "ranking's %.4f / %.4f\n",
                 p, r, p_base, r_base);
    correct = false;
  }
  std::fprintf(stderr,
               "checked %zu reference answers in %.2fs: %zu faults, %zu digest "
               "mismatches, precision %.4f (random %.4f), recall %.4f (random %.4f)\n",
               refs.size(), check_s, faults, mismatches, p, p_base, r, r_base);
  outcome.correct = correct;
  outcome.precision = p;
  outcome.recall = r;
  outcome.coverage = perfbench::Mean(coverage);
  outcome.paths = perfbench::Mean(paths);
  outcome.paths_ms = perfbench::Mean(paths_ms);
  return outcome;
}

void Runner::LayerProbes(perfbench::ResultLine* out) {
  // Probe sample: the first targets of the seeded order.
  const size_t n = std::min<size_t>(128, order_.size());

  // core: the D3LEngine phase API, the same decomposition Search runs.
  const core::D3LEngine* engine = engine_.get();
  if (engine != nullptr) {
    double rows = 0, candidates = 0;
    for (size_t i = 0; i < n; ++i) {
      const uint64_t qid = 1'000'000 + i;
      ScopedSpan root("core.query", qid);
      core::QueryTarget target;
      {
        ScopedSpan span("core.profile", qid);
        target = engine->ProfileTarget(TableOf(order_[i]));
      }
      const auto mask = engine->options().enabled;
      const size_t m = std::max(engine->options().candidates_per_attribute, perfbench::kTopK);
      core::CandidateDepthCounts counts;
      {
        ScopedSpan span("core.depth_counts", qid);
        counts = engine->CollectDepthCounts(target, mask, m);
      }
      core::CandidateStopDepths stops;
      {
        ScopedSpan span("core.stop_depths", qid);
        stops = core::D3LEngine::ResolveStopDepths(counts, m);
      }
      std::vector<std::vector<uint32_t>> unions;
      {
        ScopedSpan span("core.collect", qid);
        const core::CandidateLists lists = engine->CollectCandidates(target, stops, m);
        for (const auto& per_column : lists.ids) {
          for (const auto& ids : per_column) candidates += static_cast<double>(ids.size());
        }
        unions = core::D3LEngine::UnionCandidates(lists);
      }
      std::vector<core::PairDistances> scored;
      {
        ScopedSpan span("core.score", qid);
        scored = engine->ScoreCandidates(target, unions, mask);
      }
      rows += static_cast<double>(scored.size());
      {
        ScopedSpan span("core.rank", qid);
        const core::SearchResult ranked = core::D3LEngine::RankRows(
            std::move(scored), target.sigs.size(), engine->lake()->size(),
            [engine](uint32_t id) { return engine->indexes().profile(id).ref.table; },
            engine->options().weights, perfbench::kTopK);
      }
    }
    Layer(out, "core.rows_scored", rows / static_cast<double>(n));
    Layer(out, "core.candidates", candidates / static_cast<double>(n));
  }

  // io: the snapshot's sections as found on disk.
  std::map<std::string, double> section_bytes;
  if (auto info = io::InspectFile(SnapshotPath(dir_)); info.ok()) {
    for (const io::SectionInfo& s : info->sections) {
      section_bytes[io::SectionName(s.id)] += static_cast<double>(s.payload_bytes);
    }
  }
  for (const char* section : {"OPTS", "LAKE", "INDX", "ENGN"}) {
    std::string name = std::string("io.section_mb.") + section;
    std::transform(name.begin(), name.end(), name.begin(), ::tolower);
    Layer(out, name, section_bytes[section] / 1e6);
  }
  Layer(out, "io.index_parse_ms", engine_->load_stats().index_parse_seconds * 1000);
  Layer(out, "io.forest_parse_ms", engine_->load_stats().forest_parse_seconds * 1000);
}

void Runner::TraceMetrics(const LoopResult& loop, const LoopResult& traced,
                          const Outcome& outcome, perfbench::ResultLine* out) const {
  const auto spans = perfbench::Spans::Get().Aggregate();
  const auto mean_ms = [&spans](const char* name, bool self = false) {
    auto it = spans.find(name);
    if (it == spans.end() || it->second.count == 0) return 0.0;
    return (self ? it->second.self_seconds : it->second.seconds) /
           static_cast<double>(it->second.count) * 1000;
  };
  for (const char* phase : {"profile", "depth_counts", "stop_depths", "collect", "score",
                            "rank"}) {
    Layer(out, std::string("core.") + phase + "_ms", mean_ms((std::string("core.") + phase).c_str()));
  }
  if (engine_) Layer(out, "core.search_self_ms", mean_ms("core.query", true));
  Layer(out, "core.build_profile_s", BuildValue("core.build_profile_s"));
  Layer(out, "lsh.sign_s", BuildValue("lsh.sign_s"));
  Layer(out, "io.snapshot_write_s", BuildValue("io.snapshot_write_s"));
  if (spec_.join) {
    // The query path's own Algorithm 3 calls and the graph built at open.
    Layer(out, "core.join_graph_build_ms", join_graph_build_ms_);
    Layer(out, "core.join_paths_ms", mean_ms("core.join_paths"));
    std::vector<double> paths;
    for (const Sample& s : traced.samples) paths.push_back(static_cast<double>(s.paths));
    Layer(out, "core.join_paths", perfbench::Mean(paths));
  } else {
    // Algorithm 3 over the reference answers of the output checks.
    Layer(out, "core.join_graph_build_ms", outcome.graph_build_ms);
    Layer(out, "core.join_paths_ms", outcome.paths_ms);
    Layer(out, "core.join_paths", outcome.paths);
  }

  if (!spec_.join) {
    // The untraced half, from the QueryStats the service publishes.
    double hits = 0, misses = 0;
    std::vector<double> hit_ms, miss_ms, search_ms, queue_ms, self_ms;
    for (const Sample& s : loop.samples) {
      if (!s.ok) continue;
      (s.hit ? hits : misses) += 1;
      (s.hit ? hit_ms : miss_ms).push_back(s.ms);
      if (!s.hit) search_ms.push_back(s.search_s * 1000);
      queue_ms.push_back(s.queue_s * 1000);
      self_ms.push_back(s.ms - (s.queue_s + s.profile_s + s.search_s) * 1000);
    }
    Layer(out, "serving.cache_hits", hits);
    Layer(out, "serving.cache_misses", misses);
    Layer(out, "serving.cache_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0);
    Layer(out, "serving.hit_ms", perfbench::Mean(hit_ms));
    Layer(out, "serving.miss_ms", perfbench::Mean(miss_ms));
    Layer(out, "serving.shard_search_ms", perfbench::Mean(search_ms));
    Layer(out, "serving.queue_ms", perfbench::Mean(queue_ms));
    Layer(out, "serving.query_self_ms", perfbench::Mean(self_ms));
  }

  perfbench::ResultLine e2e;
  LatencyMetrics(loop, "untraced_", &e2e);
  LatencyMetrics(traced, "traced_", &e2e);
  for (const char* m : {"query_p50_ms", "query_p99_ms", "query_qps"}) {
    for (const char* side : {"untraced_", "traced_"}) {
      Layer(out, std::string("obs.") + side + m, e2e.Value(std::string(side) + m));
    }
  }
  Layer(out, "proc.cpu_ms_per_query",
        loop.samples.empty() ? 0 : loop.cpu_s / static_cast<double>(loop.samples.size()) * 1000);
}

int Runner::Run() {
  std::fprintf(stderr, "workload %s, seed %llu, %.1fs, trace %d\n", spec_.name,
               static_cast<unsigned long long>(args_.seed), args_.seconds, args_.trace);
  const double g0 = Now();
  data_ = perfbench::MakeLake(spec_);
  std::fprintf(stderr, "lake: %zu tables in %.2fs\n", data_.lake.size(), Now() - g0);
  order_ = perfbench::TargetOrder(data_.lake.size(), args_.seed);

  for (size_t rep = 0; rep < perfbench::kSetupReps; ++rep) {
    const double r0 = Now();
    const Status s = SetupRep(rep + 1 == perfbench::kSetupReps);
    std::fprintf(stderr, "set-up %zu: %.2fs (%.2fs timed)\n", rep + 1, Now() - r0,
                 setup_s_.empty() ? 0.0 : setup_s_.back());
    if (!s.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", s.ToString().c_str());
      Release();
      return 1;
    }
  }

  LoopResult loop, traced;
  std::vector<const LoopResult*> loops = {&loop};
  std::unique_ptr<serving::DiscoveryService> traced_service;
  if (!args_.trace) {
    loop = Loop(args_.seconds, perfbench::kMinQueries, service_.get());
  } else {
    // Untraced and traced halves over the same deployment: their difference
    // is the tracing overhead. Spans are recorded in the traced half only.
    loop = Loop(args_.seconds / 2, perfbench::kMinQueries / 4, service_.get());
    if (!spec_.join) traced_service = MakeService(true);
    perfbench::Spans::Get().Enable(true);
    traced = Loop(args_.seconds / 2, perfbench::kMinQueries / 4, traced_service.get());
    loops.push_back(&traced);
  }
  std::fprintf(stderr, "timed loop: %zu queries in %.2fs\n",
               loop.samples.size() + traced.samples.size(), loop.wall_s + traced.wall_s);
  const uint64_t peak_kb = perfbench::StatusKb(0, "VmHWM");

  perfbench::ResultLine out;
  if (args_.trace) {
    for (const auto& [name, unit] : kLayerMetrics) out.Set(name, unit, 0);
    LayerProbes(&out);
  }
  // Free the served deployment's CPU for the checks.
  traced_service.reset();
  service_.reset();
  const Outcome outcome = Check(loops);
  if (!outcome.correct) std::fprintf(stderr, "output checks FAILED\n");

  if (!args_.trace) {
    out.Set("setup_s", "s", perfbench::Median(setup_s_));
    LatencyMetrics(loop, "", &out);
    out.Set("index_build_s", "s", perfbench::Median(build_s_));
    out.Set("open_ms", "ms", perfbench::Median(open_s_) * 1000);
    out.Set("snapshot_mb", "MB", BuildValue("snapshot_bytes") / 1e6);
    out.Set("peak_rss_mb", "MB", static_cast<double>(peak_kb) / 1024);
    out.Set("precision_at_k", "ratio", outcome.precision);
    out.Set("recall_at_k", "ratio", outcome.recall);
    out.Set("join_coverage_at_k", "ratio", outcome.coverage);
  } else {
    TraceMetrics(loop, traced, outcome, &out);
    if (!args_.spans.empty()) {
      const Status written = perfbench::Spans::Get().WriteJsonLines(args_.spans);
      if (!written.ok()) std::fprintf(stderr, "spans: %s\n", written.ToString().c_str());
    }
  }
  Release();
  uint64_t attempted = 0, failed = 0;
  for (const auto& [kind, counts] : ops_) {
    std::fprintf(stderr, "%s: %llu attempted, %llu failed\n", kind.c_str(),
                 static_cast<unsigned long long>(counts.first),
                 static_cast<unsigned long long>(counts.second));
    attempted += counts.first;
    failed += counts.second;
  }
  std::printf("%s\n", out.Json(outcome.correct, attempted, failed).c_str());
  std::fflush(stdout);
  return outcome.correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage();
  if (perfbench::FindWorkload(args.workload) == nullptr) return Usage();
  if (args.role == "build") return BuildMain(args);
  fs::create_directories(args.dir);
  Runner runner(*perfbench::FindWorkload(args.workload), args);
  return runner.Run();
}
