// The sharded serving subsystem: thread pool, shard planning, manifest
// round trips and damage handling, and — the core property — exact
// scatter-gather: a ShardedEngine over N shards, and the coordinator over N
// single-shard subset engines, return rankings byte-identical to a single
// unsharded engine over the same lake, including distance ties, for N in
// {1, 2, 3, 7} on randomized lakes. Also: malformed targets and stop depths
// are InvalidArgument, and malformed part answers are IOError.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "benchdata/synthetic_gen.h"
#include "core/query.h"
#include "eval/experiment.h"
#include "io/binary_io.h"
#include "serving/manifest.h"
#include "serving/scatter_gather.h"
#include "serving/shard_builder.h"
#include "serving/sharded_engine.h"
#include "serving/thread_pool.h"
#include "table/lake.h"
#include "tests/test_util.h"

namespace d3l {
namespace {

namespace fs = std::filesystem;

class ServingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("d3l_serving_test_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string Base(const std::string& name) const { return (dir_ / name).string(); }

  fs::path dir_;
};

// A lake with guaranteed exact distance ties: byte-identical tables under
// different names land in different shards, so only a deterministic
// tie-break (global table id) keeps the sharded ranking byte-identical.
DataLake MakeTieLake() {
  DataLake lake;
  lake.AddTable(testutil::FigureS1()).CheckOK();
  lake.AddTable(testutil::FigureS2()).CheckOK();
  lake.AddTable(testutil::FigureS3()).CheckOK();
  for (int salt = 0; salt < 2; ++salt) {
    lake.AddTable(testutil::FillerColors(salt)).CheckOK();
    lake.AddTable(testutil::FillerInventory(salt)).CheckOK();
    lake.AddTable(testutil::FillerWeather(salt)).CheckOK();
  }
  Table dup1 = testutil::FigureS2();
  dup1.set_name("zz_dup_a");
  lake.AddTable(std::move(dup1)).CheckOK();
  Table dup2 = testutil::FigureS2();
  dup2.set_name("zz_dup_b");
  lake.AddTable(std::move(dup2)).CheckOK();
  return lake;
}

DataLake MakeSyntheticLake(uint64_t seed) {
  benchdata::SyntheticOptions opts;
  opts.num_base_tables = 5;
  opts.derived_per_base = 3;
  opts.base_rows_min = 40;
  opts.base_rows_max = 80;
  opts.seed = seed;
  auto gen = benchdata::GenerateSynthetic(opts);
  gen.status().CheckOK();
  return std::move(gen->lake);
}

void ExpectIdenticalResults(const core::SearchResult& expected,
                            const core::SearchResult& actual,
                            const std::string& context) {
  ASSERT_EQ(actual.ranked.size(), expected.ranked.size()) << context;
  for (size_t i = 0; i < expected.ranked.size(); ++i) {
    const core::TableMatch& e = expected.ranked[i];
    const core::TableMatch& a = actual.ranked[i];
    EXPECT_EQ(a.table_index, e.table_index) << context << " rank " << i;
    // Bitwise equality, not approximate: the scatter-gather pipeline must
    // reproduce the single engine's floating-point work exactly.
    EXPECT_EQ(a.distance, e.distance) << context << " rank " << i;
    EXPECT_EQ(a.evidence_distances, e.evidence_distances) << context << " rank " << i;
    ASSERT_EQ(a.pairs.size(), e.pairs.size()) << context << " rank " << i;
    for (size_t p = 0; p < e.pairs.size(); ++p) {
      EXPECT_EQ(a.pairs[p].target_column, e.pairs[p].target_column);
      EXPECT_EQ(a.pairs[p].attribute_id, e.pairs[p].attribute_id);
      EXPECT_EQ(a.pairs[p].d, e.pairs[p].d);
    }
  }
  // Candidate alignments (Algorithm 3's input) must agree as maps.
  ASSERT_EQ(actual.candidate_alignments.size(), expected.candidate_alignments.size())
      << context;
  for (const auto& [table, aligns] : expected.candidate_alignments) {
    auto it = actual.candidate_alignments.find(table);
    ASSERT_NE(it, actual.candidate_alignments.end()) << context;
    EXPECT_EQ(it->second, aligns) << context << " table " << table;
  }
}

// ------------------------------------------------------------ thread pool

TEST(ThreadPoolTest, RunsEveryIterationExactlyOnce) {
  for (size_t workers : {size_t{0}, size_t{1}, size_t{4}}) {
    serving::ThreadPool pool(workers);
    std::vector<std::atomic<int>> hits(257);
    pool.ParallelFor(hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "workers=" << workers << " i=" << i;
    }
  }
}

TEST(ThreadPoolTest, BackToBackBatchesAndEmptyBatch) {
  serving::ThreadPool pool(2);
  pool.ParallelFor(0, [](size_t) { FAIL() << "empty batch must not run"; });
  std::atomic<size_t> total{0};
  for (int round = 0; round < 20; ++round) {
    pool.ParallelFor(10, [&](size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 200u);
}

// -------------------------------------------------------------- planning

TEST(PlanShardsTest, RoundRobinAssignsByIndex) {
  DataLake lake = testutil::FigureLake(4);
  serving::ShardingOptions options;
  options.num_shards = 3;
  options.balance = serving::ShardingOptions::Balance::kRoundRobin;
  auto plan = serving::PlanShards(lake, options);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->size(), 3u);
  for (size_t s = 0; s < plan->size(); ++s) {
    for (uint32_t g : (*plan)[s]) EXPECT_EQ(g % 3, s);
  }
}

TEST(PlanShardsTest, SizeBalancedCoversAllTablesOnce) {
  DataLake lake = MakeTieLake();
  serving::ShardingOptions options;
  options.num_shards = 4;
  auto plan = serving::PlanShards(lake, options);
  ASSERT_TRUE(plan.ok());
  std::set<uint32_t> seen;
  for (const auto& shard : *plan) {
    EXPECT_FALSE(shard.empty());
    EXPECT_TRUE(std::is_sorted(shard.begin(), shard.end()));
    for (uint32_t g : shard) EXPECT_TRUE(seen.insert(g).second);
  }
  EXPECT_EQ(seen.size(), lake.size());
}

TEST(PlanShardsTest, RejectsDegenerateShardCounts) {
  DataLake lake = testutil::FigureLake(0);
  serving::ShardingOptions options;
  options.num_shards = 0;
  EXPECT_TRUE(serving::PlanShards(lake, options).status().IsInvalidArgument());
  options.num_shards = lake.size() + 1;
  EXPECT_TRUE(serving::PlanShards(lake, options).status().IsInvalidArgument());
}

// ------------------------------------------------------------ exact merge

class ShardedParityTest : public ServingTest {
 protected:
  // Builds shards of `lake`, opens a ShardedEngine and asserts byte-equal
  // rankings against `unsharded` for every target.
  void CheckParity(const DataLake& lake, const core::D3LEngine& unsharded,
                   const std::vector<Table>& targets, size_t num_shards,
                   serving::ShardingOptions::Balance balance, size_t k) {
    serving::ShardingOptions options;
    options.num_shards = num_shards;
    options.balance = balance;
    const std::string base = Base(std::string("n").append(std::to_string(num_shards)));
    auto report = serving::BuildShards(lake, options, base);
    ASSERT_TRUE(report.ok()) << report.status().ToString();

    serving::ShardedEngineOptions open_options;
    open_options.num_threads = 3;
    auto sharded = serving::ShardedEngine::Open(report->manifest_path, open_options);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    EXPECT_EQ((*sharded)->num_shards(), num_shards);
    EXPECT_EQ((*sharded)->num_tables(), lake.size());

    // The same deployment as N parts: one subset engine per shard, driven
    // by the coordinator on a pool of its own (each part fans out on its
    // own pool, so nothing re-enters a pool from its workers).
    std::vector<std::unique_ptr<serving::ShardedEngine>> subsets;
    std::vector<const serving::ShardClient*> parts;
    for (size_t s = 0; s < num_shards; ++s) {
      serving::ShardedEngineOptions subset_options;
      subset_options.num_threads = 2;
      subset_options.serve_shards = {s};
      auto subset = serving::ShardedEngine::Open(report->manifest_path, subset_options);
      ASSERT_TRUE(subset.ok()) << subset.status().ToString();
      subsets.push_back(std::move(*subset));
      parts.push_back(subsets.back().get());
    }
    // Global ids are the unsharded lake's numbering.
    std::vector<uint32_t> attr_table(unsharded.indexes().num_attributes());
    for (uint32_t id = 0; id < attr_table.size(); ++id) {
      attr_table[id] = unsharded.indexes().profile(id).ref.table;
    }
    serving::ThreadPool coordinator_pool(2);

    for (const Table& target : targets) {
      const std::string context =
          "shards=" + std::to_string(num_shards) + " target=" + target.name();
      auto expected = unsharded.Search(target, k);
      auto actual = (*sharded)->Search(target, k);
      ASSERT_TRUE(expected.ok());
      ASSERT_TRUE(actual.ok()) << actual.status().ToString();
      ExpectIdenticalResults(*expected, *actual, context);

      auto gathered = serving::ScatterGatherSearch(
          parts, unsharded.ProfileTarget(target), k, unsharded.options().enabled,
          unsharded.options(), attr_table, lake.size(), &coordinator_pool);
      ASSERT_TRUE(gathered.ok()) << gathered.status().ToString();
      ExpectIdenticalResults(*expected, *gathered, context + " (subset parts)");
    }
  }
};

TEST_F(ShardedParityTest, TieLakeMatchesUnshardedAtEveryShardCount) {
  DataLake lake = MakeTieLake();
  core::D3LEngine unsharded;
  ASSERT_TRUE(unsharded.IndexLake(lake).ok());

  std::vector<Table> targets = {testutil::FigureTarget(), lake.table(1),
                                lake.table(4)};
  for (size_t n : {size_t{1}, size_t{2}, size_t{3}, size_t{7}}) {
    CheckParity(lake, unsharded, targets, n,
                serving::ShardingOptions::Balance::kSizeBalanced, 10);
  }
  // Round-robin spreads the duplicate tables differently; parity must hold
  // regardless of the partitioning policy.
  CheckParity(lake, unsharded, targets, 3,
              serving::ShardingOptions::Balance::kRoundRobin, 10);
}

TEST_F(ShardedParityTest, RandomizedLakesMatchUnsharded) {
  for (uint64_t seed : {uint64_t{7}, uint64_t{1234}}) {
    DataLake lake = MakeSyntheticLake(seed);
    core::D3LEngine unsharded;
    ASSERT_TRUE(unsharded.IndexLake(lake).ok());

    std::vector<Table> targets;
    for (uint32_t t : eval::SampleTargets(lake, 4, seed + 1)) {
      targets.push_back(lake.table(t));
    }
    for (size_t n : {size_t{2}, size_t{3}, size_t{7}}) {
      CheckParity(lake, unsharded, targets, n,
                  serving::ShardingOptions::Balance::kSizeBalanced, 15);
    }
  }
}

TEST_F(ShardedParityTest, DuplicateTablesTieBreakDeterministically) {
  DataLake lake = MakeTieLake();
  core::D3LEngine unsharded;
  ASSERT_TRUE(unsharded.IndexLake(lake).ok());
  // S2 and its two byte-identical copies must produce exact distance ties.
  auto res = unsharded.Search(testutil::FigureTarget(), lake.size());
  ASSERT_TRUE(res.ok());
  int s2_family = 0;
  double s2_distance = -1;
  for (const core::TableMatch& m : res->ranked) {
    const std::string& name = lake.table(m.table_index).name();
    if (name == "s2_gp_funding" || name == "zz_dup_a" || name == "zz_dup_b") {
      ++s2_family;
      if (s2_distance < 0) {
        s2_distance = m.distance;
      } else {
        EXPECT_EQ(m.distance, s2_distance) << name;
      }
    }
  }
  EXPECT_EQ(s2_family, 3);
}

// ------------------------------------------------------- malformed input

class ScatterGatherInputTest : public ServingTest {
 protected:
  void SetUp() override {
    ServingTest::SetUp();
    lake_ = MakeTieLake();
    serving::ShardingOptions options;
    options.num_shards = 3;
    auto report = serving::BuildShards(lake_, options, Base("input"));
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    manifest_path_ = report->manifest_path;
    auto sharded = serving::ShardedEngine::Open(manifest_path_);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    sharded_ = std::move(*sharded);
    auto target = sharded_->Profile(testutil::FigureTarget());
    ASSERT_TRUE(target.ok());
    target_ = std::move(*target);
    // Global ids are the unsharded lake's numbering.
    core::D3LEngine unsharded;
    ASSERT_TRUE(unsharded.IndexLake(lake_).ok());
    for (uint32_t id = 0; id < unsharded.indexes().num_attributes(); ++id) {
      attr_table_.push_back(unsharded.indexes().profile(id).ref.table);
    }
  }

  Result<core::SearchResult> Gather(const std::vector<const serving::ShardClient*>& parts) {
    return serving::ScatterGatherSearch(parts, target_, 10, sharded_->options().enabled,
                                        sharded_->options(), attr_table_, lake_.size());
  }

  DataLake lake_;
  std::string manifest_path_;
  std::unique_ptr<serving::ShardedEngine> sharded_;
  core::QueryTarget target_;
  std::vector<uint32_t> attr_table_;
};

TEST_F(ScatterGatherInputTest, MalformedTargetsAndStopsAreInvalidArgument) {
  const auto mask = sharded_->options().enabled;
  Table empty("empty");
  EXPECT_TRUE(sharded_->Search(empty, 5).status().IsInvalidArgument());
  EXPECT_TRUE(sharded_->Search(core::QueryTarget{}, 5, mask).status().IsInvalidArgument());

  // A signature of the wrong length would index past an LSH key.
  core::QueryTarget short_sig = target_;
  short_sig.sigs[0].name_sig.resize(3);
  EXPECT_TRUE(sharded_->Search(short_sig, 5, mask).status().IsInvalidArgument());
  EXPECT_TRUE(
      sharded_->CollectDepthCounts(short_sig, mask, 64).status().IsInvalidArgument());
  EXPECT_TRUE(sharded_->shard(0).SearchTarget(short_sig, 5, mask).status().IsInvalidArgument());
  core::QueryTarget bad_bits = target_;
  bad_bits.sigs[0].has_embedding = true;
  bad_bits.sigs[0].emb_sig.bits = 7;
  EXPECT_TRUE(sharded_->Search(bad_bits, 5, mask).status().IsInvalidArgument());

  // Stop depths: one per column, none deeper than its forest.
  auto counts = sharded_->CollectDepthCounts(target_, mask, 64);
  ASSERT_TRUE(counts.ok());
  core::CandidateStopDepths stops = core::D3LEngine::ResolveStopDepths(*counts, 64);
  ASSERT_TRUE(sharded_->ScoreAtStops(target_, stops, 64, mask).ok());
  core::CandidateStopDepths deep = stops;
  deep.depths[0][static_cast<size_t>(core::Evidence::kName)] = 1000;
  EXPECT_TRUE(sharded_->ScoreAtStops(target_, deep, 64, mask).status().IsInvalidArgument());
  core::CandidateStopDepths deep_emb = stops;
  deep_emb.depths[0][static_cast<size_t>(core::Evidence::kEmbedding)] =
      core::ForestDepth(sharded_->options().index, core::Evidence::kEmbedding) + 1;
  EXPECT_TRUE(
      sharded_->ScoreAtStops(target_, deep_emb, 64, mask).status().IsInvalidArgument());
  core::CandidateStopDepths short_stops = stops;
  short_stops.depths.pop_back();
  EXPECT_TRUE(
      sharded_->ScoreAtStops(target_, short_stops, 64, mask).status().IsInvalidArgument());

  // A subset engine cannot answer a whole-lake Search.
  serving::ShardedEngineOptions subset_options;
  subset_options.serve_shards = {1};
  auto subset = serving::ShardedEngine::Open(manifest_path_, subset_options);
  ASSERT_TRUE(subset.ok()) << subset.status().ToString();
  EXPECT_TRUE((*subset)->Search(target_, 5, mask).status().IsInvalidArgument());
}

/// A part that answers like `inner`, then lets the test damage the answer.
class TamperingPart : public serving::ShardClient {
 public:
  TamperingPart(const serving::ShardClient* inner,
                std::function<void(core::CandidateDepthCounts*)> damage_counts,
                std::function<void(serving::ShardScore*)> damage_score)
      : inner_(inner),
        damage_counts_(std::move(damage_counts)),
        damage_score_(std::move(damage_score)) {}

  Result<core::CandidateDepthCounts> CollectDepthCounts(
      const core::QueryTarget& target,
      const std::array<bool, core::kNumEvidence>& enabled_mask,
      size_t m) const override {
    auto counts = inner_->CollectDepthCounts(target, enabled_mask, m);
    if (counts.ok() && damage_counts_) damage_counts_(&*counts);
    return counts;
  }

  Result<serving::ShardScore> ScoreAtStops(
      const core::QueryTarget& target, const core::CandidateStopDepths& stops,
      size_t m, const std::array<bool, core::kNumEvidence>& enabled_mask) const override {
    auto score = inner_->ScoreAtStops(target, stops, m, enabled_mask);
    if (score.ok() && damage_score_) damage_score_(&*score);
    return score;
  }

 private:
  const serving::ShardClient* inner_;
  std::function<void(core::CandidateDepthCounts*)> damage_counts_;
  std::function<void(serving::ShardScore*)> damage_score_;
};

TEST_F(ScatterGatherInputTest, MalformedPartAnswersAreIOError) {
  // Undamaged, the wrapper is the engine itself.
  auto reference = sharded_->Search(target_, 10, sharded_->options().enabled);
  ASSERT_TRUE(reference.ok());
  TamperingPart honest(sharded_.get(), nullptr, nullptr);
  auto gathered = Gather({&honest});
  ASSERT_TRUE(gathered.ok()) << gathered.status().ToString();
  ExpectIdenticalResults(*reference, *gathered, "honest wrapper");

  const size_t n_attrs = attr_table_.size();
  const size_t name = static_cast<size_t>(core::Evidence::kName);
  const std::vector<std::pair<std::string, TamperingPart>> cases = {
      {"counts for an extra column",
       TamperingPart(sharded_.get(),
                     [](core::CandidateDepthCounts* c) { c->counts.emplace_back(); },
                     nullptr)},
      {"a longer depth histogram",
       TamperingPart(sharded_.get(),
                     [name](core::CandidateDepthCounts* c) {
                       c->counts[0][name].push_back(1);
                     },
                     nullptr)},
      {"lists for a missing column",
       TamperingPart(sharded_.get(), nullptr,
                     [](serving::ShardScore* s) { s->lists.ids.pop_back(); })},
      {"a candidate id past the registry",
       TamperingPart(sharded_.get(), nullptr,
                     [name, n_attrs](serving::ShardScore* s) {
                       s->lists.ids[0][name].push_back(static_cast<uint32_t>(n_attrs));
                     })},
      {"a row attribute past the registry",
       TamperingPart(sharded_.get(), nullptr,
                     [n_attrs](serving::ShardScore* s) {
                       s->rows.front().attribute_id = static_cast<uint32_t>(n_attrs + 5);
                     })},
      {"a row column past the target",
       TamperingPart(sharded_.get(), nullptr,
                     [this](serving::ShardScore* s) {
                       s->rows.back().target_column =
                           static_cast<uint32_t>(target_.sigs.size());
                     })},
  };
  for (const auto& [what, part] : cases) {
    // In either position: counts whose shape differs from the first part's
    // are caught on the second.
    for (const auto& parts : std::vector<std::vector<const serving::ShardClient*>>{
             {&part, &honest}, {&honest, &part}}) {
      auto result = Gather(parts);
      ASSERT_FALSE(result.ok()) << what;
      EXPECT_TRUE(result.status().IsIOError()) << what << ": " << result.status().ToString();
    }
  }
}

// -------------------------------------------------------- manifest damage

class ShardDamageTest : public ServingTest {
 protected:
  std::string BuildSet(size_t num_shards = 3) {
    lake_ = MakeTieLake();
    serving::ShardingOptions options;
    options.num_shards = num_shards;
    auto report = serving::BuildShards(lake_, options, Base("victim"));
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    report_ = *report;
    return report_.manifest_path;
  }

  DataLake lake_;
  serving::ShardBuildReport report_;
};

TEST_F(ShardDamageTest, MissingShardFileFailsCleanly) {
  std::string manifest = BuildSet();
  fs::remove(report_.shard_paths[1]);
  auto opened = serving::ShardedEngine::Open(manifest);
  ASSERT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsNotFound()) << opened.status().ToString();
}

TEST_F(ShardDamageTest, CorruptShardFileFailsChecksum) {
  std::string manifest = BuildSet();
  // Flip one byte in the middle of shard 2's snapshot.
  std::fstream f(report_.shard_paths[2],
                 std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good());
  f.seekg(0, std::ios::end);
  auto size = static_cast<std::streamoff>(f.tellg());
  f.seekp(size / 2);
  char c;
  f.seekg(size / 2);
  f.get(c);
  f.seekp(size / 2);
  f.put(static_cast<char>(c ^ 0x20));
  f.close();

  auto opened = serving::ShardedEngine::Open(manifest);
  ASSERT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsIOError());
  EXPECT_NE(opened.status().message().find("checksum"), std::string::npos)
      << opened.status().ToString();

  // With verification off, the per-section CRCs of the snapshot reader
  // still catch the damage at load time.
  serving::ShardedEngineOptions no_verify;
  no_verify.verify_checksums = false;
  EXPECT_FALSE(serving::ShardedEngine::Open(manifest, no_verify).ok());
}

TEST_F(ShardDamageTest, ShardCountMismatchFailsValidation) {
  std::string manifest_path = BuildSet();
  auto manifest = serving::ShardManifest::Load(manifest_path);
  ASSERT_TRUE(manifest.ok());
  // Drop a shard: its tables are no longer covered.
  serving::ShardManifest truncated = *manifest;
  truncated.shards.pop_back();
  EXPECT_TRUE(truncated.Validate().IsInvalidArgument());
  EXPECT_TRUE(truncated.Save(Base("truncated.manifest")).IsInvalidArgument());

  // Duplicate coverage is rejected too.
  serving::ShardManifest duplicated = *manifest;
  duplicated.shards[0].global_tables = duplicated.shards[1].global_tables;
  duplicated.shards[0].num_tables = duplicated.shards[1].num_tables;
  EXPECT_TRUE(duplicated.Validate().IsInvalidArgument());
}

TEST_F(ShardDamageTest, ShardContentsMustMatchManifestCounts) {
  std::string manifest_path = BuildSet();
  auto manifest = serving::ShardManifest::Load(manifest_path);
  ASSERT_TRUE(manifest.ok());
  // Point shard 0's entry at shard 1's file (both valid snapshots, but the
  // table sets disagree with the manifest's global mapping). Size/CRC are
  // patched to shard 1's so only the content check can catch it.
  serving::ShardManifest swapped = *manifest;
  swapped.shards[0].file = swapped.shards[1].file;
  swapped.shards[0].file_bytes = swapped.shards[1].file_bytes;
  swapped.shards[0].file_crc32 = swapped.shards[1].file_crc32;
  const std::string path = Base("swapped.manifest");
  ASSERT_TRUE(swapped.Save(path).ok());
  auto opened = serving::ShardedEngine::Open(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsIOError()) << opened.status().ToString();
}

TEST_F(ShardDamageTest, SwappedSameShapedShardFilesAreRejected) {
  // Four byte-identical tables (distinct names) round-robined into two
  // shards of identical shape: swapping the shard files leaves every
  // count and even the file checksums consistent with the (also swapped)
  // entries, so only the schema fingerprint can detect the mix-up.
  DataLake lake;
  for (int i = 0; i < 4; ++i) {
    Table t = testutil::FigureS2();
    t.set_name("clone_" + std::to_string(i));
    lake.AddTable(std::move(t)).CheckOK();
  }
  serving::ShardingOptions options;
  options.num_shards = 2;
  options.balance = serving::ShardingOptions::Balance::kRoundRobin;
  auto report = serving::BuildShards(lake, options, Base("same_shape"));
  ASSERT_TRUE(report.ok());

  auto manifest = serving::ShardManifest::Load(report->manifest_path);
  ASSERT_TRUE(manifest.ok());
  serving::ShardManifest swapped = *manifest;
  std::swap(swapped.shards[0].file, swapped.shards[1].file);
  std::swap(swapped.shards[0].file_bytes, swapped.shards[1].file_bytes);
  std::swap(swapped.shards[0].file_crc32, swapped.shards[1].file_crc32);
  const std::string path = Base("same_shape_swapped.manifest");
  ASSERT_TRUE(swapped.Save(path).ok());

  auto opened = serving::ShardedEngine::Open(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_NE(opened.status().message().find("does not contain the tables"),
            std::string::npos)
      << opened.status().ToString();
}

TEST_F(ShardDamageTest, ForeignFileIsNotAManifest) {
  std::string snapshot = Base("plain.d3l");
  core::D3LEngine engine;
  DataLake lake = testutil::FigureLake(2);
  ASSERT_TRUE(engine.IndexLake(lake).ok());
  ASSERT_TRUE(engine.SaveSnapshot(snapshot).ok());
  auto opened = serving::ShardedEngine::Open(snapshot);
  ASSERT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsInvalidArgument());
}

// ----------------------------------------------------------- inspection

TEST_F(ServingTest, InspectFileListsSectionsAndDetectsDamage) {
  DataLake lake = testutil::FigureLake(2);
  core::D3LEngine engine;
  ASSERT_TRUE(engine.IndexLake(lake).ok());
  const std::string path = Base("inspect.d3l");
  ASSERT_TRUE(engine.SaveSnapshot(path).ok());

  auto info = io::InspectFile(path);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->magic, std::string(core::D3LEngine::kSnapshotMagic, 8));
  EXPECT_EQ(info->version, core::D3LEngine::kSnapshotVersion);
  ASSERT_EQ(info->sections.size(), 4u);
  EXPECT_EQ(io::SectionName(info->sections[0].id), "OPTS");
  EXPECT_EQ(io::SectionName(info->sections[2].id), "INDX");
  for (const io::SectionInfo& s : info->sections) EXPECT_TRUE(s.crc_ok);
  EXPECT_EQ(info->file_bytes, fs::file_size(path));

  // Snapshot metadata without loading indexes.
  auto snap = core::D3LEngine::ReadSnapshotInfo(path);
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->num_tables, lake.size());
  EXPECT_EQ(snap->num_attributes, engine.indexes().num_attributes());

  // A bit flip inside a payload flips exactly that section's crc_ok.
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(40);  // inside the OPTS payload
  f.put('\x7f');
  f.close();
  auto damaged = io::InspectFile(path);
  ASSERT_TRUE(damaged.ok());
  EXPECT_FALSE(damaged->sections[0].crc_ok);
  EXPECT_TRUE(damaged->sections[2].crc_ok);
}

}  // namespace
}  // namespace d3l
