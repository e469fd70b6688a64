#include "core/distance.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/random.h"
#include "core/query.h"
#include "tests/test_util.h"

namespace d3l::core {
namespace {

// ---------------------------------------------------------------------------
// Reference Algorithm 2, written as plainly as the paper states it: fresh
// threshold lookups per pair, membership by linear search, and KS over
// copied and re-sorted samples. DistributionScorer (and through it
// D3LEngine::ScoreCandidates) must agree with it on every pair.

double ReferenceKs(std::vector<double> a, std::vector<double> b) {
  if (a.empty() || b.empty()) return 1.0;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  size_t i = 0;
  size_t j = 0;
  double d = 0;
  const double na = static_cast<double>(a.size());
  const double nb = static_cast<double>(b.size());
  while (i < a.size() && j < b.size()) {
    double x = std::min(a[i], b[j]);
    while (i < a.size() && a[i] <= x) ++i;
    while (j < b.size() && b[j] <= x) ++j;
    d = std::max(d, std::fabs(static_cast<double>(i) / na - static_cast<double>(j) / nb));
  }
  return d;
}

bool InThresholdLookup(const D3LIndexes& indexes, Evidence e,
                       const AttributeSignatures& query, uint32_t id) {
  std::vector<uint32_t> hits = indexes.LookupThreshold(e, query);
  return std::find(hits.begin(), hits.end(), id) != hits.end();
}

/// DD(a, a'): `target_subject` is the target table's subject attribute
/// (nullptr if none), `source_subject_id` the candidate table's (UINT32_MAX
/// if none).
double ReferenceDistribution(const D3LIndexes& indexes, const AttributeProfile& target,
                             const AttributeSignatures& target_sigs, uint32_t candidate_id,
                             const AttributeSignatures* target_subject,
                             uint32_t source_subject_id) {
  const AttributeProfile& cand = indexes.profile(candidate_id);
  if (!target.is_numeric || !cand.is_numeric) return 1.0;
  if (target.numeric_sample.empty() || cand.numeric_sample.empty()) return 1.0;
  bool guard_passed = false;
  // Line 4: subject attributes related under any index (I*).
  if (target_subject != nullptr && source_subject_id != UINT32_MAX) {
    for (Evidence e : {Evidence::kName, Evidence::kValue, Evidence::kFormat,
                       Evidence::kEmbedding}) {
      guard_passed =
          guard_passed || InThresholdLookup(indexes, e, *target_subject, source_subject_id);
    }
  }
  // Lines 5-6: a' in IN.lookup(a) or a' in IF.lookup(a).
  guard_passed = guard_passed ||
                 InThresholdLookup(indexes, Evidence::kName, target_sigs, candidate_id) ||
                 InThresholdLookup(indexes, Evidence::kFormat, target_sigs, candidate_id);
  if (!guard_passed) return 1.0;  // line 7
  return ReferenceKs(target.numeric_sample, cand.numeric_sample);
}

// Builds numeric tables with controlled distributions plus textual anchors.
Table NumericTable(const std::string& name, const std::string& num_col_name,
                   double mean, double stddev, uint64_t seed, size_t rows = 120) {
  Rng rng(seed);
  std::vector<std::vector<std::string>> data;
  for (size_t i = 0; i < rows; ++i) {
    char buf[32];
    snprintf(buf, sizeof(buf), "%.2f", rng.Gaussian(mean, stddev));
    data.push_back({"entity_" + std::to_string(seed) + "_" + std::to_string(i), buf});
  }
  return testutil::MakeTable(name, {"Entity", num_col_name}, data);
}

class DistanceTest : public ::testing::Test {
 protected:
  DistanceTest() : indexes_(IndexOptions{}), cache_(&wem_) {}

  uint32_t Insert(const Table& t, size_t col, uint32_t table_id) {
    AttributeProfile p = BuildProfile(t, col, wem_, &cache_);
    p.ref = AttributeRef{table_id, static_cast<uint32_t>(col)};
    return indexes_.Insert(std::move(p));
  }

  // DD through the scorer, checked against the reference on the way.
  double Distribution(const AttributeProfile& q, const AttributeSignatures& qs,
                      uint32_t candidate_id,
                      const AttributeSignatures* target_subject = nullptr,
                      uint32_t source_subject_id = UINT32_MAX) {
    DistributionScorer scorer(indexes_, target_subject);
    scorer.SetColumn(q, qs);
    const double d = scorer.Distance(candidate_id, source_subject_id);
    EXPECT_EQ(d, ReferenceDistribution(indexes_, q, qs, candidate_id, target_subject,
                                       source_subject_id));
    return d;
  }

  SubwordHashModel wem_;
  D3LIndexes indexes_;
  CachingEmbedder cache_;
};

TEST_F(DistanceTest, GuardPassesViaNameIndex) {
  // Same attribute name ("Age") on both sides: IN guard passes, KS runs.
  Table a = NumericTable("a", "Age", 50, 10, 1);
  Table b = NumericTable("b", "Age", 50, 10, 2);
  Insert(b, 1, 1);
  indexes_.Finalize();

  AttributeProfile qa = BuildProfile(a, 1, wem_, &cache_);
  AttributeSignatures qs = indexes_.Sign(qa);
  EXPECT_LT(Distribution(qa, qs, 0), 0.25);  // same distribution -> small KS
}

TEST_F(DistanceTest, GuardBlocksUnrelatedNumericPairs) {
  // Different names, different formats (ints vs decimals) and no subject
  // relation: Algorithm 2 returns 1 without computing KS.
  Rng rng(3);
  std::vector<std::vector<std::string>> rows_a;
  std::vector<std::vector<std::string>> rows_b;
  for (int i = 0; i < 100; ++i) {
    rows_a.push_back({std::string("e").append(std::to_string(i)),
                      std::to_string(rng.UniformInt(0, 99))});
    char buf[32];
    snprintf(buf, sizeof(buf), "%.4f", rng.UniformDouble(0, 1));
    rows_b.push_back({std::string("x").append(std::to_string(i)), buf});
  }
  Table a = testutil::MakeTable("a", {"Entity", "Age"}, rows_a);
  Table b = testutil::MakeTable("b", {"Thing", "Fraction"}, rows_b);
  Insert(b, 1, 1);
  indexes_.Finalize();

  AttributeProfile qa = BuildProfile(a, 1, wem_, &cache_);
  AttributeSignatures qs = indexes_.Sign(qa);
  EXPECT_DOUBLE_EQ(Distribution(qa, qs, 0), 1.0);
}

TEST_F(DistanceTest, GuardPassesViaSubjectRelation) {
  // Names/formats differ ("Age" int vs "Years" decimal), but the two
  // tables share subject-attribute values: line 4 of Algorithm 2 passes.
  std::vector<std::vector<std::string>> rows_a;
  std::vector<std::vector<std::string>> rows_b;
  Rng rng(4);
  for (int i = 0; i < 100; ++i) {
    std::string entity = "shared_entity_" + std::to_string(i);
    rows_a.push_back({entity, std::to_string(rng.UniformInt(0, 99))});
    char buf[32];
    snprintf(buf, sizeof(buf), "%.1f", rng.UniformDouble(0, 99));
    rows_b.push_back({entity, buf});
  }
  Table a = testutil::MakeTable("a", {"Entity", "Age"}, rows_a);
  Table b = testutil::MakeTable("b", {"Member", "Years"}, rows_b);

  uint32_t b_subject = Insert(b, 0, 1);
  Insert(b, 1, 1);
  indexes_.Finalize();

  AttributeProfile qa = BuildProfile(a, 1, wem_, &cache_);
  AttributeSignatures qs = indexes_.Sign(qa);
  AttributeProfile subj_prof = BuildProfile(a, 0, wem_, &cache_);
  AttributeSignatures subj_sigs = indexes_.Sign(subj_prof);

  EXPECT_LT(Distribution(qa, qs, 1, &subj_sigs, b_subject), 1.0);  // KS computed
  // Without the subject relation on either side the guard blocks the pair.
  EXPECT_DOUBLE_EQ(Distribution(qa, qs, 1, nullptr, b_subject), 1.0);
  EXPECT_DOUBLE_EQ(Distribution(qa, qs, 1, &subj_sigs, UINT32_MAX), 1.0);
}

TEST_F(DistanceTest, NonNumericPairsAlwaysOne) {
  Table s1 = testutil::FigureS1();
  Insert(s1, 0, 0);
  indexes_.Finalize();
  AttributeProfile q = BuildProfile(testutil::FigureTarget(), 0, wem_, &cache_);
  AttributeSignatures qs = indexes_.Sign(q);
  EXPECT_DOUBLE_EQ(Distribution(q, qs, 0), 1.0);
}

TEST_F(DistanceTest, KsSeparatesDistributionsWhenGuardPasses) {
  Table a = NumericTable("a", "Age", 50, 10, 7);
  Table same = NumericTable("s", "Age", 50, 10, 8);
  Table shifted = NumericTable("d", "Age", 200, 10, 9);
  uint32_t same_id = Insert(same, 1, 1);
  uint32_t shifted_id = Insert(shifted, 1, 2);
  indexes_.Finalize();

  AttributeProfile qa = BuildProfile(a, 1, wem_, &cache_);
  AttributeSignatures qs = indexes_.Sign(qa);
  EXPECT_LT(Distribution(qa, qs, same_id), 0.25);
  // Same name => guard passes, but disjoint distributions => KS ~ 1.
  EXPECT_GT(Distribution(qa, qs, shifted_id), 0.9);
}

TEST_F(DistanceTest, ScorerFollowsColumnChanges) {
  // One scorer across columns: the IN/IF hits of the first column must not
  // leak into the second. "Age" admits the Age candidate by name; "Fraction"
  // (different name and format) does not.
  Table a = NumericTable("a", "Age", 50, 10, 31);
  Table b = NumericTable("b", "Age", 50, 10, 32);
  uint32_t id = Insert(b, 1, 1);
  indexes_.Finalize();

  Rng rng(5);
  std::vector<std::vector<std::string>> rows;
  for (int i = 0; i < 100; ++i) {
    char buf[32];
    snprintf(buf, sizeof(buf), "%.4f", rng.UniformDouble(0, 1));
    rows.push_back({std::string("x").append(std::to_string(i)), buf});
  }
  Table f = testutil::MakeTable("f", {"Thing", "Fraction"}, rows);
  AttributeProfile qa = BuildProfile(a, 1, wem_, &cache_);
  AttributeSignatures qas = indexes_.Sign(qa);
  AttributeProfile qf = BuildProfile(f, 1, wem_, &cache_);
  AttributeSignatures qfs = indexes_.Sign(qf);

  DistributionScorer scorer(indexes_, nullptr);
  scorer.SetColumn(qa, qas);
  EXPECT_LT(scorer.Distance(id, UINT32_MAX), 1.0);
  scorer.SetColumn(qf, qfs);
  EXPECT_DOUBLE_EQ(scorer.Distance(id, UINT32_MAX), 1.0);
  scorer.SetColumn(qa, qas);
  EXPECT_LT(scorer.Distance(id, UINT32_MAX), 1.0);
}

TEST_F(DistanceTest, DistanceVectorFillsAllFive) {
  Table s2 = testutil::FigureS2();
  for (size_t c = 0; c < s2.num_columns(); ++c) Insert(s2, c, 0);
  indexes_.Finalize();

  Table target = testutil::FigureTarget();
  AttributeProfile q = BuildProfile(target, 3, wem_, &cache_);  // Postcode
  AttributeSignatures qs = indexes_.Sign(q);
  DistanceVector d = MaxDistances();
  for (Evidence e : {Evidence::kName, Evidence::kValue, Evidence::kFormat,
                     Evidence::kEmbedding}) {
    d[static_cast<size_t>(e)] = indexes_.EstimateDistance(e, qs, 2);  // S2.Postcode
  }
  d[static_cast<size_t>(Evidence::kDistribution)] = Distribution(q, qs, 2);
  // Identical name: DN == 0; strong value overlap: DV < 1; same format.
  EXPECT_LT(d[0], 0.05);
  EXPECT_LT(d[1], 0.8);
  EXPECT_LT(d[2], 0.5);
  EXPECT_LE(d[3], 1.0);
  EXPECT_DOUBLE_EQ(d[4], 1.0);  // textual pair: no distribution evidence
}

// ---------------------------------------------------------------------------
// Every D value D3LEngine::ScoreCandidates produces, against the reference.

/// Scores every (target column, lake attribute) pair of `target` and checks
/// each row. Returns how many D values came out below 1 (the guard admitted
/// the pair and KS ran), so callers can check the lake exercised KS at all.
size_t CheckScoreCandidates(const D3LEngine& engine, const QueryTarget& target,
                            const std::array<bool, kNumEvidence>& mask) {
  const D3LIndexes& indexes = engine.indexes();
  std::vector<uint32_t> all(indexes.num_attributes());
  for (uint32_t id = 0; id < all.size(); ++id) all[id] = id;
  const std::vector<std::vector<uint32_t>> candidates(target.sigs.size(), all);
  const std::vector<PairDistances> rows = engine.ScoreCandidates(target, candidates, mask);
  EXPECT_EQ(rows.size(), target.sigs.size() * all.size());

  const AttributeSignatures* target_subject =
      target.subject_col >= 0 ? &target.sigs[static_cast<size_t>(target.subject_col)]
                              : nullptr;
  size_t admitted = 0;
  for (const PairDistances& row : rows) {
    const size_t c = row.target_column;
    for (Evidence e : {Evidence::kName, Evidence::kValue, Evidence::kFormat,
                       Evidence::kEmbedding}) {
      const size_t t = static_cast<size_t>(e);
      EXPECT_EQ(row.d[t], mask[t] ? indexes.EstimateDistance(e, target.sigs[c],
                                                             row.attribute_id)
                                  : 1.0);
    }
    const size_t dt = static_cast<size_t>(Evidence::kDistribution);
    double expected = 1.0;
    if (mask[dt]) {
      const uint32_t table = indexes.profile(row.attribute_id).ref.table;
      expected = ReferenceDistribution(indexes, target.profiles[c], target.sigs[c],
                                       row.attribute_id, target_subject,
                                       engine.subject_attribute_id(table));
    }
    EXPECT_EQ(row.d[dt], expected) << "column " << c << " attribute " << row.attribute_id;
    if (row.d[dt] < 1.0) ++admitted;
  }
  return admitted;
}

std::vector<std::array<bool, kNumEvidence>> Masks() {
  // all; distribution only; N+F+D; everything but distribution.
  return {{true, true, true, true, true},
          {false, false, false, false, true},
          {true, false, true, false, true},
          {true, true, true, true, false}};
}

/// Every lake table as a target, with its detected subject and without one.
size_t CheckEveryTarget(const DataLake& lake, const D3LEngine& engine) {
  size_t admitted = 0;
  for (size_t ti = 0; ti < lake.size(); ++ti) {
    QueryTarget target = engine.ProfileTarget(lake.table(ti));
    for (const auto& mask : Masks()) {
      admitted += CheckScoreCandidates(engine, target, mask);
      QueryTarget no_subject = target;
      no_subject.subject_col = -1;
      admitted += CheckScoreCandidates(engine, no_subject, mask);
    }
  }
  return admitted;
}

TEST(ScoreCandidatesReferenceTest, FigureLakeMatchesReference) {
  const DataLake lake = testutil::FigureLake(4);
  D3LEngine engine;
  ASSERT_TRUE(engine.IndexLake(lake).ok());
  CheckEveryTarget(lake, engine);
  // The Figure-1 target itself has no numeric column: every D stays 1.
  const QueryTarget target = engine.ProfileTarget(testutil::FigureTarget());
  EXPECT_EQ(CheckScoreCandidates(engine, target, Masks()[0]), 0u);
}

// A lake whose numeric columns meet through every Algorithm 2 route: shared
// names (IN), shared formats (IF), shared subject values (I*), and none.
DataLake RandomNumericLake(uint64_t seed, size_t n_tables) {
  Rng rng(seed);
  const char* names[] = {"Age", "Years", "Price", "Count", "Score", "Amount"};
  const char* formats[] = {"%.0f", "%.1f", "%.3f"};
  DataLake lake;
  for (size_t t = 0; t < n_tables; ++t) {
    const size_t n_numeric = 1 + static_cast<size_t>(rng.UniformInt(0, 2));
    std::vector<std::string> cols = {"Entity", "Note"};
    std::vector<const char*> col_formats;
    std::vector<double> means;
    for (size_t c = 0; c < n_numeric; ++c) {
      std::string name = names[rng.UniformInt(0, 5)];
      if (std::find(cols.begin(), cols.end(), name) != cols.end()) {
        name.append(" ").append(std::to_string(c));
      }
      cols.push_back(name);
      col_formats.push_back(formats[rng.UniformInt(0, 2)]);
      means.push_back(static_cast<double>(rng.UniformInt(0, 3)) * 40.0);
    }
    // Entities come from one of three pools, so subject attributes of
    // tables drawing from the same pool are related.
    const int pool = static_cast<int>(rng.UniformInt(0, 2));
    const size_t n_rows = 20 + static_cast<size_t>(rng.UniformInt(0, 60));
    std::vector<std::vector<std::string>> rows;
    for (size_t r = 0; r < n_rows; ++r) {
      std::vector<std::string> row = {
          "member " + std::to_string(pool) + " " + std::to_string(rng.UniformInt(0, 80)),
          "note " + std::to_string(rng.UniformInt(0, 1000))};
      for (size_t c = 0; c < n_numeric; ++c) {
        char buf[32];
        snprintf(buf, sizeof(buf), col_formats[c], rng.Gaussian(means[c], 15.0));
        row.push_back(buf);
      }
      rows.push_back(std::move(row));
    }
    EXPECT_TRUE(
        lake.AddTable(testutil::MakeTable("t" + std::to_string(t), cols, rows)).ok());
  }
  return lake;
}

TEST(ScoreCandidatesReferenceTest, RandomizedNumericLakeMatchesReference) {
  const DataLake lake = RandomNumericLake(17, 14);
  D3LOptions options;
  options.num_threads = 1;
  D3LEngine engine(options);
  ASSERT_TRUE(engine.IndexLake(lake).ok());
  // The lake must actually exercise KS, not just the "return 1" exits.
  EXPECT_GT(CheckEveryTarget(lake, engine), 0u);
}

TEST(ScoreCandidatesReferenceTest, CandidatesWithoutSubjectMatchReference) {
  // An engine gives every non-empty table a subject, so a candidate table
  // without one only arrives from a snapshot; check the scorer directly,
  // mixing real source subjects with UINT32_MAX on one scorer.
  const DataLake lake = RandomNumericLake(23, 10);
  D3LOptions options;
  options.num_threads = 1;
  D3LEngine engine(options);
  ASSERT_TRUE(engine.IndexLake(lake).ok());
  const D3LIndexes& indexes = engine.indexes();
  Rng rng(29);
  for (size_t ti = 0; ti < lake.size(); ++ti) {
    const QueryTarget target = engine.ProfileTarget(lake.table(ti));
    const AttributeSignatures* subject =
        &target.sigs[static_cast<size_t>(target.subject_col)];
    DistributionScorer scorer(indexes, subject);
    for (size_t c = 0; c < target.sigs.size(); ++c) {
      scorer.SetColumn(target.profiles[c], target.sigs[c]);
      for (uint32_t id = 0; id < indexes.num_attributes(); ++id) {
        const uint32_t source_subject =
            rng.UniformInt(0, 1) == 0
                ? UINT32_MAX
                : engine.subject_attribute_id(indexes.profile(id).ref.table);
        EXPECT_EQ(scorer.Distance(id, source_subject),
                  ReferenceDistribution(indexes, target.profiles[c], target.sigs[c], id,
                                        subject, source_subject));
      }
    }
  }
}

}  // namespace
}  // namespace d3l::core
