#include "core/query.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "io/binary_io.h"

#include "tests/test_util.h"

namespace d3l::core {
namespace {

class QueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    lake_ = testutil::FigureLake(6);
    engine_ = std::make_unique<D3LEngine>();
    ASSERT_TRUE(engine_->IndexLake(lake_).ok());
  }
  DataLake lake_;
  std::unique_ptr<D3LEngine> engine_;
};

TEST_F(QueryTest, SearchBeforeIndexFails) {
  D3LEngine fresh;
  EXPECT_FALSE(fresh.Search(testutil::FigureTarget(), 3).ok());
}

TEST_F(QueryTest, DoubleIndexFails) {
  EXPECT_TRUE(engine_->IndexLake(lake_).IsInvalidArgument());
}

TEST_F(QueryTest, EmptyTargetFails) {
  Table empty("empty");
  EXPECT_FALSE(engine_->Search(empty, 3).ok());
}

TEST_F(QueryTest, RelatedSourcesRankAboveFillers) {
  auto res = engine_->Search(testutil::FigureTarget(), 3);
  ASSERT_TRUE(res.ok());
  ASSERT_GE(res->ranked.size(), 3u);
  // The three GP tables (all related to the target by value/name overlap)
  // must occupy the top ranks, ahead of every color filler.
  const std::set<std::string> gp = {"s1_gp_practices", "s2_gp_funding",
                                    "s3_local_gps"};
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(gp.count(lake_.table(res->ranked[i].table_index).name()))
        << "rank " << i << " is " << lake_.table(res->ranked[i].table_index).name();
  }
  // Distances ascend.
  for (size_t i = 1; i < res->ranked.size(); ++i) {
    EXPECT_LE(res->ranked[i - 1].distance, res->ranked[i].distance);
  }
}

TEST_F(QueryTest, DistancesWithinUnitRange) {
  auto res = engine_->Search(testutil::FigureTarget(), 10);
  ASSERT_TRUE(res.ok());
  for (const TableMatch& m : res->ranked) {
    EXPECT_GE(m.distance, 0.0);
    EXPECT_LE(m.distance, 1.0);
    for (double d : m.evidence_distances) {
      EXPECT_GE(d, 0.0);
      EXPECT_LE(d, 1.0);
    }
  }
}

TEST_F(QueryTest, KTruncatesResults) {
  auto res1 = engine_->Search(testutil::FigureTarget(), 1);
  ASSERT_TRUE(res1.ok());
  EXPECT_EQ(res1->ranked.size(), 1u);
  auto res_all = engine_->Search(testutil::FigureTarget(), 100);
  ASSERT_TRUE(res_all.ok());
  EXPECT_GE(res_all->ranked.size(), 2u);
}

TEST_F(QueryTest, AlignmentsRecordTargetColumns) {
  auto res = engine_->Search(testutil::FigureTarget(), 3);
  ASSERT_TRUE(res.ok());
  const TableMatch& top = res->ranked[0];
  ASSERT_FALSE(top.pairs.empty());
  for (const PairDistances& p : top.pairs) {
    EXPECT_LT(p.target_column, testutil::FigureTarget().num_columns());
    EXPECT_LT(p.attribute_id, engine_->indexes().num_attributes());
  }
  // candidate_alignments covers at least the ranked tables.
  EXPECT_TRUE(res->candidate_alignments.count(top.table_index));
}

TEST_F(QueryTest, SingleEvidenceAblationStillRanksRelatedFirst) {
  D3LOptions opts;
  opts.enabled = {false, true, false, false, false};  // V only
  D3LEngine v_engine(opts);
  ASSERT_TRUE(v_engine.IndexLake(lake_).ok());
  auto res = v_engine.Search(testutil::FigureTarget(), 2);
  ASSERT_TRUE(res.ok());
  ASSERT_FALSE(res->ranked.empty());
  std::string top = lake_.table(res->ranked[0].table_index).name();
  EXPECT_TRUE(top == "s1_gp_practices" || top == "s2_gp_funding" ||
              top == "s3_local_gps")
      << top;
}

TEST_F(QueryTest, NameOnlyAblationUsesNames) {
  D3LOptions opts;
  opts.enabled = {true, false, false, false, false};  // N only
  D3LEngine n_engine(opts);
  ASSERT_TRUE(n_engine.IndexLake(lake_).ok());
  // S2 shares "Practice", "City" and "Postcode" with the target verbatim.
  auto res = n_engine.Search(testutil::FigureTarget(), 1);
  ASSERT_TRUE(res.ok());
  ASSERT_FALSE(res->ranked.empty());
  EXPECT_EQ(lake_.table(res->ranked[0].table_index).name(), "s2_gp_funding");
}

TEST_F(QueryTest, BuildStatsPopulated) {
  const IndexBuildStats& s = engine_->build_stats();
  EXPECT_EQ(s.num_attributes, engine_->indexes().num_attributes());
  EXPECT_GT(s.index_bytes, 0u);
  EXPECT_GE(s.profile_seconds, 0.0);
}

TEST_F(QueryTest, SubjectColumnsDetectedForAllTables) {
  for (uint32_t t = 0; t < lake_.size(); ++t) {
    EXPECT_GE(engine_->subject_column(t), 0) << lake_.table(t).name();
    EXPECT_NE(engine_->subject_attribute_id(t), UINT32_MAX);
  }
}

TEST_F(QueryTest, SearchIsDeterministic) {
  auto a = engine_->Search(testutil::FigureTarget(), 5);
  auto b = engine_->Search(testutil::FigureTarget(), 5);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->ranked.size(), b->ranked.size());
  for (size_t i = 0; i < a->ranked.size(); ++i) {
    EXPECT_EQ(a->ranked[i].table_index, b->ranked[i].table_index);
    EXPECT_DOUBLE_EQ(a->ranked[i].distance, b->ranked[i].distance);
  }
}

TEST_F(QueryTest, SingleThreadedIndexMatchesParallel) {
  D3LOptions opts;
  opts.num_threads = 1;
  D3LEngine serial(opts);
  ASSERT_TRUE(serial.IndexLake(lake_).ok());
  auto a = serial.Search(testutil::FigureTarget(), 5);
  auto b = engine_->Search(testutil::FigureTarget(), 5);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->ranked.size(), b->ranked.size());
  for (size_t i = 0; i < a->ranked.size(); ++i) {
    EXPECT_EQ(a->ranked[i].table_index, b->ranked[i].table_index);
    EXPECT_DOUBLE_EQ(a->ranked[i].distance, b->ranked[i].distance);
  }
}

TEST(NumericCellTest, NanCellsAreNullsAndSearchFinishes) {
  // Every NaN spelling std::from_chars accepts must stay out of numeric
  // samples: a NaN there once made KS loop forever inside Search.
  DataLake lake;
  for (int t = 0; t < 6; ++t) {
    std::vector<std::vector<std::string>> rows;
    const char* nans[] = {"-nan", "nan(123)", "NaN(1)", "-NAN"};
    for (int r = 0; r < 12; ++r) {
      rows.push_back({"item " + std::to_string(t) + "_" + std::to_string(r),
                      r % 3 == 0 ? nans[(r / 3) % 4] : std::to_string(r * (t + 1))});
    }
    ASSERT_TRUE(lake.AddTable(testutil::MakeTable("nan_" + std::to_string(t),
                                                  {"Item", "Amount"}, rows))
                    .ok());
  }
  EXPECT_EQ(lake.table(0).column(1).type(), ColumnType::kNumeric);
  for (const char* cell : {"-nan", "nan(123)", "NaN(1)", "nan"}) {
    EXPECT_FALSE(CellAsNumber(cell).has_value()) << cell;
  }
  D3LEngine engine;
  ASSERT_TRUE(engine.IndexLake(lake).ok());
  for (size_t t = 0; t < lake.size(); ++t) {
    auto result = engine.Search(lake.table(t), 3);
    ASSERT_TRUE(result.ok());
    const AttributeProfile& amount = result->target_profiles[1];
    EXPECT_TRUE(amount.is_numeric);
    EXPECT_EQ(amount.numeric_sample.size(), 8u);
  }
}

TEST(IndexesLoadTest, UnsortedOrNanSampleIsIOError) {
  SubwordHashModel wem;
  const Table t = testutil::FigureS1();
  for (const std::vector<double>& bad :
       {std::vector<double>{3, 1, 2}, std::vector<double>{1, std::nan(""), 2}}) {
    D3LIndexes indexes;
    AttributeProfile p = BuildProfile(t, 4, wem, nullptr);  // Patients
    ASSERT_TRUE(p.is_numeric);
    p.numeric_sample = bad;
    indexes.Insert(std::move(p));
    indexes.Finalize();
    std::string bytes;
    io::Writer w;
    w.OpenBuffer(&bytes);
    w.BeginSection(io::SectionId("INDX"));
    indexes.Save(w);
    ASSERT_TRUE(w.EndSection().ok());
    io::Reader r;
    ASSERT_TRUE(r.OpenBuffer(std::move(bytes)).ok());
    ASSERT_TRUE(r.OpenSection(io::SectionId("INDX")).ok());
    auto loaded = D3LIndexes::Load(r);
    ASSERT_FALSE(loaded.ok());
    EXPECT_TRUE(loaded.status().IsIOError()) << loaded.status().ToString();
  }
}

}  // namespace
}  // namespace d3l::core
