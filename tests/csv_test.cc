#include "table/csv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "table/lake.h"

namespace d3l {
namespace {

TEST(CsvTest, ParsesSimpleCsv) {
  auto r = ReadCsvString("a,b,c\n1,2,3\n4,5,6\n", "t");
  ASSERT_TRUE(r.ok());
  const Table& t = *r;
  EXPECT_EQ(t.num_columns(), 3u);
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.column(1).cell(1), "5");
}

TEST(CsvTest, QuotedFieldsWithCommasAndQuotes) {
  auto r = ReadCsvString("name,addr\n\"Smith, John\",\"12 \"\"High\"\" St\"\n", "t");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->column(0).cell(0), "Smith, John");
  EXPECT_EQ(r->column(1).cell(0), "12 \"High\" St");
}

TEST(CsvTest, QuotedNewlines) {
  auto r = ReadCsvString("a,b\n\"line1\nline2\",x\n", "t");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 1u);
  EXPECT_EQ(r->column(0).cell(0), "line1\nline2");
}

TEST(CsvTest, CrLfLineEndings) {
  auto r = ReadCsvString("a,b\r\n1,2\r\n3,4\r\n", "t");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 2u);
  EXPECT_EQ(r->column(1).cell(0), "2");
}

TEST(CsvTest, BlankLinesSkipped) {
  auto r = ReadCsvString("a,b\n1,2\n\n3,4\n", "t");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 2u);
}

TEST(CsvTest, ArityMismatchFailsByDefault) {
  auto r = ReadCsvString("a,b\n1,2,3\n", "t");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsIOError());
}

TEST(CsvTest, ArityMismatchSkippedWhenConfigured) {
  CsvOptions opts;
  opts.skip_malformed_rows = true;
  auto r = ReadCsvString("a,b\n1,2,3\nx,y\n", "t", opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 1u);
  EXPECT_EQ(r->column(0).cell(0), "x");
}

TEST(CsvTest, DuplicateHeadersDeduplicated) {
  auto r = ReadCsvString("a,a,a\n1,2,3\n", "t");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->column(0).name(), "a");
  EXPECT_EQ(r->column(1).name(), "a_2");
  EXPECT_EQ(r->column(2).name(), "a_3");
}

TEST(CsvTest, EmptyHeaderNamesFilled) {
  auto r = ReadCsvString(",b\n1,2\n", "t");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->column(0).name(), "col_0");
}

TEST(CsvTest, UnterminatedQuoteFails) {
  auto r = ReadCsvString("a\n\"unterminated\n", "t");
  EXPECT_FALSE(r.ok());
}

TEST(CsvTest, EmptyInputFails) {
  auto r = ReadCsvString("", "t");
  EXPECT_FALSE(r.ok());
}

TEST(CsvTest, RoundTrip) {
  auto t = std::move(Table::FromRows("rt", {"n,ame", "plain"},
                                     {{"a\"b", "x"}, {"line\nbreak", ","}}))
               .ValueOrDie();
  std::string csv = WriteCsvString(t);
  auto back = ReadCsvString(csv, "rt");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->column(0).name(), "n,ame");
  EXPECT_EQ(back->column(0).cell(0), "a\"b");
  EXPECT_EQ(back->column(0).cell(1), "line\nbreak");
  EXPECT_EQ(back->column(1).cell(1), ",");
}

class CsvFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() / "d3l_csv_test";
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST_F(CsvFileTest, WriteAndReadFile) {
  auto t = std::move(Table::FromRows("f", {"a", "b"}, {{"1", "2"}})).ValueOrDie();
  std::string path = (dir_ / "f.csv").string();
  ASSERT_TRUE(WriteCsvFile(t, path).ok());
  auto back = ReadCsvFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->name(), "f");  // named after the file stem
  EXPECT_EQ(back->num_rows(), 1u);
}

TEST_F(CsvFileTest, MissingFileFails) {
  auto r = ReadCsvFile((dir_ / "absent.csv").string());
  EXPECT_TRUE(r.status().IsIOError());
}

TEST_F(CsvFileTest, LoadDirectory) {
  for (int i = 0; i < 3; ++i) {
    auto t = std::move(Table::FromRows(std::string("t").append(std::to_string(i)), {"a"}, {{"1"}}))
                 .ValueOrDie();
    ASSERT_TRUE(WriteCsvFile(t, (dir_ / std::string("t").append(std::to_string(i)).append(".csv")).string()).ok());
  }
  // A non-CSV file should be ignored.
  std::ofstream(dir_ / "notes.txt") << "ignore me";
  DataLake lake;
  ASSERT_TRUE(lake.LoadDirectory(dir_.string()).ok());
  EXPECT_EQ(lake.size(), 3u);
  EXPECT_GE(lake.TableIndex("t1"), 0);
}

TEST_F(CsvFileTest, LoadDirectoryRejectsNonDirectory) {
  DataLake lake;
  EXPECT_TRUE(lake.LoadDirectory((dir_ / "absent_dir").string()).IsIOError());
}

}  // namespace
}  // namespace d3l
