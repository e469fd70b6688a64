#include "embedding/subword_model.h"

#include <gtest/gtest.h>

#include <bit>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.h"
#include "embedding/vector_ops.h"

namespace d3l {
namespace {

TEST(VectorOpsTest, DotNormCosine) {
  Vec a = {1, 0, 0};
  Vec b = {0, 1, 0};
  Vec c = {2, 0, 0};
  EXPECT_DOUBLE_EQ(Dot(a, b), 0);
  EXPECT_DOUBLE_EQ(Norm(c), 2);
  EXPECT_DOUBLE_EQ(CosineSimilarity(a, c), 1.0);
  EXPECT_DOUBLE_EQ(CosineSimilarity(a, b), 0.0);
  EXPECT_DOUBLE_EQ(CosineDistance(a, c), 0.0);
  EXPECT_DOUBLE_EQ(CosineDistance(a, b), 1.0);
}

TEST(VectorOpsTest, ZeroVectorCosineIsZeroSim) {
  Vec z = {0, 0};
  Vec a = {1, 1};
  EXPECT_DOUBLE_EQ(CosineSimilarity(z, a), 0.0);
  EXPECT_DOUBLE_EQ(CosineDistance(z, a), 1.0);
}

TEST(VectorOpsTest, CosineDistanceClampedForAntipodal) {
  Vec a = {1, 0};
  Vec b = {-1, 0};
  // 1 - (-1) = 2, clamped to 1.
  EXPECT_DOUBLE_EQ(CosineDistance(a, b), 1.0);
}

TEST(VectorOpsTest, NormalizeAndMean) {
  Vec v = {3, 4};
  Normalize(&v);
  EXPECT_NEAR(Norm(v), 1.0, 1e-6);  // float components
  Vec m = MeanVector({{1, 1}, {3, 3}});
  EXPECT_FLOAT_EQ(m[0], 2);
  EXPECT_FLOAT_EQ(m[1], 2);
}

class SubwordModelTest : public ::testing::Test {
 protected:
  SubwordHashModel model_;
};

TEST_F(SubwordModelTest, Deterministic) {
  Vec a = model_.Embed("manchester");
  Vec b = model_.Embed("manchester");
  EXPECT_EQ(a, b);
  SubwordHashModel model2;
  EXPECT_EQ(model2.Embed("manchester"), a);
}

TEST_F(SubwordModelTest, UnitNorm) {
  EXPECT_NEAR(Norm(model_.Embed("salford")), 1.0, 1e-5);
  EXPECT_NEAR(Norm(model_.Embed("x")), 1.0, 1e-5);
}

TEST_F(SubwordModelTest, EmptyWordIsZeroVector) {
  EXPECT_DOUBLE_EQ(Norm(model_.Embed("")), 0.0);
}

TEST_F(SubwordModelTest, SharedSubwordsIncreaseSimilarity) {
  // The fastText property D3L relies on: orthographically close tokens are
  // close in cosine space, unrelated tokens are not.
  double typo = CosineSimilarity(model_.Embed("manchester"), model_.Embed("manchestr"));
  double inflection =
      CosineSimilarity(model_.Embed("payment"), model_.Embed("payments"));
  double unrelated = CosineSimilarity(model_.Embed("manchester"), model_.Embed("zq9"));
  EXPECT_GT(typo, 0.5);
  EXPECT_GT(inflection, 0.55);
  EXPECT_LT(unrelated, 0.35);
  EXPECT_GT(typo, unrelated + 0.25);
}

TEST_F(SubwordModelTest, DifferentSeedsGiveDifferentSpaces) {
  SubwordModelOptions opts;
  opts.seed = 0x1234;
  SubwordHashModel other(opts);
  Vec a = model_.Embed("manchester");
  Vec b = other.Embed("manchester");
  EXPECT_NE(a, b);
}

TEST_F(SubwordModelTest, EmbedAllAveragesTokens) {
  Vec all = model_.EmbedAll({"salford", "quays"});
  Vec manual(model_.dim(), 0.0f);
  AddInPlace(&manual, model_.Embed("salford"));
  AddInPlace(&manual, model_.Embed("quays"));
  for (float& x : manual) x /= 2;
  for (size_t i = 0; i < manual.size(); ++i) {
    EXPECT_NEAR(all[i], manual[i], 1e-6);
  }
  EXPECT_DOUBLE_EQ(Norm(model_.EmbedAll({})), 0.0);
}

TEST_F(SubwordModelTest, CachingEmbedderMatchesModel) {
  CachingEmbedder cache(&model_);
  Vec v1 = cache.Embed("bolton");
  Vec v2 = cache.Embed("bolton");
  EXPECT_EQ(v1, v2);
  EXPECT_EQ(cache.cache_size(), 1u);
  EXPECT_EQ(v1, model_.Embed("bolton"));
}

// FNV-1a over the bit patterns of every component: equal digests mean
// bit-identical vectors.
uint64_t DigestVectors(const SubwordHashModel& model, int num_words) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (int i = 0; i < num_words; ++i) {
    for (float x : model.Embed(std::string("w").append(std::to_string(i)))) {
      const auto bits = std::bit_cast<uint32_t>(x);
      for (int b = 0; b < 4; ++b) {
        h ^= (bits >> (8 * b)) & 0xff;
        h *= 0x100000001b3ULL;
      }
    }
  }
  return h;
}

std::vector<uint32_t> LeadingBits(const Vec& v) {
  std::vector<uint32_t> bits;
  for (size_t j = 0; j < 4; ++j) bits.push_back(std::bit_cast<uint32_t>(v[j]));
  return bits;
}

// Values recorded from the serial table build; the parallel build must
// reproduce them bit for bit.
constexpr uint64_t kDefaultDigest = 0x63fb114c62d7faa0ULL;  // words w0..w2047
constexpr uint64_t kSmallDigest = 0x343b4ec538d9879bULL;    // words w0..w511

SubwordModelOptions SmallOptions() {
  SubwordModelOptions o;
  o.dim = 16;
  o.num_buckets = 1000;
  o.seed = 42;
  return o;
}

TEST(SubwordTableTest, MatchesSerialBuildBitForBit) {
  SubwordHashModel model;
  // The whole-word buckets of the probe words alone touch every 1/64 slice
  // of the table, so every thread's bucket range is exercised.
  std::set<uint64_t> slices;
  const SubwordModelOptions& o = model.options();
  for (int i = 0; i < 2048; ++i) {
    const uint64_t bucket = HashString("<w" + std::to_string(i) + ">", o.seed) % o.num_buckets;
    slices.insert(bucket * 64 / o.num_buckets);
  }
  EXPECT_EQ(slices.size(), 64u);

  EXPECT_EQ(DigestVectors(model, 2048), kDefaultDigest);
  EXPECT_EQ(LeadingBits(model.Embed("manchester")),
            (std::vector<uint32_t>{0xbd60cbe6, 0x3ba47b8e, 0xbdef03a4, 0x3e770c6b}));
  EXPECT_EQ(LeadingBits(model.Embed("salford")),
            (std::vector<uint32_t>{0x3d9f1ac3, 0xbd60f826, 0x3e0db199, 0x3b1d814a}));
  EXPECT_EQ(LeadingBits(model.Embed("x")),
            (std::vector<uint32_t>{0xbdf2ff66, 0xbc19c75e, 0xbb83e4cb, 0xbd25e540}));
  EXPECT_EQ(DigestVectors(SubwordHashModel(SmallOptions()), 512), kSmallDigest);
}

TEST(SubwordTableTest, ConcurrentBuildsWithDifferentOptionsStayExact) {
  // One thread builds through the shared registry while another builds a
  // model with different options directly (the table builds overlap); each
  // must equal its own serial-recorded values.
  uint64_t shared_digest = 0;
  uint64_t direct_digest = 0;
  std::thread registry_user([&shared_digest] {
    std::shared_ptr<const SubwordHashModel> model = SharedSubwordModel({});
    shared_digest = DigestVectors(*model, 2048);
  });
  std::thread direct_user([&direct_digest] {
    SubwordModelOptions big = SmallOptions();
    big.num_buckets = 1 << 15;
    big.dim = 64;
    SubwordHashModel model(big);
    direct_digest = DigestVectors(model, 512);
  });
  registry_user.join();
  direct_user.join();
  EXPECT_EQ(shared_digest, kDefaultDigest);

  SubwordModelOptions big = SmallOptions();
  big.num_buckets = 1 << 15;
  big.dim = 64;
  EXPECT_EQ(direct_digest, DigestVectors(*SharedSubwordModel(big), 512));
}

class SubwordDimTest : public ::testing::TestWithParam<size_t> {};

TEST_P(SubwordDimTest, RespectsConfiguredDimension) {
  SubwordModelOptions opts;
  opts.dim = GetParam();
  SubwordHashModel m(opts);
  EXPECT_EQ(m.dim(), GetParam());
  EXPECT_EQ(m.Embed("word").size(), GetParam());
  EXPECT_NEAR(Norm(m.Embed("word")), 1.0, 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Dims, SubwordDimTest, ::testing::Values(8, 32, 64, 128));

}  // namespace
}  // namespace d3l
