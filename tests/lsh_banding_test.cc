#include "lsh/lsh_banding.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "lsh/minhash.h"

namespace d3l {
namespace {

std::set<std::string> OverlappingSet(int shared, int total, int salt) {
  std::set<std::string> s;
  for (int i = 0; i < shared; ++i) s.insert("shared_" + std::to_string(i));
  for (int i = shared; i < total; ++i) {
    s.insert("salt" + std::to_string(salt) + "_" + std::to_string(i));
  }
  return s;
}

TEST(BandingMathTest, OptimalBandsRowsApproximateThreshold) {
  for (double tau : {0.4, 0.5, 0.7, 0.9}) {
    auto [b, r] = OptimalBandsRows(256, tau);
    EXPECT_LE(b * r, 256u);
    EXPECT_GE(b, 1u);
    double achieved = std::pow(1.0 / static_cast<double>(b),
                               1.0 / static_cast<double>(r));
    EXPECT_NEAR(achieved, tau, 0.08) << "tau=" << tau;
  }
}

TEST(BandingMathTest, CollisionProbabilityIsSCurve) {
  auto [b, r] = OptimalBandsRows(256, 0.7);
  double below = BandingCollisionProbability(0.4, b, r);
  double at = BandingCollisionProbability(0.7, b, r);
  double above = BandingCollisionProbability(0.9, b, r);
  EXPECT_LT(below, 0.25);
  EXPECT_GT(at, 0.3);
  EXPECT_GT(above, 0.95);
  EXPECT_LT(below, at);
  EXPECT_LT(at, above);
}

class BandedLshTest : public ::testing::Test {
 protected:
  BandedLshTest() : hasher_(256, 3) {}
  MinHasher hasher_;
};

TEST_F(BandedLshTest, HighSimilarityCollides) {
  BandedLsh index;
  auto query = OverlappingSet(60, 60, 0);
  auto near = OverlappingSet(57, 60, 1);  // jaccard ~ 0.9
  index.Insert(0, hasher_.Sign(near));
  index.Index();
  auto hits = index.Query(hasher_.Sign(query));
  EXPECT_EQ(std::count(hits.begin(), hits.end(), 0u), 1);
}

TEST_F(BandedLshTest, LowSimilarityRarelyCollides) {
  BandedLsh index;
  // jaccard ~ 10/(110) ~ 0.09 — far below tau=0.7.
  for (uint32_t i = 0; i < 50; ++i) {
    index.Insert(i, hasher_.Sign(OverlappingSet(10, 60, 100 + i)));
  }
  index.Index();
  auto hits = index.Query(hasher_.Sign(OverlappingSet(60, 60, 0)));
  EXPECT_LE(hits.size(), 3u);
}

TEST_F(BandedLshTest, QueryDeduplicates) {
  BandedLsh index;
  auto sig = hasher_.Sign(OverlappingSet(40, 40, 0));
  index.Insert(7, sig);
  index.Index();
  auto hits = index.Query(sig);
  EXPECT_EQ(std::count(hits.begin(), hits.end(), 7u), 1);
}

TEST_F(BandedLshTest, SizeAndMemory) {
  BandedLsh index;
  EXPECT_EQ(index.size(), 0u);
  index.Insert(0, hasher_.Sign(OverlappingSet(20, 20, 0)));
  EXPECT_EQ(index.size(), 1u);
  EXPECT_GT(index.MemoryUsage(), 0u);
}

// Brute-force reference: per band, a map from the band's row values to the
// ids inserted with them, in insertion order. Equal rows give equal band
// hashes, so the index must return exactly what walking these maps returns.
class ReferenceBanding {
 public:
  ReferenceBanding(size_t bands, size_t rows) : rows_(rows), buckets_(bands) {}

  void Insert(uint32_t id, const Signature& sig) {
    for (size_t b = 0; b < buckets_.size(); ++b) buckets_[b][Rows(b, sig)].push_back(id);
  }

  std::vector<uint32_t> Query(const Signature& sig) const {
    std::vector<uint32_t> out;
    std::set<uint32_t> seen;
    for (size_t b = 0; b < buckets_.size(); ++b) {
      auto it = buckets_[b].find(Rows(b, sig));
      if (it == buckets_[b].end()) continue;
      for (uint32_t id : it->second) {
        if (seen.insert(id).second) out.push_back(id);
      }
    }
    return out;
  }

 private:
  std::vector<uint64_t> Rows(size_t band, const Signature& sig) const {
    return std::vector<uint64_t>(sig.begin() + static_cast<ptrdiff_t>(band * rows_),
                                 sig.begin() + static_cast<ptrdiff_t>((band + 1) * rows_));
  }

  size_t rows_;
  std::vector<std::map<std::vector<uint64_t>, std::vector<uint32_t>>> buckets_;
};

TEST(BandedLshReferenceTest, QueryMatchesBruteForceInOrder) {
  // Signature values from a 2-letter alphabet make band collisions common,
  // so buckets hold many ids; ids are shuffled with gaps (non-ascending
  // insertion) and one id is inserted twice. Two Insert/Index rounds check
  // that re-sorting keeps every bucket in insertion order.
  BandedLshOptions options;
  options.signature_size = 16;
  options.threshold = 0.5;
  BandedLsh index(options);
  ReferenceBanding reference(index.bands(), index.rows());

  std::mt19937_64 rng(5);
  std::vector<uint32_t> ids(300);
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<uint32_t>(3 * i + 1);
  std::shuffle(ids.begin(), ids.end(), rng);
  ids.push_back(ids[10]);
  const auto random_sig = [&rng] {
    Signature sig(16);
    for (uint64_t& v : sig) v = rng() % 2;
    return sig;
  };

  std::vector<Signature> queries;
  for (int q = 0; q < 40; ++q) queries.push_back(random_sig());
  const size_t half = ids.size() / 2;
  for (size_t round = 0; round < 2; ++round) {
    for (size_t i = round * half; i < (round == 0 ? half : ids.size()); ++i) {
      Signature sig = random_sig();
      index.Insert(ids[i], sig);
      reference.Insert(ids[i], sig);
    }
    index.Index();
    size_t total_hits = 0;
    for (const Signature& q : queries) {
      const std::vector<uint32_t> got = index.Query(q);
      ASSERT_EQ(got, reference.Query(q)) << "round " << round;
      total_hits += got.size();
    }
    EXPECT_GT(total_hits, queries.size()) << "the sweep should exercise shared buckets";
  }
  EXPECT_EQ(index.size(), ids.size());
}

TEST(BandedLshDeathTest, QueryBeforeIndexAborts) {
  MinHasher hasher(256, 3);
  BandedLsh index;
  Signature sig = hasher.Sign(OverlappingSet(20, 20, 0));
  index.Insert(0, sig);
  EXPECT_DEATH((void)index.Query(sig), "BandedLsh: Query before Index");
  index.Index();
  index.Insert(1, sig);  // a new Insert needs a new Index()
  EXPECT_DEATH((void)index.Query(sig), "BandedLsh: Query before Index");
}

TEST(BandedLshMemoryTest, MemoryUsageIsExact) {
  // Exact, byte for byte: an empty same-shape index is the fixed baseline,
  // and after Index() each item adds one (u64 hash, u32 id) entry per band.
  BandedLshOptions options;
  options.signature_size = 64;
  MinHasher hasher(64, 9);
  BandedLsh index(options);
  const size_t base = index.MemoryUsage();
  EXPECT_EQ(base, BandedLsh(options).MemoryUsage());
  const uint32_t n = 37;
  for (uint32_t i = 0; i < n; ++i) {
    index.Insert(i, hasher.Sign(OverlappingSet(10, 30, static_cast<int>(i))));
  }
  index.Index();
  EXPECT_EQ(index.MemoryUsage(),
            base + n * index.bands() * (sizeof(uint64_t) + sizeof(BandedLsh::ItemId)));
}

// Property sweep: empirical collision rates bracket the threshold S-curve.
class BandedThresholdTest : public ::testing::TestWithParam<int> {};

TEST_P(BandedThresholdTest, CollisionRateTracksSimilarity) {
  int shared = GetParam();
  MinHasher hasher(256, 19);
  int collided = 0;
  const int trials = 30;
  for (int t = 0; t < trials; ++t) {
    BandedLsh index;
    auto a = OverlappingSet(60, 60, 100 * t);
    std::set<std::string> b;
    int i = 0;
    for (const auto& e : a) {
      if (i++ >= shared) break;
      b.insert(e);
    }
    for (int j = 0; j < 60 - shared; ++j) {
      b.insert("b_" + std::to_string(t) + "_" + std::to_string(j));
    }
    index.Insert(0, hasher.Sign(b));
    index.Index();
    auto hits = index.Query(hasher.Sign(a));
    if (!hits.empty()) ++collided;
  }
  double rate = static_cast<double>(collided) / trials;
  double jaccard = static_cast<double>(shared) / (120.0 - shared);
  if (jaccard >= 0.85) {
    EXPECT_GE(rate, 0.85) << "shared=" << shared;
  } else if (jaccard <= 0.3) {
    EXPECT_LE(rate, 0.35) << "shared=" << shared;
  }
}

INSTANTIATE_TEST_SUITE_P(SharedLevels, BandedThresholdTest,
                         ::testing::Values(25, 40, 56, 60));

TEST(BandedLshDeathTest, ShortSignatureAbortsLoudly) {
  // An ensemble whose options disagree with its hasher must die with a
  // diagnostic instead of reading past the signature (mirrors
  // LshForest::CheckSignatureSize; previously only a debug assert).
  BandedLshOptions options;
  options.signature_size = 64;
  BandedLsh index(options);
  MinHasher hasher(64, 11);
  Signature good = hasher.Sign(OverlappingSet(30, 60, 0));
  index.Insert(0, good);
  index.Index();

  MinHasher short_hasher(16, 11);
  Signature short_sig = short_hasher.Sign(OverlappingSet(30, 60, 1));
  EXPECT_DEATH(index.Insert(1, short_sig), "BandedLsh: signature has");
  EXPECT_DEATH((void)index.Query(short_sig), "BandedLsh: signature has");
}

}  // namespace
}  // namespace d3l
