// Cross-module property tests: invariants that must hold for arbitrary
// (seeded) inputs, swept with parameterized suites.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "benchdata/domains.h"
#include "benchdata/realish_gen.h"
#include "benchdata/synthetic_gen.h"
#include "common/random.h"
#include "core/query.h"
#include "embedding/vector_ops.h"
#include "eval/metrics.h"
#include "lsh/minhash.h"
#include "lsh/simhash.h"
#include "table/csv.h"
#include "text/format.h"
#include "text/qgram.h"
#include "text/tokenizer.h"

namespace d3l {
namespace {

// ---------------------------------------------------------------------------
// CSV round-trip holds for arbitrary cell content.
// ---------------------------------------------------------------------------
class CsvRoundTripSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CsvRoundTripSweep, ArbitraryCellsSurviveRoundTrip) {
  Rng rng(GetParam());
  const std::string alphabet = "abz09,\"\n\r ;|'\t\\.-";
  Table t("fuzz");
  size_t cols = 1 + rng.Uniform(5);
  for (size_t c = 0; c < cols; ++c) {
    ASSERT_TRUE(t.AddColumn(std::string("c").append(std::to_string(c))).ok());
  }
  size_t rows = rng.Uniform(20);
  for (size_t r = 0; r < rows; ++r) {
    std::vector<std::string> row;
    for (size_t c = 0; c < cols; ++c) {
      std::string cell;
      size_t len = rng.Uniform(12);
      for (size_t i = 0; i < len; ++i) cell += alphabet[rng.Uniform(alphabet.size())];
      row.push_back(std::move(cell));
    }
    ASSERT_TRUE(t.AddRow(row).ok());
  }
  auto back = ReadCsvString(WriteCsvString(t), "fuzz");
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->num_columns(), t.num_columns());
  ASSERT_EQ(back->num_rows(), t.num_rows());
  for (size_t c = 0; c < cols; ++c) {
    for (size_t r = 0; r < rows; ++r) {
      EXPECT_EQ(back->column(c).cell(r), t.column(c).cell(r));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsvRoundTripSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---------------------------------------------------------------------------
// Text substrate invariants over generated values.
// ---------------------------------------------------------------------------
class TextInvariantSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TextInvariantSweep, TokensLowercaseAndDelimiterFree) {
  const auto& reg = benchdata::DomainRegistry::Instance();
  Rng rng(GetParam());
  for (uint32_t d : reg.TextDomains()) {
    for (int i = 0; i < 5; ++i) {
      std::string v = reg.GenerateValue(d, 0, &rng);
      for (const std::string& tok : Tokenize(v)) {
        ASSERT_FALSE(tok.empty());
        for (char c : tok) {
          EXPECT_FALSE(IsPartDelimiter(c)) << v << " -> " << tok;
          EXPECT_FALSE(std::isupper(static_cast<unsigned char>(c))) << tok;
          EXPECT_FALSE(std::isspace(static_cast<unsigned char>(c))) << tok;
        }
      }
      // Formats contain only class symbols and '+'.
      for (char c : FormatOf(v)) {
        EXPECT_TRUE(c == 'C' || c == 'U' || c == 'L' || c == 'N' || c == 'A' ||
                    c == 'P' || c == '+')
            << FormatOf(v);
      }
      // q-grams of the value's own name-normalization are within length q.
      for (const std::string& g : QGrams(v, 4)) {
        EXPECT_LE(g.size(), 4u);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TextInvariantSweep, ::testing::Values(11, 22, 33));

// ---------------------------------------------------------------------------
// Engine invariants over generated lakes of varying shapes.
// ---------------------------------------------------------------------------
struct LakeShape {
  size_t clusters;
  uint64_t seed;
};

class EngineInvariantSweep : public ::testing::TestWithParam<LakeShape> {};

TEST_P(EngineInvariantSweep, SearchInvariantsHold) {
  benchdata::RealishOptions opts;
  opts.num_clusters = GetParam().clusters;
  opts.tables_per_cluster_min = 3;
  opts.tables_per_cluster_max = 5;
  opts.rows_min = 30;
  opts.rows_max = 60;
  opts.seed = GetParam().seed;
  auto gen = benchdata::GenerateRealish(opts);
  ASSERT_TRUE(gen.ok());

  core::D3LEngine engine;
  ASSERT_TRUE(engine.IndexLake(gen->lake).ok());

  const Table& target = gen->lake.table(0);
  auto res = engine.Search(target, 10);
  ASSERT_TRUE(res.ok());

  // Invariant 1: ranking sorted ascending, distances in [0, 1].
  for (size_t i = 0; i < res->ranked.size(); ++i) {
    const auto& m = res->ranked[i];
    EXPECT_GE(m.distance, 0.0);
    EXPECT_LE(m.distance, 1.0);
    if (i > 0) {
      EXPECT_GE(m.distance, res->ranked[i - 1].distance);
    }
    // Invariant 2: every ranked table has at least one alignment row.
    EXPECT_FALSE(m.pairs.empty());
    // Invariant 3: Eq. 1 aggregates bounded by the pair distances.
    for (size_t t = 0; t < core::kNumEvidence; ++t) {
      double lo = 1.0;
      double hi = 0.0;
      for (const auto& p : m.pairs) {
        lo = std::min(lo, p.d[t]);
        hi = std::max(hi, p.d[t]);
      }
      EXPECT_GE(m.evidence_distances[t], lo - 1e-9);
      EXPECT_LE(m.evidence_distances[t], hi + 1e-9);
    }
  }
  // Invariant 4: a lake table used as target retrieves itself first with
  // near-zero distance.
  ASSERT_FALSE(res->ranked.empty());
  EXPECT_EQ(res->ranked[0].table_index, 0u);
  EXPECT_LT(res->ranked[0].distance, 0.2);
  // Invariant 5: candidate_alignments covers every ranked table.
  for (const auto& m : res->ranked) {
    EXPECT_TRUE(res->candidate_alignments.count(m.table_index));
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, EngineInvariantSweep,
                         ::testing::Values(LakeShape{4, 1}, LakeShape{8, 2},
                                           LakeShape{12, 3}, LakeShape{6, 99}));

// ---------------------------------------------------------------------------
// Metric sanity over ground truth: our own ranking from the ground truth
// itself must score perfectly; a reversed one, poorly.
// ---------------------------------------------------------------------------
TEST(MetricPropertyTest, OracleRankingScoresPerfectly) {
  benchdata::SyntheticOptions opts;
  opts.num_base_tables = 4;
  opts.derived_per_base = 5;
  opts.seed = 17;
  auto gen = benchdata::GenerateSynthetic(opts);
  ASSERT_TRUE(gen.ok());
  const std::string target = gen->lake.table(0).name();

  std::vector<std::string> oracle;
  std::vector<std::string> inverse;
  for (const Table& t : gen->lake.tables()) {
    if (t.name() == target) continue;
    if (gen->truth.TablesRelated(target, t.name())) {
      oracle.push_back(t.name());
    } else {
      inverse.push_back(t.name());
    }
  }
  ASSERT_FALSE(oracle.empty());
  auto good = eval::EvaluateTopK(oracle, target, gen->truth);
  EXPECT_DOUBLE_EQ(good.precision, 1.0);
  EXPECT_DOUBLE_EQ(good.recall, 1.0);
  auto bad = eval::EvaluateTopK(
      std::vector<std::string>(inverse.begin(),
                               inverse.begin() + std::min<size_t>(5, inverse.size())),
      target, gen->truth);
  EXPECT_DOUBLE_EQ(bad.precision, 0.0);
  EXPECT_DOUBLE_EQ(bad.recall, 0.0);
}

// ---------------------------------------------------------------------------
// LSH estimator statistics (fixed seeds, deterministic).
// ---------------------------------------------------------------------------

// Two overlapping string sets with an exactly known Jaccard similarity;
// returns the Jaccard the construction actually achieves after rounding.
double MakeSetsWithJaccard(size_t universe, double jaccard, uint64_t seed,
                           std::vector<std::string>* a, std::vector<std::string>* b) {
  // |A| = |B| = n, |A ∩ B| = m  =>  J = m / (2n - m). Solve m for given J.
  size_t n = universe;
  size_t m = static_cast<size_t>(std::round(2.0 * n * jaccard / (1.0 + jaccard)));
  a->clear();
  b->clear();
  for (size_t i = 0; i < n; ++i) {
    a->push_back("elem_" + std::to_string(seed) + "_" + std::to_string(i));
  }
  for (size_t i = n - m; i < 2 * n - m; ++i) {
    b->push_back("elem_" + std::to_string(seed) + "_" + std::to_string(i));
  }
  return static_cast<double>(m) / static_cast<double>(2 * n - m);
}

// MinHash is an unbiased Jaccard estimator with stddev sqrt(J(1-J)/k): the
// mean absolute error over many set pairs must shrink as the signature grows
// and stay within a few standard deviations at the paper's k = 256.
TEST(LshEstimatorPropertyTest, MinHashErrorShrinksWithSignatureSize) {
  const size_t kUniverse = 400;
  const double kJaccard = 0.4;
  const int kPairs = 20;

  double truth = kJaccard;
  std::vector<double> mean_errors;
  for (size_t k : {16u, 64u, 256u}) {
    double err_sum = 0;
    for (int p = 0; p < kPairs; ++p) {
      MinHasher hasher(k, /*seed=*/1000 + p);
      std::vector<std::string> a, b;
      truth = MakeSetsWithJaccard(kUniverse, kJaccard, /*seed=*/50 + p, &a, &b);
      err_sum += std::abs(EstimateJaccard(hasher.Sign(a), hasher.Sign(b)) - truth);
    }
    mean_errors.push_back(err_sum / kPairs);
  }
  // Monotone improvement across a 16x signature growth (small slack for the
  // finite sample of pairs).
  EXPECT_LT(mean_errors[2], mean_errors[0] + 1e-9);
  EXPECT_LE(mean_errors[1], mean_errors[0] + 0.02);
  EXPECT_LE(mean_errors[2], mean_errors[1] + 0.02);
  // At k=256, stddev = sqrt(J(1-J)/256) ~= 0.031; mean |err| of an unbiased
  // estimator is ~0.8 stddev, so 2 stddev is a generous deterministic bound.
  EXPECT_LT(mean_errors[2], 2.0 * std::sqrt(truth * (1 - truth) / 256.0));
}

TEST(LshEstimatorPropertyTest, MinHashIdenticalAndDisjointSetsAreExact) {
  MinHasher hasher(128, /*seed=*/7);
  std::vector<std::string> a, b;
  MakeSetsWithJaccard(200, 0.5, /*seed=*/3, &a, &b);
  EXPECT_DOUBLE_EQ(EstimateJaccard(hasher.Sign(a), hasher.Sign(a)), 1.0);
  std::vector<std::string> c;
  for (size_t i = 0; i < 200; ++i) c.push_back("other_" + std::to_string(i));
  // Disjoint sets collide on a component only by hash accident: near zero.
  EXPECT_LT(EstimateJaccard(hasher.Sign(a), hasher.Sign(c)), 0.05);
}

// SimHash: P[bit agreement] = 1 - theta/pi, so the cosine estimated from the
// Hamming distance must track the true cosine within the binomial bound.
TEST(LshEstimatorPropertyTest, SimHashCosineEstimateWithinBound) {
  const size_t kDim = 64;
  const size_t kBits = 256;
  const int kVectorPairs = 20;
  Rng rng(4242);

  double worst_err = 0;
  for (int p = 0; p < kVectorPairs; ++p) {
    RandomProjectionHasher hasher(kDim, kBits, /*seed=*/900 + p);
    Vec a(kDim), noise(kDim);
    for (size_t i = 0; i < kDim; ++i) {
      a[i] = static_cast<float>(rng.Gaussian());
      noise[i] = static_cast<float>(rng.Gaussian());
    }
    // b = a rotated toward noise by a varying mix: covers cosines in (0, 1).
    double mix = 0.1 + 0.8 * (p / static_cast<double>(kVectorPairs));
    Vec b(kDim);
    for (size_t i = 0; i < kDim; ++i) {
      b[i] = static_cast<float>((1 - mix) * a[i] + mix * noise[i]);
    }
    double truth = CosineSimilarity(a, b);
    double est = EstimateCosine(hasher.Sign(a), hasher.Sign(b));
    worst_err = std::max(worst_err, std::abs(est - truth));
  }
  // Hamming/bits has stddev <= 0.5/sqrt(256) ~= 0.031; through the cosine
  // transform the error stays well under 0.2 for every pair.
  EXPECT_LT(worst_err, 0.2);
}

TEST(LshEstimatorPropertyTest, SimHashHammingSymmetricAndSelfZero) {
  RandomProjectionHasher hasher(32, 128, /*seed=*/5);
  Rng rng(99);
  Vec a(32), b(32);
  for (size_t i = 0; i < 32; ++i) {
    a[i] = static_cast<float>(rng.Gaussian());
    b[i] = static_cast<float>(rng.Gaussian());
  }
  auto sa = hasher.Sign(a);
  auto sb = hasher.Sign(b);
  EXPECT_EQ(HammingDistance(sa, sa), 0u);
  EXPECT_EQ(HammingDistance(sa, sb), HammingDistance(sb, sa));
  EXPECT_DOUBLE_EQ(EstimateCosine(sa, sa), 1.0);
}

// ---------------------------------------------------------------------------
// Dirt transforms: idempotent at zero probability, bounded edit otherwise.
// ---------------------------------------------------------------------------
class DirtSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DirtSweep, EditsAreBounded) {
  Rng rng(GetParam());
  benchdata::DirtOptions dirt;
  dirt.null_prob = 0;  // keep content for the length check
  for (int i = 0; i < 50; ++i) {
    std::string original = "Blackfriars Medical Practice";
    std::string dirty = benchdata::DirtyValue(original, dirt, &rng);
    // One typo and one abbreviation can shrink the string, but never below
    // half, and never grow it by more than a couple of characters.
    EXPECT_GE(dirty.size(), original.size() / 2);
    EXPECT_LE(dirty.size(), original.size() + 2);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DirtSweep, ::testing::Values(3, 7, 31));

}  // namespace
}  // namespace d3l
