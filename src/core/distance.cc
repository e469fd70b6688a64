#include "core/distance.h"

#include <initializer_list>

#include "stats/ks.h"

namespace d3l::core {

namespace {

// Bitmap over attribute ids [0, n) with the threshold hits of `query` under
// each of `evidences` set.
void FillHits(const D3LIndexes& indexes, const AttributeSignatures& query,
              std::initializer_list<Evidence> evidences, std::vector<uint64_t>* bits) {
  bits->assign(indexes.num_attributes() / 64 + 1, 0);
  for (Evidence e : evidences) {
    for (uint32_t id : indexes.LookupThreshold(e, query)) {
      (*bits)[id / 64] |= uint64_t{1} << (id % 64);
    }
  }
}

bool TestBit(const std::vector<uint64_t>& bits, uint32_t id) {
  return (bits[id / 64] >> (id % 64)) & 1;
}

}  // namespace

DistributionScorer::DistributionScorer(const D3LIndexes& indexes,
                                       const AttributeSignatures* target_subject)
    : indexes_(indexes), target_subject_(target_subject) {}

void DistributionScorer::SetColumn(const AttributeProfile& profile,
                                   const AttributeSignatures& sigs) {
  column_profile_ = &profile;
  column_sigs_ = &sigs;
  column_built_ = false;
}

bool DistributionScorer::SubjectsRelated(uint32_t source_subject_id) {
  // Algorithm 2, line 4: the subject attributes related under I*.
  if (target_subject_ == nullptr || source_subject_id == UINT32_MAX) return false;
  if (!subject_built_) {
    FillHits(indexes_, *target_subject_,
             {Evidence::kName, Evidence::kValue, Evidence::kFormat, Evidence::kEmbedding},
             &subject_hits_);
    subject_built_ = true;
  }
  return TestBit(subject_hits_, source_subject_id);
}

bool DistributionScorer::ColumnGuardHit(uint32_t candidate_id) {
  // Lines 5-6: a' in IN.lookup(a) or a' in IF.lookup(a).
  if (!column_built_) {
    FillHits(indexes_, *column_sigs_, {Evidence::kName, Evidence::kFormat}, &column_hits_);
    column_built_ = true;
  }
  return TestBit(column_hits_, candidate_id);
}

double DistributionScorer::Distance(uint32_t candidate_id, uint32_t source_subject_id) {
  const AttributeProfile& target = *column_profile_;
  const AttributeProfile& cand = indexes_.profile(candidate_id);
  if (!target.is_numeric || !cand.is_numeric) return 1.0;
  if (target.numeric_sample.empty() || cand.numeric_sample.empty()) return 1.0;
  if (!SubjectsRelated(source_subject_id) && !ColumnGuardHit(candidate_id)) {
    return 1.0;  // line 7
  }
  return KsStatistic(target.numeric_sample, cand.numeric_sample);
}

}  // namespace d3l::core
