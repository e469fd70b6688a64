// Distribution relatedness DD: the guarded KS computation of Algorithm 2.
#pragma once

#include <cstdint>
#include <vector>

#include "core/indexes.h"

namespace d3l::core {

/// \brief Algorithm 2 over the candidates of one query, column by column.
///
/// DD(a, a') is the KS statistic over the two numeric samples if (i) the
/// subject attributes of the two tables are related under any index (I*),
/// or (ii) a' is in IN.lookup(a), or (iii) a' is in IF.lookup(a); it is 1
/// otherwise, and 1 whenever either attribute is not numeric or has an
/// empty sample. Samples must be sorted ascending and NaN-free
/// (stats/ks.h IsKsSample): BuildProfile makes them so, and snapshot loads
/// and CheckQueryTarget reject any that are not.
///
/// The guard sets are flat bitmaps over attribute ids, built lazily and at
/// most once each: the target subject's I* hits on the first numeric pair
/// whose candidate table has a subject, a column's IN/IF hits on the first
/// numeric pair of that column that I* does not admit. A query with no
/// numeric pair does no guard lookup at all. One instance serves one query
/// on one thread.
class DistributionScorer {
 public:
  /// \param target_subject signatures of the target table's subject
  ///        attribute (nullptr if the target has none); must outlive this.
  DistributionScorer(const D3LIndexes& indexes, const AttributeSignatures* target_subject);

  /// Moves to target column a; both arguments must outlive the Distance
  /// calls that follow.
  void SetColumn(const AttributeProfile& profile, const AttributeSignatures& sigs);

  /// DD(a, a') for the current column a and the indexed attribute
  /// a' = `candidate_id`, whose table's subject attribute is
  /// `source_subject_id` (UINT32_MAX when that table has none).
  double Distance(uint32_t candidate_id, uint32_t source_subject_id);

 private:
  bool SubjectsRelated(uint32_t source_subject_id);
  bool ColumnGuardHit(uint32_t candidate_id);

  const D3LIndexes& indexes_;
  const AttributeSignatures* target_subject_;
  const AttributeProfile* column_profile_ = nullptr;
  const AttributeSignatures* column_sigs_ = nullptr;
  std::vector<uint64_t> subject_hits_;  ///< I* hits of the target subject
  std::vector<uint64_t> column_hits_;   ///< IN and IF hits of the column
  bool subject_built_ = false;
  bool column_built_ = false;
};

}  // namespace d3l::core
