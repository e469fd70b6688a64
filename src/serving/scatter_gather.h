// The scatter-gather coordinator: one exact D3L query over a lake split
// into parts that index disjoint attribute sets.
//
// A part is anything that answers the two phase calls of ShardClient in
// the lake's GLOBAL attribute numbering: a ShardedEngine (all of its shards
// or a subset) in this process, or a shard server behind RemoteBackend.
// ScatterGatherSearch runs
//
//   1. CollectDepthCounts on every part, then sum the counts;
//   2. core::D3LEngine::ResolveStopDepths once, on the sum;
//   3. ScoreAtStops on every part at those stop depths;
//   4. MergeCandidateLists (re-cap at m) -> UnionCandidates;
//   5. drop rows outside the unions, then RankRows with the masked weights.
//
// The result is byte-identical to one core::D3LEngine over the whole lake
// (distances, evidence vectors, tie order and candidate alignments;
// asserted by serving_test and remote_test), for three reasons:
//
// * Counts add. counts[d-1] of a forest is the number of distinct items
//   that share a depth-d prefix with the query in some tree. Every item
//   lives in exactly one part, so the parts' counts sum to the whole
//   lake's, and the stop rule applied to the sum picks the whole lake's
//   stop depths. A part's early-terminated counts are clamped only at
//   depths shallower than one where that part alone already reaches m, so
//   the sum reaches m there too and the deepest such depth is unchanged.
// * The first m ids survive the merge. At a fixed stop depth, the whole
//   lake's list for one (column, evidence) is the m smallest matching
//   global ids. An id among them that part P owns has fewer than m smaller
//   matching ids in the whole lake, hence fewer than m in P, so it is in
//   P's own m-capped list (global numbering is monotone in each part's
//   local order). Merging the parts' lists and keeping the m smallest
//   therefore gives exactly the whole-lake list.
// * Rows are pure. A row is a function of the query and one candidate
//   only: the estimates read the candidate's signatures, and the
//   Algorithm 2 guards ask whether the candidate, or its table's subject
//   attribute, collides with the query in a banded index, which is a
//   property of that pair, held by the part that owns the table. So the
//   row a part scores equals the one a single engine scores. A part scores
//   its own unions, a superset of its share of the merged ones, so every
//   needed row arrives and the extras are dropped. RankRows re-sorts rows
//   canonically, so arrival order does not matter.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/query.h"
#include "serving/thread_pool.h"

namespace d3l::serving {

/// \brief One part's answer to ScoreAtStops, in global attribute ids.
struct ShardScore {
  /// Per (column, evidence) candidate ids, ascending and capped at the m
  /// smallest: the part's own first-m, which the coordinator merges.
  core::CandidateLists lists;
  /// Scored rows for the part's per-column unions of `lists`.
  std::vector<core::PairDistances> rows;
};

/// \brief One part of a deployment, as the coordinator addresses it.
class ShardClient {
 public:
  virtual ~ShardClient() = default;

  /// Candidate depth counts over the part's attributes. `m` is the
  /// per-index budget max(candidates_per_attribute, k).
  virtual Result<core::CandidateDepthCounts> CollectDepthCounts(
      const core::QueryTarget& target,
      const std::array<bool, core::kNumEvidence>& enabled_mask, size_t m) const = 0;

  /// Retrieval at the given stop depths, merged over the part's shards and
  /// capped at m, plus the rows scored for its candidate unions.
  virtual Result<ShardScore> ScoreAtStops(
      const core::QueryTarget& target, const core::CandidateStopDepths& stops,
      size_t m, const std::array<bool, core::kNumEvidence>& enabled_mask) const = 0;
};

/// \brief Exact top-k over `parts` (non-empty, disjoint, together the whole
/// lake). `options` are the deployment's uniform engine options;
/// `attr_table` maps a global attribute id to its global table id in
/// [0, num_tables). Parts run on `pool` when one is given — each worker
/// under the caller's trace — and serially on the caller otherwise (a part
/// that fans out on a pool of its own must not be driven from that pool).
/// InvalidArgument for a target CheckQueryTarget rejects; a part's error is
/// returned as is; IOError when a part answers with counts shaped unlike
/// the target's columns or the first part's counts, or with an id, row
/// attribute or row column out of range.
Result<core::SearchResult> ScatterGatherSearch(
    const std::vector<const ShardClient*>& parts, core::QueryTarget target, size_t k,
    const std::array<bool, core::kNumEvidence>& enabled_mask,
    const core::D3LOptions& options, const std::vector<uint32_t>& attr_table,
    size_t num_tables, ThreadPool* pool = nullptr);

}  // namespace d3l::serving
