// Output checks, run after the timed loop: ranking properties, join-path
// admissibility (Algorithm 3), answer digests for the byte-identity checks,
// and table-level quality against the generator's ground truth.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "benchdata/ground_truth.h"
#include "core/join_graph.h"
#include "core/query.h"

namespace perfbench {

/// 64-bit digest of an answer's canonical bytes (core::SaveSearchResult):
/// ranking, evidence, pair rows and candidate alignments. The echoed target
/// profiles and signatures are left out. Two answers with equal digests are
/// taken as byte-identical.
uint64_t ResultDigest(d3l::core::SearchResult result);

/// Digest of a join-path list: every table and every edge, in order.
uint64_t PathsDigest(const std::vector<d3l::core::JoinPath>& paths);

/// Ascending distances, at most `k` entries, distinct tables, every distance
/// in [0, 1]. Empty string when the ranking passes, else the first fault.
std::string CheckRanking(const d3l::core::SearchResult& result, size_t k);

/// Every path starts at a ranked table; every later node is outside the
/// ranking, not repeated on the path and a candidate of the search; every
/// hop is an edge of the graph between consecutive nodes; one side of each
/// edge is its table's subject attribute.
std::string CheckJoinPaths(const d3l::core::SaJoinGraph& graph,
                           const d3l::core::D3LEngine& engine,
                           const d3l::core::SearchResult& result,
                           const std::vector<d3l::core::JoinPath>& paths);

/// Table-level quality of one answer, with the target itself left out.
struct Quality {
  bool counted = false;    ///< the target has at least one related table
  double precision = 0;    ///< related answers / answers
  double recall = 0;       ///< related answers / related lake tables
  /// What a random ranking of as many answers scores: precision equals the
  /// share of lake tables related to the target, recall equals the share of
  /// lake tables answered.
  double precision_base = 0;  ///< related lake tables / (lake tables - 1)
  double recall_base = 0;     ///< answers / (lake tables - 1)
  double coverage = 0;     ///< Eq. 4 with join paths, averaged over answers
};

/// Scores `result` for `target` from the ground truth: tables are related
/// when they share an attribute label; a target column counts as covered
/// by an answer when the answer, or a table on one of its join paths, has a
/// candidate alignment to that column that the ground truth confirms.
Quality Score(const d3l::core::D3LEngine& engine,
              const d3l::benchdata::GroundTruth& truth, const d3l::DataLake& lake,
              uint32_t target, const d3l::core::SearchResult& result,
              const std::vector<d3l::core::JoinPath>& paths);

/// The reference answer of one target: recomputed on a single engine over
/// the whole lake, checked and scored.
struct Reference {
  uint64_t digest = 0;  ///< ResultDigest, combined with PathsDigest if joins
  std::string fault;    ///< first failed check, empty when all pass
  Quality quality;
  size_t paths = 0;
  double paths_seconds = 0;  ///< FindAllJoinPaths on the reference answer
};

/// Recomputes, checks and scores the answer of every lake table as a
/// target, with `threads` threads; indexed by table id. `with_paths` folds
/// the join paths into the digest (the answers of join_real include them).
std::vector<Reference> ComputeReferences(const d3l::core::D3LEngine& engine,
                                         const d3l::core::SaJoinGraph& graph,
                                         const d3l::benchdata::GroundTruth& truth,
                                         const d3l::DataLake& lake, bool with_paths,
                                         size_t threads);

}  // namespace perfbench
