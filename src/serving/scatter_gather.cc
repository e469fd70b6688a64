#include "serving/scatter_gather.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "obs/trace.h"

namespace d3l::serving {

namespace {

/// IOError unless the part's lists have one entry per target column and
/// every id in them and in its rows is one the deployment numbers: the
/// coordinator indexes `attr_table` and the unions with them.
Status CheckShardScore(const ShardScore& score, size_t n_cols, size_t n_attrs) {
  if (score.lists.ids.size() != n_cols) {
    return Status::IOError("a part returned candidate lists for another column count");
  }
  for (const auto& per_evidence : score.lists.ids) {
    for (const std::vector<uint32_t>& ids : per_evidence) {
      for (uint32_t id : ids) {
        if (id >= n_attrs) return Status::IOError("a part returned an unknown id");
      }
    }
  }
  for (const core::PairDistances& row : score.rows) {
    if (row.target_column >= n_cols || row.attribute_id >= n_attrs) {
      return Status::IOError("a part returned a row outside the target or the lake");
    }
  }
  return Status::OK();
}

/// True when `a` has one entry per target column and the same forest depth
/// per consulted index as `b`: what CandidateDepthCounts::Add requires.
bool SameShape(const core::CandidateDepthCounts& a, const core::CandidateDepthCounts& b,
               size_t n_cols) {
  if (a.counts.size() != n_cols || b.counts.size() != n_cols) return false;
  for (size_t c = 0; c < n_cols; ++c) {
    for (size_t e = 0; e < core::kNumEvidence; ++e) {
      if (a.counts[c][e].size() != b.counts[c][e].size()) return false;
    }
  }
  return true;
}

}  // namespace

Result<core::SearchResult> ScatterGatherSearch(
    const std::vector<const ShardClient*>& parts, core::QueryTarget target, size_t k,
    const std::array<bool, core::kNumEvidence>& enabled_mask,
    const core::D3LOptions& options, const std::vector<uint32_t>& attr_table,
    size_t num_tables, ThreadPool* pool) {
  D3L_RETURN_NOT_OK(core::CheckQueryTarget(target, options.index));
  const size_t n_parts = parts.size();
  const size_t n_cols = target.sigs.size();
  const size_t m = std::max(options.candidates_per_attribute, k);

  // Pool workers carry no trace of their own; installing the caller's in
  // each one puts every part's spans (RPC spans included) under the
  // caller's current span.
  const obs::TraceHandle trace = obs::CurrentTrace();
  std::vector<Status> errors(n_parts, Status::OK());
  const auto scatter = [&](const std::function<void(size_t)>& call) {
    if (pool == nullptr) {
      for (size_t i = 0; i < n_parts; ++i) call(i);
    } else {
      pool->ParallelFor(n_parts, [&](size_t i) {
        obs::TraceScope scope(trace);
        call(i);
      });
    }
  };

  std::vector<core::CandidateDepthCounts> counts(n_parts);
  scatter([&](size_t i) {
    Result<core::CandidateDepthCounts> r =
        parts[i]->CollectDepthCounts(target, enabled_mask, m);
    if (r.ok()) {
      counts[i] = std::move(*r);
    } else {
      errors[i] = r.status();
    }
  });
  for (const Status& e : errors) D3L_RETURN_NOT_OK(e);
  for (const core::CandidateDepthCounts& c : counts) {
    if (!SameShape(c, counts[0], n_cols)) {
      return Status::IOError("a part returned depth counts of another shape");
    }
  }
  core::CandidateDepthCounts total = std::move(counts[0]);
  for (size_t i = 1; i < n_parts; ++i) total.Add(counts[i]);
  const core::CandidateStopDepths stops = core::D3LEngine::ResolveStopDepths(total, m);

  std::vector<ShardScore> scores(n_parts);
  scatter([&](size_t i) {
    Result<ShardScore> r = parts[i]->ScoreAtStops(target, stops, m, enabled_mask);
    if (r.ok()) {
      scores[i] = std::move(*r);
    } else {
      errors[i] = r.status();
    }
  });
  for (const Status& e : errors) D3L_RETURN_NOT_OK(e);

  std::vector<core::CandidateLists> lists;
  lists.reserve(n_parts);
  for (ShardScore& score : scores) {
    D3L_RETURN_NOT_OK(CheckShardScore(score, n_cols, attr_table.size()));
    lists.push_back(std::move(score.lists));
  }
  const std::vector<std::vector<uint32_t>> unions = core::D3LEngine::UnionCandidates(
      core::D3LEngine::MergeCandidateLists(lists, m));
  std::vector<core::PairDistances> rows;
  for (const ShardScore& score : scores) {
    for (const core::PairDistances& row : score.rows) {
      const std::vector<uint32_t>& u = unions[row.target_column];
      if (std::binary_search(u.begin(), u.end(), row.attribute_id)) {
        rows.push_back(row);
      }
    }
  }

  core::SearchResult result = core::D3LEngine::RankRows(
      std::move(rows), n_cols, num_tables,
      [&attr_table](uint32_t id) { return attr_table[id]; },
      options.weights.Masked(enabled_mask), k);
  result.target_profiles = std::move(target.profiles);
  result.target_sigs = std::move(target.sigs);
  return result;
}

}  // namespace d3l::serving
