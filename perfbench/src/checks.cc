#include "checks.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "common/hash.h"
#include "io/binary_io.h"
#include "util.h"
#include "workload.h"

namespace perfbench {

using d3l::core::JoinPath;
using d3l::core::SearchResult;

uint64_t ResultDigest(SearchResult result) {
  result.target_profiles.clear();
  result.target_sigs.clear();
  std::string bytes;
  d3l::io::Writer w;
  w.OpenBuffer(&bytes);
  w.BeginSection(d3l::io::SectionId("RSLT"));
  d3l::core::SaveSearchResult(w, result);
  w.EndSection().CheckOK();
  w.Finish().CheckOK();
  return d3l::HashBytes(bytes.data(), bytes.size());
}

uint64_t PathsDigest(const std::vector<JoinPath>& paths) {
  uint64_t h = d3l::Mix64(paths.size());
  for (const JoinPath& p : paths) {
    for (uint32_t t : p.tables) h = d3l::HashCombine(h, t);
    for (const d3l::core::JoinEdge& e : p.edges) {
      uint64_t ov = 0;
      std::memcpy(&ov, &e.overlap_estimate, sizeof(ov));
      h = d3l::HashCombine(h, (uint64_t{e.from_table} << 32) | e.from_column);
      h = d3l::HashCombine(h, (uint64_t{e.to_table} << 32) | e.to_column);
      h = d3l::HashCombine(h, ov);
    }
  }
  return h;
}

std::string CheckRanking(const SearchResult& result, size_t k) {
  if (result.ranked.size() > k) {
    return "ranking holds " + std::to_string(result.ranked.size()) + " > k entries";
  }
  std::unordered_set<uint32_t> seen;
  for (size_t i = 0; i < result.ranked.size(); ++i) {
    const double d = result.ranked[i].distance;
    if (!(d >= 0.0 && d <= 1.0)) return "distance outside [0, 1]";
    if (i > 0 && d < result.ranked[i - 1].distance) return "ranking not ascending";
    if (!seen.insert(result.ranked[i].table_index).second) {
      return "table ranked twice";
    }
  }
  return "";
}

std::string CheckJoinPaths(const d3l::core::SaJoinGraph& graph,
                           const d3l::core::D3LEngine& engine,
                           const SearchResult& result,
                           const std::vector<JoinPath>& paths) {
  std::unordered_set<uint32_t> top;
  for (const auto& m : result.ranked) top.insert(m.table_index);
  std::unordered_set<uint64_t> checked_hops;  // paths share most of their hops
  for (const JoinPath& p : paths) {
    if (p.tables.empty() || top.count(p.tables[0]) == 0) {
      return "join path does not start at a ranked table";
    }
    if (p.edges.size() + 1 != p.tables.size()) return "join path edge count";
    for (size_t i = 1; i < p.tables.size(); ++i) {
      const uint32_t t = p.tables[i];
      if (top.count(t) > 0) return "join path re-enters the ranking";
      if (std::find(p.tables.begin(), p.tables.begin() + i, t) != p.tables.begin() + i) {
        return "join path has a cycle";
      }
      if (result.candidate_alignments.count(t) == 0) {
        return "join path node unrelated to the target";
      }
    }
    for (size_t i = 0; i < p.edges.size(); ++i) {
      const d3l::core::JoinEdge& e = p.edges[i];
      if (e.from_table != p.tables[i] || e.to_table != p.tables[i + 1]) {
        return "join path edge does not join consecutive nodes";
      }
      const uint64_t hop = (uint64_t{e.from_table} << 32) | e.to_table;
      if (checked_hops.count(hop) == 0) {
        if (!graph.HasEdge(e.from_table, e.to_table)) return "join path hop is not a graph edge";
        checked_hops.insert(hop);
      }
      const bool subject =
          engine.subject_column(e.from_table) == static_cast<int>(e.from_column) ||
          engine.subject_column(e.to_table) == static_cast<int>(e.to_column);
      if (!subject) return "join path edge without a subject attribute";
    }
  }
  return "";
}

Quality Score(const d3l::core::D3LEngine& engine,
              const d3l::benchdata::GroundTruth& truth, const d3l::DataLake& lake,
              uint32_t target, const SearchResult& result,
              const std::vector<JoinPath>& paths) {
  Quality q;
  const std::string& name = lake.table(target).name();
  const size_t related = truth.RelatedCount(name);
  if (related == 0 || lake.size() < 2) return q;
  q.counted = true;
  const double others = static_cast<double>(lake.size() - 1);
  q.precision_base = static_cast<double>(related) / others;

  const size_t arity = lake.table(target).num_columns();
  // Target columns a table covers through confirmed alignments (memoized:
  // the join paths of different answers pass through the same tables).
  std::unordered_map<uint32_t, std::vector<uint32_t>> cover;
  const auto covered_by = [&](uint32_t table, std::unordered_set<uint32_t>* covered) {
    auto [memo, fresh] = cover.try_emplace(table);
    if (fresh) {
      auto it = result.candidate_alignments.find(table);
      if (it != result.candidate_alignments.end()) {
        const std::string& other = lake.table(table).name();
        for (const auto& [target_col, attr] : it->second) {
          const uint32_t col = engine.indexes().profile(attr).ref.column;
          if (truth.AttributesRelated(name, target_col, other, col)) {
            memo->second.push_back(target_col);
          }
        }
      }
    }
    covered->insert(memo->second.begin(), memo->second.end());
  };
  // Tables on the join paths of each start.
  std::unordered_map<uint32_t, std::unordered_set<uint32_t>> joined;
  for (const JoinPath& p : paths) {
    for (size_t i = 1; i < p.tables.size(); ++i) joined[p.tables[0]].insert(p.tables[i]);
  }

  size_t answers = 0, hits = 0;
  double coverage_sum = 0;
  for (const auto& m : result.ranked) {
    if (m.table_index == target) continue;
    ++answers;
    if (truth.TablesRelated(name, lake.table(m.table_index).name())) ++hits;
    std::unordered_set<uint32_t> covered;
    covered_by(m.table_index, &covered);
    for (uint32_t t : joined[m.table_index]) covered_by(t, &covered);
    coverage_sum += arity ? static_cast<double>(covered.size()) / static_cast<double>(arity) : 0;
  }
  if (answers > 0) {
    q.precision = static_cast<double>(hits) / static_cast<double>(answers);
    q.coverage = coverage_sum / static_cast<double>(answers);
  }
  q.recall = static_cast<double>(hits) / static_cast<double>(related);
  q.recall_base = static_cast<double>(answers) / others;
  return q;
}

std::vector<Reference> ComputeReferences(const d3l::core::D3LEngine& engine,
                                         const d3l::core::SaJoinGraph& graph,
                                         const d3l::benchdata::GroundTruth& truth,
                                         const d3l::DataLake& lake, bool with_paths,
                                         size_t threads) {
  std::vector<Reference> refs(lake.size());
  std::atomic<size_t> next{0};
  const auto work = [&] {
    for (;;) {
      const size_t i = next.fetch_add(1);
      if (i >= lake.size()) return;
      const uint32_t t = static_cast<uint32_t>(i);
      Reference& ref = refs[t];
      auto result = engine.Search(lake.table(t), kTopK);
      if (!result.ok()) {
        ref.fault = "reference search failed: " + result.status().ToString();
        continue;
      }
      const double p0 = Now();
      const std::vector<JoinPath> paths = d3l::core::FindAllJoinPaths(graph, *result);
      ref.paths_seconds = Now() - p0;
      ref.paths = paths.size();
      ref.fault = CheckRanking(*result, kTopK);
      if (ref.fault.empty()) ref.fault = CheckJoinPaths(graph, engine, *result, paths);
      ref.quality = Score(engine, truth, lake, t, *result, paths);
      const uint64_t digest = ResultDigest(*result);
      ref.digest = with_paths ? d3l::HashCombine(digest, PathsDigest(paths)) : digest;
    }
  };
  std::vector<std::thread> pool;
  for (size_t i = 0; i < std::max<size_t>(1, threads); ++i) pool.emplace_back(work);
  for (std::thread& th : pool) th.join();
  return refs;
}

}  // namespace perfbench
