// The two workloads: what lake each one generates and how its clients drive
// it. README.md gives the reasons.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "benchdata/synthetic_gen.h"
#include "core/query.h"

namespace perfbench {

/// Answer size of every query.
inline constexpr size_t kTopK = 10;
/// Threads of every index build (IndexLake, BuildShards, the probes).
inline constexpr size_t kBuildThreads = 4;
/// Set-up repetitions per run; setup_s is their median.
inline constexpr size_t kSetupReps = 3;
/// Index builds and opens per set-up repetition. index_build_s and open_ms
/// are the medians of the run's six. With one build per repetition, the
/// three samples a run left index_build_s's spread over five seeds at up
/// to 0.28.
inline constexpr size_t kBuildsPerRep = 2;
inline constexpr size_t kOpensPerRep = 2;
/// Warm-up queries after each open, from the tail of the target order.
inline constexpr size_t kWarmupQueries = 16;
/// A timed loop runs whole rounds until both the run length and this many
/// queries are reached (so p99 has at least ten samples above it).
inline constexpr size_t kMinQueries = 1000;
/// Queries per round of a timed loop.
inline constexpr size_t kRoundQueries = 64;

/// Every workload serves one engine snapshot, opened mapped, and queries
/// each table once per lake-size queries, in a seeded order.
struct WorkloadSpec {
  const char* name;
  bool join;                 ///< Realish lake, direct Search + Algorithm 3
                             ///< (no service); else the Synthetic lake
  /// Closed-loop client threads. A DiscoveryService gets as many workers:
  /// a closed loop never has more queries in flight.
  size_t clients;
};

/// Null for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);
std::string WorkloadNames();

/// The workload's lake with its ground truth. The lake is fixed per
/// workload (the generators' reference seeds): the run seed drives only the
/// query stream, so sizes, quality and counts repeat exactly across seeds
/// and the spread of a timing is the system's, not the lake's.
d3l::benchdata::GeneratedLake MakeLake(const WorkloadSpec& spec);

/// Engine options: the library defaults with the build thread count pinned.
d3l::core::D3LOptions EngineOptions();

/// A seeded permutation of [0, n): the order targets are queried in.
std::vector<uint32_t> TargetOrder(size_t n, uint64_t seed);

}  // namespace perfbench
