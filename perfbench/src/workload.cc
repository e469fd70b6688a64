#include "workload.h"

#include <algorithm>
#include <random>

#include "benchdata/realish_gen.h"

namespace perfbench {

namespace {

// search_cold queries the Synthetic lake (1,080 tables) through the
// service with two clients; join_real the more numeric Realish lake with
// direct calls from one. remote_sharded (two shard_server processes, one
// client) was dropped: see README.md.
const WorkloadSpec kWorkloads[] = {
    // name        join   clients
    {"search_cold", false, 2},
    {"join_real",   true,  1},
};

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::string WorkloadNames() {
  std::string names;
  for (const WorkloadSpec& w : kWorkloads) {
    names += (names.empty() ? "" : ", ") + std::string(w.name);
  }
  return names;
}

d3l::benchdata::GeneratedLake MakeLake(const WorkloadSpec& spec) {
  d3l::Result<d3l::benchdata::GeneratedLake> lake =
      d3l::Status::Internal("no lake generated");
  if (spec.join) {
    d3l::benchdata::RealishOptions options;
    options.num_clusters = 40;
    options.seed = 7;
    lake = d3l::benchdata::GenerateRealish(options);
  } else {
    d3l::benchdata::SyntheticOptions options;
    options.num_base_tables = 36;  // scale 1.2 of the paper's 30 bases
    options.derived_per_base = 29;
    options.seed = 42;
    lake = d3l::benchdata::GenerateSynthetic(options);
  }
  lake.status().CheckOK();
  return std::move(*lake);
}

d3l::core::D3LOptions EngineOptions() {
  d3l::core::D3LOptions options;
  options.num_threads = kBuildThreads;
  return options;
}

std::vector<uint32_t> TargetOrder(size_t n, uint64_t seed) {
  std::vector<uint32_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = static_cast<uint32_t>(i);
  std::mt19937_64 rng(seed ^ 0x7a72656e6f746174ull);
  std::shuffle(order.begin(), order.end(), rng);
  return order;
}

}  // namespace perfbench
