// SearchBackend over N remote shard servers: the scatter-gather coordinator
// of a distributed D3L deployment.
//
// Each endpoint is a shard_server process (examples/shard_server.cc —
// rpc::RpcServer over a full or subset ShardedEngine of ONE deployment).
// Connect() fetches every server's identity, verifies they agree (same
// options and index fingerprints, i.e. the same manifest generation) and
// that their served tables form an exact partition of the lake, then
// stitches the global numbering the servers report back into local
// table-name/attribute maps.
//
// Search runs the coordinator of scatter_gather.h over the servers, one
// ShardClient each, which sends DCNT for the depth counts and SCOR for
// retrieval and scoring at the global stop depths; scatter_gather.h gives
// why the result is byte-identical to a single engine over the unsharded
// lake (asserted by tests/remote_test.cc). A deployment of ONE server that
// serves every shard skips the two round trips and sends SRCH.
//
// Degradation: a killed or unreachable server surfaces as
// Status::Unavailable after the client's bounded retries — Search fails
// cleanly (partial answers would silently violate the exactness contract)
// and DiscoveryService::Submit futures resolve with the error instead of
// hanging.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "rpc/client.h"
#include "rpc/wire.h"
#include "serving/scatter_gather.h"
#include "serving/search_backend.h"
#include "serving/thread_pool.h"

namespace d3l::serving {

struct RemoteBackendOptions {
  /// Per-server connection/retry behavior (timeouts, attempts, backoff).
  rpc::RpcClientOptions client;
  /// Fan-out worker threads; 0 sizes the pool to the server count.
  size_t num_threads = 0;
};

/// \brief Scatter-gather SearchBackend over remote shard servers.
class RemoteBackend : public SearchBackend {
 public:
  /// Connects to every `host:port` endpoint, fetches identities, verifies
  /// the servers form one coherent deployment (exact table partition,
  /// uniform fingerprints) and builds the global numbering. Fails with
  /// Unavailable if any server cannot be reached.
  static Result<std::unique_ptr<RemoteBackend>> Connect(
      std::vector<std::string> endpoints, RemoteBackendOptions options = {});

  using SearchBackend::Search;  // the Profile+Search convenience overload

  /// Profiles on the first reachable server (profiles depend only on the
  /// uniform options, so any server gives the identical QueryTarget).
  Result<core::QueryTarget> Profile(const Table& target) const override;

  /// Exact whole-lake top-k: the coordinator over the servers, in parallel
  /// on the fan-out pool (or one SRCH; see the header comment).
  Result<core::SearchResult> Search(
      core::QueryTarget target, size_t k,
      const std::array<bool, core::kNumEvidence>& enabled_mask) const override;

  /// The deployment's engine options, as reported (uniformly) by the
  /// servers. Not safe to call concurrently with Reload().
  const core::D3LOptions& options() const override { return options_; }

  /// kind = kRemote; totals/fingerprints are the whole deployment's — the
  /// index fingerprint equals the local ShardedEngine's over the same
  /// manifest, so result caches warmed locally stay valid remotely.
  BackendInfo Info() const override;

  std::string table_name(uint32_t table_index) const override;

  /// Asks every server to reload its deployment (the RELD RPC), then
  /// re-verifies coherence and re-stitches the global numbering from the
  /// reloaded identities. In-flight Search calls keep the old numbering.
  Status Reload() D3L_EXCLUDES(state_mu_);

  size_t num_servers() const { return clients_.size(); }

 private:
  /// Immutable stitched view of the deployment — swapped wholesale on
  /// Reload (RCU), so Search snapshots one coherent generation.
  struct Stitched {
    std::vector<std::string> table_names;  ///< [global table] -> name
    std::vector<uint32_t> attr_table;      ///< [global attr] -> global table
    size_t num_shards = 0;                 ///< across all servers
    uint64_t options_fingerprint = 0;
    uint64_t index_fingerprint = 0;
    bool single_full_server = false;       ///< SRCH fast path applies
  };

  explicit RemoteBackend(size_t num_threads)
      : pool_(num_threads, "remote_backend") {}

  static Result<Stitched> Stitch(const std::vector<rpc::ServerInfo>& infos,
                                 const std::vector<std::string>& endpoints);

  std::shared_ptr<const Stitched> state() const D3L_EXCLUDES(state_mu_) {
    MutexLock lock(state_mu_);
    return state_;
  }

  std::vector<std::unique_ptr<rpc::RpcClient>> clients_;
  /// clients_[i] as a coordinator part (DCNT/SCOR over that connection).
  std::vector<std::unique_ptr<const ShardClient>> parts_;
  core::D3LOptions options_;

  mutable Mutex state_mu_;
  std::shared_ptr<const Stitched> state_ D3L_GUARDED_BY(state_mu_);

  mutable ThreadPool pool_;
};

}  // namespace d3l::serving
