#include "serving/remote_backend.h"

#include <utility>

namespace d3l::serving {

namespace {

/// Splits "host:port" on the LAST colon (hosts may hold none of their own
/// here — numeric IPv6 endpoints would need bracket syntax, which the lake
/// deployments this serves don't use).
Status ParseEndpoint(const std::string& spec, std::string* host,
                     uint16_t* port) {
  const size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == spec.size()) {
    return Status::InvalidArgument("endpoint '" + spec +
                                   "' is not of the form host:port");
  }
  unsigned long value = 0;
  for (size_t i = colon + 1; i < spec.size(); ++i) {
    const char c = spec[i];
    if (c < '0' || c > '9') {
      return Status::InvalidArgument("endpoint '" + spec +
                                     "' has a non-numeric port");
    }
    value = value * 10 + static_cast<unsigned long>(c - '0');
    if (value > 65535) {
      return Status::InvalidArgument("endpoint '" + spec +
                                     "' has an out-of-range port");
    }
  }
  *host = spec.substr(0, colon);
  *port = static_cast<uint16_t>(value);
  return Status::OK();
}

/// One INFO round trip, decoded and integrity-checked.
Result<rpc::ServerInfo> FetchInfo(rpc::RpcClient& client) {
  const std::string request =
      rpc::BuildFrame(rpc::kMethodInfo, [](io::Writer&) {});
  D3L_ASSIGN_OR_RETURN(std::unique_ptr<io::Reader> r,
                       client.CallChecked(rpc::kMethodInfo, request));
  rpc::ServerInfo info = rpc::LoadServerInfo(*r);
  D3L_RETURN_NOT_OK(r->status());
  D3L_RETURN_NOT_OK(r->EndSection());
  return info;
}

/// A shard server as a coordinator part: each phase call is one round trip.
class RemoteShard final : public ShardClient {
 public:
  explicit RemoteShard(rpc::RpcClient& client) : client_(client) {}

  Result<core::CandidateDepthCounts> CollectDepthCounts(
      const core::QueryTarget& target,
      const std::array<bool, core::kNumEvidence>& enabled_mask,
      size_t m) const override {
    const std::string request =
        rpc::BuildFrame(rpc::kMethodDepthCounts, [&](io::Writer& w) {
          core::SaveQueryTarget(w, target);
          rpc::SaveMask(w, enabled_mask);
          w.WriteU64(m);
        });
    D3L_ASSIGN_OR_RETURN(std::unique_ptr<io::Reader> r,
                         client_.CallChecked(rpc::kMethodDepthCounts, request));
    core::CandidateDepthCounts counts = rpc::LoadDepthCounts(*r);
    D3L_RETURN_NOT_OK(r->status());
    D3L_RETURN_NOT_OK(r->EndSection());
    return counts;
  }

  Result<ShardScore> ScoreAtStops(
      const core::QueryTarget& target, const core::CandidateStopDepths& stops,
      size_t m, const std::array<bool, core::kNumEvidence>& enabled_mask) const override {
    const std::string request =
        rpc::BuildFrame(rpc::kMethodScoreAtStops, [&](io::Writer& w) {
          core::SaveQueryTarget(w, target);
          rpc::SaveStopDepths(w, stops);
          w.WriteU64(m);
          rpc::SaveMask(w, enabled_mask);
        });
    D3L_ASSIGN_OR_RETURN(std::unique_ptr<io::Reader> r,
                         client_.CallChecked(rpc::kMethodScoreAtStops, request));
    ShardScore score;
    score.lists = rpc::LoadCandidateLists(*r);
    score.rows = rpc::LoadRows(*r);
    D3L_RETURN_NOT_OK(r->status());
    D3L_RETURN_NOT_OK(r->EndSection());
    return score;
  }

 private:
  rpc::RpcClient& client_;
};

}  // namespace

Result<RemoteBackend::Stitched> RemoteBackend::Stitch(
    const std::vector<rpc::ServerInfo>& infos,
    const std::vector<std::string>& endpoints) {
  const rpc::ServerInfo& first = infos.front();
  Stitched st;
  st.options_fingerprint = first.backend.options_fingerprint;
  st.index_fingerprint = first.backend.index_fingerprint;
  st.num_shards = first.backend.num_shards;
  st.single_full_server = infos.size() == 1 && first.serves_all;

  // Every server must be a shard of the SAME deployment: a subset
  // ShardedEngine folds the full manifest into its fingerprints and totals
  // precisely so this comparison is exact across servers.
  for (size_t i = 0; i < infos.size(); ++i) {
    const rpc::ServerInfo& info = infos[i];
    if (info.backend.kind != BackendKind::kSharded) {
      return Status::InvalidArgument(
          "server " + endpoints[i] + " reports backend kind '" +
          BackendKindName(info.backend.kind) +
          "', not the sharded engine a shard server fronts");
    }
    if (info.backend.options_fingerprint != st.options_fingerprint ||
        info.backend.index_fingerprint != st.index_fingerprint ||
        info.backend.num_tables != first.backend.num_tables ||
        info.backend.num_attributes != first.backend.num_attributes ||
        info.backend.num_shards != st.num_shards) {
      return Status::InvalidArgument(
          "servers " + endpoints[0] + " and " + endpoints[i] +
          " disagree on deployment identity (different manifest "
          "generations or options?) — refusing to scatter-gather "
          "across mixed deployments");
    }
  }

  // The served tables must form an EXACT partition of the lake's global
  // numbering: a gap loses candidates silently, an overlap double-scores.
  const size_t n_tables = first.backend.num_tables;
  st.table_names.assign(n_tables, std::string());
  std::vector<uint32_t> column_counts(n_tables, 0);
  std::vector<bool> covered(n_tables, false);
  for (size_t i = 0; i < infos.size(); ++i) {
    for (const ShardedEngine::ServedTable& t : infos[i].served_tables) {
      if (t.global_id >= n_tables) {
        return Status::IOError("server " + endpoints[i] +
                               " reports out-of-range table id " +
                               std::to_string(t.global_id));
      }
      if (covered[t.global_id]) {
        return Status::InvalidArgument(
            "table '" + t.name + "' (id " + std::to_string(t.global_id) +
            ") is served by more than one server — shard assignments "
            "must not overlap");
      }
      covered[t.global_id] = true;
      st.table_names[t.global_id] = t.name;
      column_counts[t.global_id] = t.column_count;
    }
  }
  for (size_t g = 0; g < n_tables; ++g) {
    if (!covered[g]) {
      return Status::InvalidArgument(
          "table id " + std::to_string(g) +
          " is served by no endpoint — the given servers do not cover "
          "the whole lake");
    }
  }

  // Global attribute numbering is contiguous per table in table order
  // (the registry layout every engine over this manifest shares).
  st.attr_table.reserve(first.backend.num_attributes);
  for (size_t g = 0; g < n_tables; ++g) {
    for (uint32_t c = 0; c < column_counts[g]; ++c) {
      st.attr_table.push_back(static_cast<uint32_t>(g));
    }
  }
  if (st.attr_table.size() != first.backend.num_attributes) {
    return Status::IOError(
        "served column counts sum to " + std::to_string(st.attr_table.size()) +
        " attributes but the deployment indexes " +
        std::to_string(first.backend.num_attributes));
  }
  return st;
}

Result<std::unique_ptr<RemoteBackend>> RemoteBackend::Connect(
    std::vector<std::string> endpoints, RemoteBackendOptions options) {
  if (endpoints.empty()) {
    return Status::InvalidArgument("no endpoints given");
  }
  const size_t threads =
      options.num_threads > 0 ? options.num_threads : endpoints.size();
  std::unique_ptr<RemoteBackend> backend(new RemoteBackend(threads));
  for (const std::string& spec : endpoints) {
    std::string host;
    uint16_t port = 0;
    D3L_RETURN_NOT_OK(ParseEndpoint(spec, &host, &port));
    backend->clients_.push_back(std::make_unique<rpc::RpcClient>(
        std::move(host), port, options.client));
    backend->parts_.push_back(std::make_unique<RemoteShard>(*backend->clients_.back()));
  }

  std::vector<Result<rpc::ServerInfo>> fetched;
  fetched.reserve(endpoints.size());
  for (auto& client : backend->clients_) fetched.push_back(FetchInfo(*client));
  std::vector<rpc::ServerInfo> infos;
  infos.reserve(fetched.size());
  for (auto& f : fetched) {
    D3L_RETURN_NOT_OK(f.status());
    infos.push_back(std::move(*f));
  }

  D3L_ASSIGN_OR_RETURN(Stitched st, Stitch(infos, endpoints));
  backend->options_ = std::move(infos.front().options);
  backend->state_ = std::make_shared<const Stitched>(std::move(st));
  return backend;
}

Result<core::QueryTarget> RemoteBackend::Profile(const Table& target) const {
  if (target.num_columns() == 0) {
    return Status::InvalidArgument("target has no columns");
  }
  const std::string request = rpc::BuildFrame(
      rpc::kMethodProfile, [&](io::Writer& w) { rpc::SaveTable(w, target); });
  // Profiles depend only on the (uniform) options, so any server answers
  // identically — skip past unreachable ones rather than failing.
  Status last = Status::OK();
  for (auto& client : clients_) {
    Result<std::unique_ptr<io::Reader>> r =
        client->CallChecked(rpc::kMethodProfile, request);
    if (!r.ok()) {
      if (r.status().IsUnavailable()) {
        last = r.status();
        continue;
      }
      return r.status();
    }
    core::QueryTarget qt = core::LoadQueryTarget(**r);
    D3L_RETURN_NOT_OK((*r)->status());
    D3L_RETURN_NOT_OK((*r)->EndSection());
    return qt;
  }
  return last;
}

Result<core::SearchResult> RemoteBackend::Search(
    core::QueryTarget target, size_t k,
    const std::array<bool, core::kNumEvidence>& enabled_mask) const {
  const std::shared_ptr<const Stitched> st = state();

  // One full server needs no decomposition: its SRCH answer IS the
  // whole-lake answer, bytes included (and the server checks the target).
  if (st->single_full_server) {
    const std::string request =
        rpc::BuildFrame(rpc::kMethodSearch, [&](io::Writer& w) {
          core::SaveQueryTarget(w, target);
          w.WriteU64(k);
          rpc::SaveMask(w, enabled_mask);
        });
    D3L_ASSIGN_OR_RETURN(
        std::unique_ptr<io::Reader> r,
        clients_[0]->CallChecked(rpc::kMethodSearch, request));
    core::SearchResult result = core::LoadSearchResult(*r);
    D3L_RETURN_NOT_OK(r->status());
    D3L_RETURN_NOT_OK(r->EndSection());
    return result;
  }

  std::vector<const ShardClient*> parts;
  for (const auto& part : parts_) parts.push_back(part.get());
  return ScatterGatherSearch(parts, std::move(target), k, enabled_mask, options_,
                             st->attr_table, st->table_names.size(), &pool_);
}

BackendInfo RemoteBackend::Info() const {
  const std::shared_ptr<const Stitched> st = state();
  BackendInfo info;
  info.kind = BackendKind::kRemote;
  info.num_tables = st->table_names.size();
  info.num_attributes = st->attr_table.size();
  info.num_shards = st->num_shards;
  info.options_fingerprint = st->options_fingerprint;
  info.index_fingerprint = st->index_fingerprint;
  return info;
}

std::string RemoteBackend::table_name(uint32_t table_index) const {
  const std::shared_ptr<const Stitched> st = state();
  if (table_index >= st->table_names.size()) return std::string();
  return st->table_names[table_index];
}

Status RemoteBackend::Reload() {
  const std::string request =
      rpc::BuildFrame(rpc::kMethodReload, [](io::Writer&) {});
  const size_t n_servers = clients_.size();
  std::vector<rpc::ServerInfo> infos(n_servers);
  std::vector<Status> errors(n_servers, Status::OK());
  std::vector<std::string> endpoints;
  endpoints.reserve(n_servers);
  for (auto& client : clients_) endpoints.push_back(client->endpoint());
  pool_.ParallelFor(n_servers, [&](size_t i) {
    Result<std::unique_ptr<io::Reader>> r =
        clients_[i]->CallChecked(rpc::kMethodReload, request);
    if (!r.ok()) {
      errors[i] = r.status();
      return;
    }
    infos[i] = rpc::LoadServerInfo(**r);
    errors[i] = (*r)->status();
    if (errors[i].ok()) errors[i] = (*r)->EndSection();
  });
  for (const Status& e : errors) D3L_RETURN_NOT_OK(e);

  D3L_ASSIGN_OR_RETURN(Stitched st, Stitch(infos, endpoints));
  options_ = std::move(infos.front().options);
  {
    MutexLock lock(state_mu_);
    state_ = std::make_shared<const Stitched>(std::move(st));
  }
  return Status::OK();
}

}  // namespace d3l::serving
