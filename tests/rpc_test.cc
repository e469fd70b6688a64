// The RPC wire layer: domain serializer round trips, frame transport over
// real sockets, and — the robustness contract — protocol fuzzing: garbage
// bytes, truncated frames, flipped bits, wrong versions, oversized length
// prefixes and mid-stream disconnects must every one yield a clean Status
// (never a crash), and the server must keep answering fresh connections
// afterwards. Runs under ASan/TSan in CI.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "core/query.h"
#include "obs/trace.h"
#include "rpc/client.h"
#include "rpc/server.h"
#include "rpc/wire.h"
#include "serving/shard_builder.h"
#include "serving/sharded_engine.h"
#include "table/lake.h"
#include "tests/test_util.h"

namespace d3l {
namespace {

namespace fs = std::filesystem;

// ------------------------------------------------------- serializer round trips

/// Serializes with `save` inside a section, then decodes with `load` —
/// the exact path request/response payloads take.
template <typename T, typename Save, typename Load>
T RoundTrip(const T& value, Save save, Load load) {
  std::string buffer;
  io::Writer w;
  w.OpenBuffer(&buffer);
  w.BeginSection(io::SectionId("TEST"));
  save(w, value);
  w.EndSection().CheckOK();
  io::Reader r;
  r.OpenBuffer(std::move(buffer)).CheckOK();
  r.OpenSection(io::SectionId("TEST")).CheckOK();
  T decoded = load(r);
  r.status().CheckOK();
  r.EndSection().CheckOK();
  return decoded;
}

TEST(WireStatusTest, RoundTripsEveryCode) {
  const Status statuses[] = {
      Status::OK(),           Status::InvalidArgument("bad arg"),
      Status::IOError("io"),  Status::NotFound("nf"),
      Status::AlreadyExists("ae"), Status::OutOfRange("oor"),
      Status::Internal("in"), Status::Unavailable("gone"),
  };
  for (const Status& s : statuses) {
    Status decoded = RoundTrip(
        s, [](io::Writer& w, const Status& v) { rpc::SaveWireStatus(w, v); },
        [](io::Reader& r) { return rpc::LoadWireStatus(r); });
    EXPECT_EQ(decoded.code(), s.code()) << s.ToString();
    EXPECT_EQ(decoded.message(), s.message());
  }
}

TEST(WireStatusTest, UnknownCodeFromNewerPeerDegradesToInternal) {
  std::string buffer;
  io::Writer w;
  w.OpenBuffer(&buffer);
  w.BeginSection(io::SectionId("TEST"));
  w.WriteU32(999);  // a code this build does not know
  w.WriteString("from the future");
  w.EndSection().CheckOK();
  io::Reader r;
  r.OpenBuffer(std::move(buffer)).CheckOK();
  r.OpenSection(io::SectionId("TEST")).CheckOK();
  Status decoded = rpc::LoadWireStatus(r);
  EXPECT_TRUE(decoded.IsInternal());
  EXPECT_EQ(decoded.message(), "from the future");
}

TEST(WireSerializerTest, MaskRoundTrips) {
  const std::array<bool, core::kNumEvidence> masks[] = {
      {true, true, true, true, true},
      {false, false, false, false, false},
      {true, false, true, false, true},
  };
  for (const auto& mask : masks) {
    auto decoded = RoundTrip(
        mask, [](io::Writer& w, const auto& v) { rpc::SaveMask(w, v); },
        [](io::Reader& r) { return rpc::LoadMask(r); });
    EXPECT_EQ(decoded, mask);
  }
}

TEST(WireSerializerTest, TableRoundTripsCellsExactly) {
  Table original = testutil::FigureS1();
  Table decoded = RoundTrip(
      original, [](io::Writer& w, const Table& t) { rpc::SaveTable(w, t); },
      [](io::Reader& r) { return rpc::LoadTable(r); });
  ASSERT_EQ(decoded.num_columns(), original.num_columns());
  EXPECT_EQ(decoded.name(), original.name());
  for (size_t c = 0; c < original.num_columns(); ++c) {
    EXPECT_EQ(decoded.column(c).name(), original.column(c).name());
    ASSERT_EQ(decoded.column(c).size(), original.column(c).size());
    for (size_t i = 0; i < original.column(c).size(); ++i) {
      EXPECT_EQ(decoded.column(c).cell(i), original.column(c).cell(i));
    }
  }
}

TEST(WireSerializerTest, PhasePayloadsRoundTrip) {
  core::CandidateDepthCounts counts;
  counts.counts.resize(2);
  counts.counts[0][0] = {3, 5, 9};
  counts.counts[1][4] = {1};
  auto counts2 = RoundTrip(
      counts,
      [](io::Writer& w, const auto& v) { rpc::SaveDepthCounts(w, v); },
      [](io::Reader& r) { return rpc::LoadDepthCounts(r); });
  ASSERT_EQ(counts2.counts.size(), 2u);
  EXPECT_EQ(counts2.counts[0][0], counts.counts[0][0]);
  EXPECT_EQ(counts2.counts[1][4], counts.counts[1][4]);
  EXPECT_TRUE(counts2.counts[0][1].empty());

  core::CandidateStopDepths stops;
  stops.depths = {{1, 0, 2, 0, 3}, {0, 0, 0, 0, 0}};
  auto stops2 = RoundTrip(
      stops, [](io::Writer& w, const auto& v) { rpc::SaveStopDepths(w, v); },
      [](io::Reader& r) { return rpc::LoadStopDepths(r); });
  EXPECT_EQ(stops2.depths, stops.depths);

  core::CandidateLists lists;
  lists.ids.resize(2);
  lists.ids[0][2] = {4, 8, 15};
  lists.ids[1][0] = {16, 23, 42};
  auto lists2 = RoundTrip(
      lists,
      [](io::Writer& w, const auto& v) { rpc::SaveCandidateLists(w, v); },
      [](io::Reader& r) { return rpc::LoadCandidateLists(r); });
  ASSERT_EQ(lists2.ids.size(), 2u);
  EXPECT_EQ(lists2.ids[0][2], lists.ids[0][2]);
  EXPECT_EQ(lists2.ids[1][0], lists.ids[1][0]);

  std::vector<core::PairDistances> rows(2);
  rows[0].target_column = 1;
  rows[0].attribute_id = 7;
  rows[0].d = {0.5, 0.25, 1.0, 0.125, 0.75};
  rows[1].target_column = 0;
  rows[1].attribute_id = 3;
  auto rows2 = RoundTrip(
      rows, [](io::Writer& w, const auto& v) { rpc::SaveRows(w, v); },
      [](io::Reader& r) { return rpc::LoadRows(r); });
  ASSERT_EQ(rows2.size(), 2u);
  EXPECT_EQ(rows2[0].target_column, 1u);
  EXPECT_EQ(rows2[0].attribute_id, 7u);
  EXPECT_EQ(rows2[0].d, rows[0].d);
  EXPECT_EQ(rows2[1].d, rows[1].d);
}

// --------------------------------------------------------- live-server fixture

class RpcServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("d3l_rpc_test_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);

    DataLake lake = testutil::FigureLake(2);
    serving::ShardingOptions sharding;
    sharding.num_shards = 2;
    auto report =
        serving::BuildShards(lake, sharding, (dir_ / "deploy").string());
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    manifest_path_ = report->manifest_path;

    auto engine = serving::ShardedEngine::Open(manifest_path_);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    engine_ = std::shared_ptr<const serving::ShardedEngine>(std::move(*engine));

    rpc::RpcServerOptions options;
    options.num_workers = 2;
    options.io_timeout_seconds = 5.0;
    auto server = rpc::RpcServer::Start(engine_, options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(*server);
  }

  void TearDown() override {
    server_.reset();
    fs::remove_all(dir_);
  }

  /// Raw loopback connection to the server — the fuzzer's entry point.
  int RawConnect() {
    const int fd = socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server_->port());
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                      sizeof(addr)),
              0);
    return fd;
  }

  /// The liveness probe every fuzz case ends with: a FRESH connection must
  /// still serve INFO normally.
  void ExpectServerStillHealthy() {
    rpc::RpcClientOptions options;
    options.max_attempts = 1;
    rpc::RpcClient client("127.0.0.1", server_->port(), options);
    const std::string request =
        rpc::BuildFrame(rpc::kMethodInfo, [](io::Writer&) {});
    auto response = client.CallChecked(rpc::kMethodInfo, request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    rpc::ServerInfo info = rpc::LoadServerInfo(**response);
    ASSERT_TRUE((*response)->status().ok());
    EXPECT_EQ(info.backend.kind, serving::BackendKind::kSharded);
    EXPECT_TRUE(info.serves_all);
  }

  fs::path dir_;
  std::string manifest_path_;
  std::shared_ptr<const serving::ShardedEngine> engine_;
  std::unique_ptr<rpc::RpcServer> server_;
};

TEST_F(RpcServerTest, InfoReportsDeploymentIdentity) {
  rpc::RpcClient client("127.0.0.1", server_->port());
  const std::string request =
      rpc::BuildFrame(rpc::kMethodInfo, [](io::Writer&) {});
  auto response = client.CallChecked(rpc::kMethodInfo, request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  rpc::ServerInfo info = rpc::LoadServerInfo(**response);
  ASSERT_TRUE((*response)->status().ok());
  ASSERT_TRUE((*response)->EndSection().ok());

  const serving::BackendInfo local = engine_->Info();
  EXPECT_EQ(info.backend.num_tables, local.num_tables);
  EXPECT_EQ(info.backend.num_attributes, local.num_attributes);
  EXPECT_EQ(info.backend.options_fingerprint, local.options_fingerprint);
  EXPECT_EQ(info.backend.index_fingerprint, local.index_fingerprint);
  EXPECT_EQ(info.served_shards.size(), 2u);
  EXPECT_EQ(info.served_tables.size(), local.num_tables);
  EXPECT_EQ(core::OptionsFingerprint(info.options), local.options_fingerprint);
}

TEST_F(RpcServerTest, SearchOverTheWireMatchesLocal) {
  const Table target = testutil::FigureTarget();
  auto profiled = engine_->Profile(target);
  ASSERT_TRUE(profiled.ok());
  auto expected = engine_->Search(core::QueryTarget(*profiled), 5,
                                  engine_->options().enabled);
  ASSERT_TRUE(expected.ok());

  rpc::RpcClient client("127.0.0.1", server_->port());
  const std::string request =
      rpc::BuildFrame(rpc::kMethodSearch, [&](io::Writer& w) {
        core::SaveQueryTarget(w, *profiled);
        w.WriteU64(5);
        rpc::SaveMask(w, engine_->options().enabled);
      });
  auto response = client.CallChecked(rpc::kMethodSearch, request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  core::SearchResult remote = core::LoadSearchResult(**response);
  ASSERT_TRUE((*response)->status().ok());
  ASSERT_TRUE((*response)->EndSection().ok());

  ASSERT_EQ(remote.ranked.size(), expected->ranked.size());
  for (size_t i = 0; i < expected->ranked.size(); ++i) {
    EXPECT_EQ(remote.ranked[i].table_index, expected->ranked[i].table_index);
    EXPECT_EQ(remote.ranked[i].distance, expected->ranked[i].distance);
  }
}

TEST_F(RpcServerTest, ApplicationErrorsComeBackAsWireStatuses) {
  rpc::RpcClient client("127.0.0.1", server_->port());
  // An unprofiled (empty) QueryTarget is an InvalidArgument at the engine.
  const std::string request =
      rpc::BuildFrame(rpc::kMethodSearch, [&](io::Writer& w) {
        core::SaveQueryTarget(w, core::QueryTarget{});
        w.WriteU64(5);
        rpc::SaveMask(w, engine_->options().enabled);
      });
  auto response = client.CallChecked(rpc::kMethodSearch, request);
  ASSERT_FALSE(response.ok());
  EXPECT_TRUE(response.status().IsInvalidArgument())
      << response.status().ToString();
  ExpectServerStillHealthy();
}

TEST_F(RpcServerTest, MalformedTargetsAndStopDepthsAreErrorsNotCrashes) {
  // Well-framed requests whose payload would index past an LSH key: a
  // 3-value name signature (DCNT, SRCH) and a stop depth far deeper than
  // any forest (SCOR). Each must come back as an error response.
  auto profiled = engine_->Profile(testutil::FigureTarget());
  ASSERT_TRUE(profiled.ok());
  const std::array<bool, core::kNumEvidence> mask = engine_->options().enabled;
  core::QueryTarget short_sig = *profiled;
  short_sig.sigs[0].name_sig.resize(3);
  core::CandidateStopDepths deep;
  deep.depths.assign(profiled->sigs.size(), {});
  deep.depths[0][static_cast<size_t>(core::Evidence::kName)] = 1000;

  rpc::RpcClient client("127.0.0.1", server_->port());
  const std::vector<std::pair<uint32_t, std::string>> requests = {
      {rpc::kMethodDepthCounts,
       rpc::BuildFrame(rpc::kMethodDepthCounts,
                       [&](io::Writer& w) {
                         core::SaveQueryTarget(w, short_sig);
                         rpc::SaveMask(w, mask);
                         w.WriteU64(64);
                       })},
      {rpc::kMethodSearch,
       rpc::BuildFrame(rpc::kMethodSearch,
                       [&](io::Writer& w) {
                         core::SaveQueryTarget(w, short_sig);
                         w.WriteU64(5);
                         rpc::SaveMask(w, mask);
                       })},
      {rpc::kMethodScoreAtStops,
       rpc::BuildFrame(rpc::kMethodScoreAtStops,
                       [&](io::Writer& w) {
                         core::SaveQueryTarget(w, *profiled);
                         rpc::SaveStopDepths(w, deep);
                         w.WriteU64(64);
                         rpc::SaveMask(w, mask);
                       })},
  };
  for (const auto& [method, request] : requests) {
    auto response = client.CallChecked(method, request);
    ASSERT_FALSE(response.ok()) << io::SectionName(method);
    EXPECT_TRUE(response.status().IsInvalidArgument())
        << io::SectionName(method) << ": " << response.status().ToString();
    ExpectServerStillHealthy();
  }
}

TEST_F(RpcServerTest, UnsortedNumericSampleIsInvalidArgument) {
  // KS merges samples as they arrive, so a target whose numeric sample is
  // out of order must be refused before it reaches scoring.
  auto profiled = engine_->Profile(testutil::FigureTarget());
  ASSERT_TRUE(profiled.ok());
  const std::array<bool, core::kNumEvidence> mask = engine_->options().enabled;
  core::QueryTarget unsorted = *profiled;
  unsorted.profiles[0].numeric_sample = {3, 1, 2};
  core::CandidateStopDepths stops;
  stops.depths.assign(profiled->sigs.size(), {});

  rpc::RpcClient client("127.0.0.1", server_->port());
  const std::vector<std::pair<uint32_t, std::string>> requests = {
      {rpc::kMethodSearch,
       rpc::BuildFrame(rpc::kMethodSearch,
                       [&](io::Writer& w) {
                         core::SaveQueryTarget(w, unsorted);
                         w.WriteU64(5);
                         rpc::SaveMask(w, mask);
                       })},
      {rpc::kMethodScoreAtStops,
       rpc::BuildFrame(rpc::kMethodScoreAtStops,
                       [&](io::Writer& w) {
                         core::SaveQueryTarget(w, unsorted);
                         rpc::SaveStopDepths(w, stops);
                         w.WriteU64(64);
                         rpc::SaveMask(w, mask);
                       })},
  };
  for (const auto& [method, request] : requests) {
    auto response = client.CallChecked(method, request);
    ASSERT_FALSE(response.ok()) << io::SectionName(method);
    EXPECT_TRUE(response.status().IsInvalidArgument())
        << io::SectionName(method) << ": " << response.status().ToString();
    ExpectServerStillHealthy();
  }
}

TEST_F(RpcServerTest, StatReturnsPrometheusExposition) {
  rpc::RpcClient client("127.0.0.1", server_->port());
  const std::string request =
      rpc::BuildFrame(rpc::kMethodStat, [](io::Writer&) {});
  auto response = client.CallChecked(rpc::kMethodStat, request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  const std::string text = (*response)->ReadString();
  ASSERT_TRUE((*response)->status().ok());
  ASSERT_TRUE((*response)->EndSection().ok());
  EXPECT_NE(text.find("# TYPE d3l_rpc_server_requests_total counter"),
            std::string::npos)
      << text;
  // The STAT request itself is already on the books when the exposition is
  // rendered.
  EXPECT_NE(text.find("d3l_rpc_server_method_requests_total{method=\"STAT\"}"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE d3l_rpc_server_handle_seconds histogram"),
            std::string::npos)
      << text;
}

TEST_F(RpcServerTest, TracedCallStitchesTheServerSubtree) {
  auto context = std::make_shared<obs::TraceContext>();
  rpc::RpcClient client("127.0.0.1", server_->port());
  const std::string request =
      rpc::BuildFrame(rpc::kMethodInfo, [](io::Writer&) {});
  {
    obs::ScopedSpan root(context, "query");
    auto response = client.CallChecked(rpc::kMethodInfo, request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
  }
  // query -> rpc:INFO <endpoint> -> serve:INFO (the server's span tree,
  // recorded in its process under the same trace id and attached by the
  // client).
  const obs::Trace trace = context->Snapshot();
  ASSERT_EQ(trace.roots.size(), 1u);
  EXPECT_EQ(trace.roots[0].name, "query");
  ASSERT_EQ(trace.roots[0].children.size(), 1u);
  const obs::Span& rpc_span = trace.roots[0].children[0];
  EXPECT_EQ(rpc_span.name.rfind("rpc:INFO", 0), 0u) << rpc_span.name;
  ASSERT_FALSE(rpc_span.children.empty());
  EXPECT_EQ(rpc_span.children[0].name, "serve:INFO");
}

TEST_F(RpcServerTest, ReloadWithoutHookIsInvalidArgument) {
  rpc::RpcClient client("127.0.0.1", server_->port());
  const std::string request =
      rpc::BuildFrame(rpc::kMethodReload, [](io::Writer&) {});
  auto response = client.CallChecked(rpc::kMethodReload, request);
  ASSERT_FALSE(response.ok());
  EXPECT_TRUE(response.status().IsInvalidArgument());
  ExpectServerStillHealthy();
}

// ------------------------------------------------------------------- fuzzing

TEST_F(RpcServerTest, GarbageBytesYieldCleanErrorNotCrash) {
  const int fd = RawConnect();
  const char garbage[] = "GET / HTTP/1.1\r\nHost: not-a-d3l-peer\r\n\r\n";
  ASSERT_TRUE(rpc::SendAll(fd, garbage, sizeof(garbage) - 1,
                           rpc::After(5.0)).ok());
  // The server reports why before dropping the connection.
  auto response = rpc::RecvFrame(fd, rpc::After(5.0));
  if (response.ok()) {
    EXPECT_EQ(response->method, rpc::kMethodError);
    io::Reader r;
    ASSERT_TRUE(rpc::OpenFrame(r, std::move(*response)).ok());
    Status reported = rpc::LoadWireStatus(r);
    EXPECT_FALSE(reported.ok());
  }
  close(fd);
  ExpectServerStillHealthy();
}

TEST_F(RpcServerTest, WrongProtocolVersionIsRejected) {
  std::string frame = rpc::BuildFrame(rpc::kMethodInfo, [](io::Writer&) {});
  frame[8] = 99;  // the little-endian version field follows the 8-byte magic
  const int fd = RawConnect();
  ASSERT_TRUE(rpc::SendAll(fd, frame.data(), frame.size(), rpc::After(5.0)).ok());
  auto response = rpc::RecvFrame(fd, rpc::After(5.0));
  if (response.ok()) {
    EXPECT_EQ(response->method, rpc::kMethodError);
    io::Reader r;
    ASSERT_TRUE(rpc::OpenFrame(r, std::move(*response)).ok());
    Status reported = rpc::LoadWireStatus(r);
    EXPECT_TRUE(reported.IsInvalidArgument()) << reported.ToString();
  }
  close(fd);
  ExpectServerStillHealthy();
}

TEST_F(RpcServerTest, OversizedLengthPrefixIsRejectedBeforeAllocation) {
  // A hostile length prefix far past kMaxPayloadBytes: the server must
  // refuse up front — were it to trust the prefix, the resize alone would
  // be a multi-terabyte allocation.
  std::string frame = rpc::BuildFrame(rpc::kMethodInfo, [](io::Writer&) {});
  const uint64_t huge = 1ull << 44;
  for (int i = 0; i < 8; ++i) {
    frame[rpc::kFrameHeaderBytes + 4 + i] =
        static_cast<char>((huge >> (8 * i)) & 0xFF);
  }
  const int fd = RawConnect();
  ASSERT_TRUE(rpc::SendAll(fd, frame.data(), frame.size(), rpc::After(5.0)).ok());
  auto response = rpc::RecvFrame(fd, rpc::After(5.0));
  if (response.ok()) {
    EXPECT_EQ(response->method, rpc::kMethodError);
  }
  close(fd);
  ExpectServerStillHealthy();
}

TEST_F(RpcServerTest, TruncatedFrameAndMidStreamDisconnectSurvive) {
  const std::string frame =
      rpc::BuildFrame(rpc::kMethodProfile, [&](io::Writer& w) {
        rpc::SaveTable(w, testutil::FigureS2());
      });
  // Cut the stream at several depths: inside the magic, inside the section
  // header, and mid-payload.
  for (size_t keep : {size_t{3}, size_t{14}, frame.size() / 2,
                      frame.size() - 1}) {
    const int fd = RawConnect();
    ASSERT_TRUE(rpc::SendAll(fd, frame.data(), keep, rpc::After(5.0)).ok());
    close(fd);  // mid-stream disconnect
  }
  ExpectServerStillHealthy();
}

TEST_F(RpcServerTest, FlippedBitsNeverCrashTheServer) {
  const std::string frame =
      rpc::BuildFrame(rpc::kMethodProfile, [&](io::Writer& w) {
        rpc::SaveTable(w, testutil::FigureS3());
      });
  // Flip one bit in every byte position in turn. Depending on where it
  // lands (magic, version, length, payload, crc) the server answers with an
  // error status, answers the (still-checksum-valid) request, or drops the
  // connection — but it must survive every single case.
  for (size_t pos = 0; pos < frame.size(); ++pos) {
    std::string mutated = frame;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x40);
    const int fd = RawConnect();
    if (!rpc::SendAll(fd, mutated.data(), mutated.size(), rpc::After(5.0)).ok()) {
      close(fd);
      continue;  // server already dropped us mid-send; that's a clean path
    }
    auto response = rpc::RecvFrame(fd, rpc::After(5.0));
    if (response.ok()) {
      io::Reader r;
      const Status opened = rpc::OpenFrame(r, std::move(*response));
      (void)opened;  // any status is acceptable; crashing is not
    }
    close(fd);
  }
  ExpectServerStillHealthy();
}

TEST_F(RpcServerTest, StoppedServerYieldsUnavailableAfterBoundedRetries) {
  const uint16_t port = server_->port();
  server_->Stop();
  rpc::RpcClientOptions options;
  options.connect_timeout_seconds = 0.5;
  options.request_timeout_seconds = 0.5;
  options.max_attempts = 2;
  options.initial_backoff_seconds = 0.01;
  rpc::RpcClient client("127.0.0.1", port, options);
  const std::string request =
      rpc::BuildFrame(rpc::kMethodInfo, [](io::Writer&) {});
  auto response = client.Call(rpc::kMethodInfo, request);
  ASSERT_FALSE(response.ok());
  EXPECT_TRUE(response.status().IsUnavailable())
      << response.status().ToString();
  // The endpoint and attempt count are in the message for operators.
  EXPECT_NE(response.status().message().find("2 attempts"), std::string::npos)
      << response.status().message();
}

TEST(RpcFrameTest, RoundTripsOverASocketPair) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::string frame =
      rpc::BuildFrame(rpc::kMethodDepthCounts, [](io::Writer& w) {
        w.WriteU64(12345);
      });
  ASSERT_TRUE(rpc::SendFrame(fds[0], frame, rpc::After(5.0)).ok());
  auto received = rpc::RecvFrame(fds[1], rpc::After(5.0));
  ASSERT_TRUE(received.ok()) << received.status().ToString();
  EXPECT_EQ(received->method, rpc::kMethodDepthCounts);
  io::Reader r;
  ASSERT_TRUE(rpc::OpenFrame(r, std::move(*received)).ok());
  EXPECT_EQ(r.ReadU64(), 12345u);
  EXPECT_TRUE(r.EndSection().ok());
  close(fds[0]);
  close(fds[1]);
}

TEST(RpcFrameTest, TraceIdRidesTheVersionWord) {
  const std::string frame =
      rpc::BuildFrame(rpc::kMethodInfo, [](io::Writer&) {});
  EXPECT_EQ(rpc::WithTraceId(frame, 0), frame);  // 0 = not tracing
  const std::string traced = rpc::WithTraceId(frame, 0x1122334455667788ull);
  EXPECT_EQ(traced.size(), frame.size() + 8);

  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_TRUE(rpc::SendFrame(fds[0], traced, rpc::After(5.0)).ok());
  auto received = rpc::RecvFrame(fds[1], rpc::After(5.0));
  ASSERT_TRUE(received.ok()) << received.status().ToString();
  EXPECT_EQ(received->trace_id, 0x1122334455667788ull);
  EXPECT_EQ(received->method, rpc::kMethodInfo);
  io::Reader r;
  EXPECT_TRUE(rpc::OpenFrame(r, std::move(*received)).ok());
  close(fds[0]);
  close(fds[1]);
}

TEST(RpcFrameTest, SpanSectionRoundTripsAndIsResponseOnly) {
  std::string frame =
      rpc::BuildFrame(rpc::kMethodSearch, [](io::Writer& w) {
        w.WriteU64(1);
      });
  std::vector<obs::Span> roots(1);
  roots[0].name = "serve:SRCH";
  roots[0].start_ns = 100;
  roots[0].duration_ns = 2000;
  roots[0].children.push_back({"engine:search", 150, 1800, {}});
  rpc::AppendSpans(&frame, roots);

  // A receiver in server position (allow_spans off) must reject a frame
  // claiming to carry spans — only responses may.
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_TRUE(rpc::SendFrame(fds[0], frame, rpc::After(5.0)).ok());
  auto rejected = rpc::RecvFrame(fds[1], rpc::After(5.0));
  EXPECT_FALSE(rejected.ok());
  close(fds[0]);
  close(fds[1]);

  // A client reading a response decodes the subtree exactly.
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_TRUE(rpc::SendFrame(fds[0], frame, rpc::After(5.0)).ok());
  auto received =
      rpc::RecvFrame(fds[1], rpc::After(5.0), nullptr, /*allow_spans=*/true);
  ASSERT_TRUE(received.ok()) << received.status().ToString();
  ASSERT_FALSE(received->spans_section.empty());
  auto decoded = rpc::DecodeSpans(*received);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->size(), 1u);
  EXPECT_EQ((*decoded)[0].name, "serve:SRCH");
  EXPECT_EQ((*decoded)[0].start_ns, 100u);
  EXPECT_EQ((*decoded)[0].duration_ns, 2000u);
  ASSERT_EQ((*decoded)[0].children.size(), 1u);
  EXPECT_EQ((*decoded)[0].children[0].name, "engine:search");
  // The method payload is still intact behind the appended section.
  io::Reader r;
  ASSERT_TRUE(rpc::OpenFrame(r, std::move(*received)).ok());
  EXPECT_EQ(r.ReadU64(), 1u);
  EXPECT_TRUE(r.EndSection().ok());
  close(fds[0]);
  close(fds[1]);
}

TEST(RpcFrameTest, PeerClosingBeforeAnyByteIsACleanEof) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  close(fds[0]);
  bool clean_eof = false;
  auto received = rpc::RecvFrame(fds[1], rpc::After(5.0), &clean_eof);
  EXPECT_FALSE(received.ok());
  EXPECT_TRUE(clean_eof);
  close(fds[1]);
}

}  // namespace
}  // namespace d3l
