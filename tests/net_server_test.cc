// Loopback integration tests for the network serving front-end: a real
// CjoinServer on an ephemeral 127.0.0.1 port, driven by real CjoinClient
// sockets. Covers concurrent streaming sessions, mid-query disconnect
// (which must cancel the engine ticket and release its CJOIN
// registration), admission shedding over the wire, live INGEST, hostile
// bytes, and graceful engine drain. Runs under the TSan CI job — the
// server's event-loop / worker / poller handoffs are the point.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/query_engine.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "storage/sim_disk.h"
#include "tests/test_util.h"

namespace cjoin {
namespace net {
namespace {

using cjoin::testing::ExpectQuiescent;
using cjoin::testing::MakeTinyStar;
using cjoin::testing::TinyStar;

constexpr const char* kCountSql = "SELECT COUNT(*) AS n FROM sales";

/// Engine + server over the tiny star; `slow` swaps in a SimDisk slow
/// enough that queries stay in flight while the test disconnects/floods.
struct Loopback {
  explicit Loopback(uint64_t facts = 2000, bool slow = false,
                    size_t batch_rows = 512) {
    ts = MakeTinyStar(facts);
    if (slow) {
      SimDisk::Options dopts;
      dopts.bandwidth_bytes_per_sec = 2.0 * 1024 * 1024;
      disk = std::make_unique<SimDisk>(dopts);
    }
    QueryEngine::Options eopts;
    if (disk) eopts.cjoin.disk = disk.get();
    engine = std::make_unique<QueryEngine>(eopts);
    EXPECT_TRUE(engine->RegisterStar("tiny", *ts->star).ok());

    CjoinServer::Options sopts;
    sopts.batch_rows = batch_rows;
    server = std::make_unique<CjoinServer>(engine.get(), sopts);
    Status st = server->Start();
    EXPECT_TRUE(st.ok()) << st.ToString();
  }

  CjoinClient::Options ClientOpts(const std::string& tenant = "") const {
    CjoinClient::Options copts;
    copts.port = server->port();
    copts.tenant = tenant;
    return copts;
  }

  std::unique_ptr<TinyStar> ts;
  std::unique_ptr<SimDisk> disk;
  std::unique_ptr<QueryEngine> engine;
  std::unique_ptr<CjoinServer> server;
};

TEST(NetServerTest, HelloQueryRoundTrip) {
  Loopback lb;
  CjoinClient client(lb.ClientOpts());
  ASSERT_TRUE(client.Connect().ok());
  EXPECT_GT(client.session_id(), 0u);

  auto qr = client.Query("tiny", kCountSql);
  ASSERT_TRUE(qr.ok()) << qr.status().ToString();
  ASSERT_EQ(qr->result.rows.size(), 1u);
  EXPECT_EQ(qr->result.columns[0], "n");
  EXPECT_EQ(qr->result.rows[0][0].AsInt(), 2000);
  EXPECT_GT(qr->response_seconds, 0.0);
}

TEST(NetServerTest, GroupByStreamsInMultipleBatches) {
  Loopback lb(/*facts=*/2000, /*slow=*/false, /*batch_rows=*/4);
  CjoinClient client(lb.ClientOpts());
  ASSERT_TRUE(client.Connect().ok());

  size_t batches = 0, header_batches = 0;
  auto qr = client.Query(
      "tiny",
      "SELECT f_pid, SUM(f_amount) AS amt FROM sales GROUP BY f_pid",
      /*timeout_ns=*/0, [&](const RowBatchFrame& b) {
        ++batches;
        if (b.first) ++header_batches;
        EXPECT_LE(b.rows.size(), 4u);
      });
  ASSERT_TRUE(qr.ok()) << qr.status().ToString();
  EXPECT_EQ(qr->result.rows.size(), 20u);  // 20 products
  EXPECT_EQ(header_batches, 1u);
  EXPECT_GE(batches, 5u);  // 20 rows / 4 per batch
  EXPECT_EQ(qr->result.columns.size(), 2u);
}

TEST(NetServerTest, QueriesMultiplexOnOneConnection) {
  Loopback lb;
  CjoinClient client(lb.ClientOpts());
  ASSERT_TRUE(client.Connect().ok());

  // Put several queries in flight before collecting any outcome; replies
  // demultiplex by request id.
  std::vector<uint64_t> ids;
  for (int i = 0; i < 8; ++i) {
    auto id = client.StartQuery("tiny", kCountSql);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(*id);
  }
  for (uint64_t id : ids) {
    auto qr = client.Await(id);
    ASSERT_TRUE(qr.ok()) << qr.status().ToString();
    EXPECT_EQ(qr->result.rows[0][0].AsInt(), 2000);
  }
}

TEST(NetServerTest, SixteenConcurrentConnectionsStream) {
  Loopback lb(/*facts=*/5000);
  constexpr int kClients = 16;
  constexpr int kQueriesEach = 4;
  std::atomic<int> ok{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      CjoinClient client(lb.ClientOpts("tenant" + std::to_string(t % 4)));
      ASSERT_TRUE(client.Connect().ok());
      for (int q = 0; q < kQueriesEach; ++q) {
        auto qr = client.Query(
            "tiny", "SELECT f_pid, COUNT(*) AS n FROM sales GROUP BY f_pid");
        ASSERT_TRUE(qr.ok()) << qr.status().ToString();
        EXPECT_EQ(qr->result.rows.size(), 20u);
        ++ok;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(ok.load(), kClients * kQueriesEach);
  ExpectQuiescent(*lb.engine);

  const CjoinServer::Stats stats = lb.server->GetStats();
  EXPECT_EQ(stats.connections_accepted, static_cast<uint64_t>(kClients));
  EXPECT_EQ(stats.queries_ok, static_cast<uint64_t>(kClients * kQueriesEach));
  EXPECT_EQ(stats.rows_streamed,
            static_cast<uint64_t>(kClients * kQueriesEach * 20));
}

TEST(NetServerTest, DisconnectMidQueryCancelsTicket) {
  Loopback lb(/*facts=*/50000, /*slow=*/true);

  {
    CjoinClient client(lb.ClientOpts());
    ASSERT_TRUE(client.Connect().ok());
    // Slow disk: these queries take seconds; the hard close below lands
    // mid-flight.
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(
          client.StartQuery("tiny", kCountSql, 0, RoutePolicy::kCJoin).ok());
    }
    // Wait until the engine actually has them registered.
    const auto limit = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (lb.engine->AdmissionStats().total_cjoin_inflight +
                   lb.engine->AdmissionStats().total_baseline_in_system ==
               0 &&
           std::chrono::steady_clock::now() < limit) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    client.Close();  // no goodbye: the client died
  }

  // The disconnect must cancel the tickets and release every CJOIN
  // bit-vector registration — long before the queries would have finished.
  ExpectQuiescent(*lb.engine);
}

TEST(NetServerTest, ExplicitCancelFrame) {
  Loopback lb(/*facts=*/50000, /*slow=*/true);
  CjoinClient client(lb.ClientOpts());
  ASSERT_TRUE(client.Connect().ok());

  auto id = client.StartQuery("tiny", kCountSql, 0, RoutePolicy::kCJoin);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(client.Cancel(*id).ok());
  auto qr = client.Await(*id);
  ASSERT_FALSE(qr.ok());
  EXPECT_EQ(qr.status().code(), StatusCode::kCancelled)
      << qr.status().ToString();
  ExpectQuiescent(*lb.engine);
}

TEST(NetServerTest, OverQuotaTenantShedsWithResourceExhausted) {
  Loopback lb(/*facts=*/50000, /*slow=*/true);
  TenantQuota quota;
  quota.max_inflight_cjoin = 2;
  ASSERT_TRUE(lb.engine->SetTenantQuota("greedy", quota).ok());

  CjoinClient client(lb.ClientOpts("greedy"));
  ASSERT_TRUE(client.Connect().ok());

  std::vector<uint64_t> ids;
  for (int i = 0; i < 8; ++i) {
    auto id = client.StartQuery("tiny", kCountSql, 0, RoutePolicy::kCJoin);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  // The excess queries resolve immediately as shed tickets; their ERROR
  // frames carry kResourceExhausted over the wire. The admitted two are
  // still grinding on the slow disk — cancel them via disconnect.
  int shed = 0;
  for (int i = 0; i < 6; ++i) {
    auto qr = client.Await(ids[ids.size() - 1 - i]);
    if (!qr.ok() && qr.status().code() == StatusCode::kResourceExhausted) {
      ++shed;
    } else {
      ADD_FAILURE() << "request " << ids[ids.size() - 1 - i]
                    << " not shed: "
                    << (qr.ok() ? "completed OK" : qr.status().ToString());
    }
  }
  EXPECT_EQ(shed, 6);
  client.Close();
  ExpectQuiescent(*lb.engine);
}

TEST(NetServerTest, IngestBecomesVisibleAfterSnapshotAdvances) {
  Loopback lb;
  CjoinClient client(lb.ClientOpts());
  ASSERT_TRUE(client.Connect().ok());

  auto before = client.Query("tiny", kCountSql);
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before->result.rows[0][0].AsInt(), 2000);

  // sales(f_pid, f_sid, f_qty, f_amount) — all INT32.
  std::vector<std::vector<Value>> rows;
  for (int i = 0; i < 10; ++i) {
    rows.push_back({Value(1), Value(1), Value(5), Value(100)});
  }
  auto snap = client.Ingest("tiny", rows);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_GT(*snap, before->snapshot);

  // The continuous scan applies the append at its next commit point; new
  // queries see the rows once their snapshot covers the commit.
  int64_t count = 0;
  const auto limit = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < limit) {
    auto qr = client.Query("tiny", kCountSql);
    ASSERT_TRUE(qr.ok()) << qr.status().ToString();
    count = qr->result.rows[0][0].AsInt();
    if (count == 2010) break;
  }
  EXPECT_EQ(count, 2010);
}

TEST(NetServerTest, IngestTypeMismatchRejected) {
  Loopback lb;
  CjoinClient client(lb.ClientOpts());
  ASSERT_TRUE(client.Connect().ok());

  // f_qty is INT32; a string Value must be rejected row-by-row, not
  // crash the server or corrupt the table.
  auto snap = client.Ingest(
      "tiny", {{Value(1), Value(1), Value(std::string("lots")), Value(3)}});
  ASSERT_FALSE(snap.ok());
  EXPECT_EQ(snap.status().code(), StatusCode::kInvalidArgument);

  auto qr = client.Query("tiny", kCountSql);
  ASSERT_TRUE(qr.ok());
  EXPECT_EQ(qr->result.rows[0][0].AsInt(), 2000);
}

TEST(NetServerTest, MalformedSqlSurfacesAsInvalidArgument) {
  Loopback lb;
  CjoinClient client(lb.ClientOpts());
  ASSERT_TRUE(client.Connect().ok());

  auto qr = client.Query("tiny", "SELEC COUNT(* FROM sales WHERE");
  ASSERT_FALSE(qr.ok());
  EXPECT_EQ(qr.status().code(), StatusCode::kInvalidArgument);

  // The connection survives a bad query; the next one works.
  auto qr2 = client.Query("tiny", kCountSql);
  ASSERT_TRUE(qr2.ok()) << qr2.status().ToString();
  EXPECT_EQ(qr2->result.rows[0][0].AsInt(), 2000);
}

TEST(NetServerTest, UnknownStarSurfacesAsError) {
  Loopback lb;
  CjoinClient client(lb.ClientOpts());
  ASSERT_TRUE(client.Connect().ok());
  auto qr = client.Query("nope", kCountSql);
  ASSERT_FALSE(qr.ok());
  EXPECT_FALSE(qr.status().code() == StatusCode::kOk);
}

TEST(NetServerTest, StatsReportsCounters) {
  Loopback lb;
  CjoinClient client(lb.ClientOpts());
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(client.Query("tiny", kCountSql).ok());

  auto js = client.Stats();
  ASSERT_TRUE(js.ok()) << js.status().ToString();
  EXPECT_NE(js->find("\"queries_ok\":1"), std::string::npos) << *js;
  EXPECT_NE(js->find("\"connections_active\":1"), std::string::npos) << *js;
}

TEST(NetServerTest, StatsEmbedsMetricsRegistry) {
  obs::SetMetricsEnabled(true);
  Loopback lb;
  CjoinClient client(lb.ClientOpts());
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(client.Query("tiny", kCountSql).ok());

  // v2: the legacy flat keys stay, and the full registry snapshot rides
  // along under "metrics" (per-route counters + latency histograms).
  auto js = client.Stats();
  ASSERT_TRUE(js.ok()) << js.status().ToString();
  EXPECT_NE(js->find("\"snapshot\":"), std::string::npos) << *js;
  EXPECT_NE(js->find("\"metrics\":{"), std::string::npos) << *js;
  EXPECT_NE(js->find("queries_total"), std::string::npos) << *js;
  EXPECT_NE(js->find("query_latency_ns"), std::string::npos) << *js;
}

TEST(NetServerTest, QueryDoneCarriesSpanTrace) {
  obs::SetMetricsEnabled(true);
  Loopback lb;
  CjoinClient client(lb.ClientOpts());
  ASSERT_TRUE(client.Connect().ok());

  auto qr = client.Query("tiny", kCountSql);
  ASSERT_TRUE(qr.ok()) << qr.status().ToString();
  // The wire trace must cover the query end to end: admission, the
  // pipeline stages, and the server's own streaming span.
  EXPECT_NE(qr->trace_json.find("\"spans\":["), std::string::npos)
      << qr->trace_json;
  EXPECT_NE(qr->trace_json.find("admission"), std::string::npos)
      << qr->trace_json;
  EXPECT_NE(qr->trace_json.find("net_stream"), std::string::npos)
      << qr->trace_json;
  EXPECT_EQ(client.last_trace(), qr->trace_json);
}

/// Bare TCP socket for hostile-peer tests (no handshake, no protocol).
class RawSocket {
 public:
  explicit RawSocket(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }
  ~RawSocket() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool connected() const { return connected_; }
  void Send(const std::vector<uint8_t>& bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                         MSG_NOSIGNAL);
      if (n <= 0) break;
      off += static_cast<size_t>(n);
    }
  }
  /// Reads until the peer closes; returns everything received.
  std::vector<uint8_t> DrainUntilClose() {
    std::vector<uint8_t> all;
    uint8_t buf[4096];
    while (true) {
      ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) break;
      all.insert(all.end(), buf, buf + n);
    }
    return all;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

TEST(NetServerTest, QueryBeforeHelloIsAProtocolError) {
  Loopback lb;
  RawSocket raw(lb.server->port());
  ASSERT_TRUE(raw.connected());

  QueryFrame q;
  q.id = 1;
  q.star = "tiny";
  q.sql = kCountSql;
  raw.Send(EncodeQuery(q));

  // The server answers with a connection-level ERROR (id 0) and closes.
  const std::vector<uint8_t> bytes = raw.DrainUntilClose();
  FrameAssembler asm_;
  ASSERT_TRUE(asm_.Feed(bytes.data(), bytes.size()).ok());
  Frame f;
  ASSERT_TRUE(asm_.Next(&f));
  ASSERT_EQ(f.type, FrameType::kError);
  auto err = DecodeError(f.payload);
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err->id, 0u);

  // The server itself is fine.
  CjoinClient good(lb.ClientOpts());
  ASSERT_TRUE(good.Connect().ok());
  EXPECT_TRUE(good.Query("tiny", kCountSql).ok());
}

TEST(NetServerTest, GarbageBytesCloseConnectionNotServer) {
  Loopback lb;
  CjoinClient good(lb.ClientOpts());
  ASSERT_TRUE(good.Connect().ok());

  // A hostile peer spraying a frame header whose length word is absurd:
  // the assembler rejects it before allocating, the server drops only
  // that connection.
  {
    RawSocket hostile(lb.server->port());
    ASSERT_TRUE(hostile.connected());
    hostile.Send({0xff, 0xff, 0xff, 0xff, 0x02});
    (void)hostile.DrainUntilClose();  // server hangs up
  }

  auto qr = good.Query("tiny", kCountSql);
  ASSERT_TRUE(qr.ok()) << qr.status().ToString();
  EXPECT_EQ(qr->result.rows[0][0].AsInt(), 2000);
}

// ------------------------------ Graceful drain ------------------------------

TEST(NetServerTest, ShutdownDrainsInFlightThenSheds) {
  Loopback lb;
  CjoinClient client(lb.ClientOpts());
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(client.Query("tiny", kCountSql).ok());

  // Drain with nothing outstanding: immediate, clean.
  EXPECT_TRUE(lb.engine->Shutdown(std::chrono::seconds(5)));
  EXPECT_TRUE(lb.engine->draining());

  // Post-drain submissions shed with kAborted through the normal ticket
  // path (wire clients see an ERROR frame, not a hang).
  auto qr = client.Query("tiny", kCountSql);
  ASSERT_FALSE(qr.ok());
}

TEST(NetServerDrainTest, DrainWaitsForInFlightQueries) {
  auto ts = MakeTinyStar(50000);
  // Slow enough that the drain is still in progress when the late query
  // is submitted below (~1 s of scan at this bandwidth).
  SimDisk::Options dopts;
  dopts.bandwidth_bytes_per_sec = 1.0 * 1024 * 1024;
  SimDisk disk(dopts);
  QueryEngine::Options eopts;
  eopts.cjoin.disk = &disk;
  QueryEngine engine(eopts);
  ASSERT_TRUE(engine.RegisterStar("tiny", *ts->star).ok());

  QueryRequest req = QueryRequest::Sql("tiny", kCountSql);
  req.policy = RoutePolicy::kCJoin;
  auto ticket = engine.Execute(std::move(req));
  ASSERT_TRUE(ticket.ok());

  // Drain in the background; it must wait for the slow in-flight query.
  std::atomic<bool> drained{false};
  std::thread drainer(
      [&] { drained = engine.Shutdown(std::chrono::seconds(60)); });

  // While draining, new submissions shed as kAborted tickets (uniform
  // contract: Execute still returns a ticket, the ticket carries the
  // error) — wire clients see an ERROR frame, not a hang.
  const auto limit = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!engine.draining() && std::chrono::steady_clock::now() < limit) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(engine.draining());
  auto late = engine.Execute(QueryRequest::Sql("tiny", kCountSql));
  ASSERT_TRUE(late.ok()) << late.status().ToString();
  auto late_rs = (*late)->Wait();
  ASSERT_FALSE(late_rs.ok());
  EXPECT_EQ(late_rs.status().code(), StatusCode::kAborted)
      << late_rs.status().ToString();

  drainer.join();
  EXPECT_TRUE(drained);

  // The in-flight query completed (not aborted) and its result is intact.
  ASSERT_TRUE((*ticket)->Ready());
  auto rs = (*ticket)->Wait();
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->rows[0][0].AsInt(), 50000);

  // After the drain completes the engine is hard-stopped: Execute now
  // fails outright.
  auto post = engine.Execute(QueryRequest::Sql("tiny", kCountSql));
  EXPECT_FALSE(post.ok());
}

}  // namespace
}  // namespace net
}  // namespace cjoin
