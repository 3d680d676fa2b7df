// QueryServer protocol tests: round-trips over real sockets, malformed
// frames as structured errors (never dropped connections), mid-stream
// disconnect releasing everything the connection held (engine admission
// slot + coordinator claims — the phantom-slot probe, over the wire),
// per-tenant quota shedding that does not starve other tenants, and
// freshness: every EXECUTE runs on the engine, so an answer reflects the
// links another connection published, and a repeat is served by the Link
// Index with 0 comparisons.
//
// Every test runs a real server on an ephemeral loopback port; engine
// admission timeouts are set so a buggy slot leak fails fast as a shed
// instead of hanging the suite.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "datagen/scholarly.h"
#include "engine/query_engine.h"
#include "obs/metrics.h"
#include "server/client.h"
#include "server/query_server.h"

namespace queryer {
namespace {

using Rows = std::vector<std::vector<std::string>>;

constexpr char kDedupSql[] =
    "SELECT DEDUP title, venue FROM dsd WHERE MOD(id, 100) < 10";
constexpr char kDisjointDedupSql[] =
    "SELECT DEDUP title, venue FROM dsd WHERE MOD(id, 100) >= 95";
constexpr char kScanSql[] =
    "SELECT id, title FROM dsd WHERE MOD(id, 100) < 23";

/// A server plus the engine it fronts, torn down in order.
struct TestServer {
  std::unique_ptr<QueryEngine> engine;
  std::unique_ptr<QueryServer> server;

  std::uint16_t port() const { return server->port(); }
};

TestServer StartServer(const std::vector<TablePtr>& tables,
                       EngineOptions engine_options = {},
                       ServerOptions server_options = {}) {
  if (engine_options.admission_timeout == 0) {
    engine_options.admission_timeout = 30;  // Fail fast, never hang.
  }
  TestServer ts;
  ts.engine = std::make_unique<QueryEngine>(engine_options);
  for (const TablePtr& table : tables) {
    EXPECT_TRUE(ts.engine->RegisterTable(table).ok());
  }
  ts.server = std::make_unique<QueryServer>(ts.engine.get(), server_options);
  Status st = ts.server->Start();
  EXPECT_TRUE(st.ok()) << st.ToString();
  return ts;
}

/// Raw line-framed socket, for the malformed-frame and disconnect tests
/// where the typed Client is too well-behaved.
struct RawConn {
  int fd = -1;
  std::string buf;

  static RawConn Open(std::uint16_t port) {
    RawConn conn;
    conn.fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(conn.fd, reinterpret_cast<sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(conn.fd);
      conn.fd = -1;
    }
    return conn;
  }

  bool Send(const std::string& line) {
    std::string framed = line + "\n";
    return ::send(fd, framed.data(), framed.size(), MSG_NOSIGNAL) ==
           static_cast<ssize_t>(framed.size());
  }

  /// Blocking read of one frame; empty string = connection closed.
  std::string ReadLine() {
    char chunk[4096];
    for (;;) {
      std::size_t nl = buf.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf.substr(0, nl);
        buf.erase(0, nl + 1);
        return line;
      }
      ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) return "";
      buf.append(chunk, static_cast<std::size_t>(n));
    }
  }

  void Close() {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
  ~RawConn() { Close(); }
};

class ServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dsd_ = new datagen::GeneratedDataset(datagen::MakeDsdLike(2600, 4242));
  }
  static void TearDownTestSuite() {
    delete dsd_;
    dsd_ = nullptr;
  }
  void TearDown() override { Failpoints::Global().DisarmAll(); }

  /// The in-process reference answer, from a fresh single-client engine.
  static Rows ReferenceRows(const std::string& sql) {
    QueryEngine engine;
    EXPECT_TRUE(engine.RegisterTable(dsd_->table).ok());
    auto result = engine.Execute(sql);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? result->rows : Rows{};
  }

  static datagen::GeneratedDataset* dsd_;
};

datagen::GeneratedDataset* ServerTest::dsd_ = nullptr;

// ---------------------------------------------------------------------------
// Round-trips
// ---------------------------------------------------------------------------

// PREPARE -> OPEN -> NEXT pages -> done: the paged rows are exactly the
// in-process answer, the final page reports done and releases the cursor.
TEST_F(ServerTest, PreparedCursorPagesMatchInProcessAnswer) {
  Rows reference = ReferenceRows(kScanSql);
  TestServer ts = StartServer({dsd_->table});

  auto client = Client::Connect("127.0.0.1", ts.port(), "tenant-a");
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  auto stmt = client->Prepare(kScanSql);
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  auto open = client->OpenPrepared(*stmt);
  ASSERT_TRUE(open.ok()) << open.status().ToString();
  EXPECT_EQ(open->columns, (std::vector<std::string>{"id", "title"}));

  Rows paged;
  bool done = false;
  while (!done) {
    auto page = client->Next(open->cursor, 57);
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    for (auto& row : page->rows) paged.push_back(std::move(row));
    done = page->done;
  }
  EXPECT_EQ(paged, reference);

  // done released the cursor server-side: a further NEXT is a structured
  // NotFound, not a dead connection.
  auto after = client->Next(open->cursor, 1);
  ASSERT_FALSE(after.ok());
  EXPECT_TRUE(after.status().IsNotFound()) << after.status().ToString();

  // And the connection is still perfectly usable.
  auto executed = client->Execute(kScanSql);
  ASSERT_TRUE(executed.ok()) << executed.status().ToString();
  EXPECT_EQ(executed->rows, reference);
}

// EXECUTE of a DEDUP statement over the wire equals the in-process answer.
TEST_F(ServerTest, ExecuteDedupMatchesInProcessAnswer) {
  Rows reference = ReferenceRows(kDedupSql);
  TestServer ts = StartServer({dsd_->table});

  auto client = Client::Connect("127.0.0.1", ts.port(), "tenant-a");
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto executed = client->Execute(kDedupSql);
  ASSERT_TRUE(executed.ok()) << executed.status().ToString();
  EXPECT_EQ(executed->rows, reference);
  EXPECT_GT(executed->comparisons_executed, 0u);
}

// CANCEL maps onto QueryCursor::Cancel: the following NEXT reports
// kCancelled as data and releases the cursor handle.
TEST_F(ServerTest, CancelSurfacesOnNextAndReleasesCursor) {
  EngineOptions engine_options;
  engine_options.batch_size = 16;
  TestServer ts = StartServer({dsd_->table}, engine_options);
  auto client = Client::Connect("127.0.0.1", ts.port(), "tenant-a");
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  auto open = client->Open("SELECT * FROM dsd");
  ASSERT_TRUE(open.ok()) << open.status().ToString();
  // Batch-aligned fetches so the next NEXT must pull a fresh batch (the
  // cancel flag is checked at batch boundaries, not in the carry buffer).
  auto first = client->Next(open->cursor, 16);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(client->Cancel(open->cursor).ok());

  auto cancelled = client->Next(open->cursor, 16);
  ASSERT_FALSE(cancelled.ok());
  EXPECT_TRUE(cancelled.status().IsCancelled())
      << cancelled.status().ToString();
  auto gone = client->Next(open->cursor, 16);
  EXPECT_TRUE(gone.status().IsNotFound()) << gone.status().ToString();
}

// ---------------------------------------------------------------------------
// Protocol robustness
// ---------------------------------------------------------------------------

// Malformed frames — garbage bytes, non-object JSON, unknown verbs, bad
// handles, verbs before HELLO, unparsable SQL — each get a structured
// error frame and the connection keeps serving.
TEST_F(ServerTest, MalformedFramesGetStructuredErrorsNotDisconnects) {
  TestServer ts = StartServer({dsd_->table});
  RawConn conn = RawConn::Open(ts.port());
  ASSERT_GE(conn.fd, 0);

  ASSERT_TRUE(conn.Send("this is not json"));
  EXPECT_NE(conn.ReadLine().find("\"Parse error\""), std::string::npos);

  ASSERT_TRUE(conn.Send("[1,2,3]"));
  EXPECT_NE(conn.ReadLine().find("\"Invalid argument\""), std::string::npos);

  // A verb before HELLO is refused but answered.
  ASSERT_TRUE(conn.Send(R"({"op":"EXECUTE","sql":"SELECT * FROM dsd"})"));
  EXPECT_NE(conn.ReadLine().find("HELLO"), std::string::npos);

  ASSERT_TRUE(conn.Send(R"({"op":"HELLO","tenant":"t"})"));
  EXPECT_NE(conn.ReadLine().find("\"ok\":true"), std::string::npos);

  ASSERT_TRUE(conn.Send(R"({"op":"FROBNICATE"})"));
  EXPECT_NE(conn.ReadLine().find("unknown op"), std::string::npos);

  ASSERT_TRUE(conn.Send(R"({"op":"NEXT","cursor":99})"));
  EXPECT_NE(conn.ReadLine().find("\"Not found\""), std::string::npos);

  // A PREPARE whose SQL does not parse is an error frame too.
  ASSERT_TRUE(conn.Send(R"({"op":"PREPARE","sql":"SELECT FROM WHERE"})"));
  EXPECT_NE(conn.ReadLine().find("\"Parse error\""), std::string::npos);

  // After all that abuse, real work still flows on the same connection.
  ASSERT_TRUE(conn.Send(
      R"({"op":"EXECUTE","sql":"SELECT id FROM dsd WHERE MOD(id, 100) < 1"})"));
  std::string answer = conn.ReadLine();
  EXPECT_NE(answer.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(answer.find("\"rows\""), std::string::npos);
}

// Counts that no uint64_t holds exactly — an infinite (1e400 parses to
// inf), huge or fractional "n" / "stmt" — are structured InvalidArgument
// errors counted as protocol errors, never a float-to-integer conversion,
// and the connection keeps serving.
TEST_F(ServerTest, NonIntegralCountsAreRejectedAsInvalidArgument) {
  TestServer ts = StartServer({dsd_->table});
  RawConn conn = RawConn::Open(ts.port());
  ASSERT_GE(conn.fd, 0);
  ASSERT_TRUE(conn.Send(R"({"op":"HELLO","tenant":"t"})"));
  EXPECT_NE(conn.ReadLine().find("\"ok\":true"), std::string::npos);
  ASSERT_TRUE(conn.Send(
      R"({"op":"OPEN","sql":"SELECT id FROM dsd WHERE MOD(id, 100) < 1"})"));
  std::string opened = conn.ReadLine();
  ASSERT_NE(opened.find("\"cursor\":1"), std::string::npos) << opened;

  const std::uint64_t errors_before =
      GlobalServerMetrics().protocol_errors->Value();
  for (const char* frame : {R"({"op":"NEXT","cursor":1,"n":1e400})",
                            R"({"op":"OPEN","stmt":1e30})",
                            R"({"op":"NEXT","cursor":1,"n":2.5})",
                            R"({"op":"NEXT","cursor":1.5,"n":1})",
                            R"({"op":"CLOSE","cursor":18446744073709551616})"}) {
    ASSERT_TRUE(conn.Send(frame));
    std::string reply = conn.ReadLine();
    EXPECT_NE(reply.find("\"ok\":false"), std::string::npos) << frame;
    EXPECT_NE(reply.find("\"Invalid argument\""), std::string::npos)
        << frame << " -> " << reply;
  }
  EXPECT_EQ(GlobalServerMetrics().protocol_errors->Value(), errors_before + 5);

  // The cursor survived every refused frame and still pages to the end.
  ASSERT_TRUE(conn.Send(R"({"op":"NEXT","cursor":1,"n":100000})"));
  std::string page = conn.ReadLine();
  EXPECT_NE(page.find("\"done\":true"), std::string::npos) << page;
}

// Over-long frames are swallowed and refused without losing the framing.
TEST_F(ServerTest, OversizedFrameIsRefusedAndConnectionSurvives) {
  ServerOptions server_options;
  server_options.max_frame_bytes = 1024;
  TestServer ts = StartServer({dsd_->table}, {}, server_options);
  RawConn conn = RawConn::Open(ts.port());
  ASSERT_GE(conn.fd, 0);

  ASSERT_TRUE(conn.Send(R"({"op":"HELLO","tenant":"t"})"));
  EXPECT_NE(conn.ReadLine().find("\"ok\":true"), std::string::npos);

  ASSERT_TRUE(conn.Send(std::string(4096, 'x')));
  EXPECT_NE(conn.ReadLine().find("max_frame_bytes"), std::string::npos);

  ASSERT_TRUE(conn.Send(
      R"({"op":"EXECUTE","sql":"SELECT id FROM dsd WHERE MOD(id, 100) < 1"})"));
  EXPECT_NE(conn.ReadLine().find("\"ok\":true"), std::string::npos);
}

// The idle timeout ends a silent connection with a structured goodbye, not
// a silent close.
TEST_F(ServerTest, IdleTimeoutSendsStructuredGoodbye) {
  ServerOptions server_options;
  server_options.idle_timeout = 0.2;
  TestServer ts = StartServer({dsd_->table}, {}, server_options);
  RawConn conn = RawConn::Open(ts.port());
  ASSERT_GE(conn.fd, 0);

  std::string goodbye = conn.ReadLine();  // Blocks until the timeout fires.
  EXPECT_NE(goodbye.find("idle timeout"), std::string::npos);
  EXPECT_NE(goodbye.find("\"bye\":true"), std::string::npos);
  EXPECT_EQ(conn.ReadLine(), "");  // Then the connection really closes.
}

// Connections beyond max_connections get a structured refusal frame.
TEST_F(ServerTest, ConnectionLimitRefusesStructurally) {
  ServerOptions server_options;
  server_options.max_connections = 1;
  TestServer ts = StartServer({dsd_->table}, {}, server_options);

  auto first = Client::Connect("127.0.0.1", ts.port(), "tenant-a");
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  auto second = Client::Connect("127.0.0.1", ts.port(), "tenant-b");
  ASSERT_FALSE(second.ok());
  EXPECT_TRUE(second.status().IsResourceExhausted())
      << second.status().ToString();

  // Freeing the slot lets the next connection in (the accept loop reaps).
  first->Disconnect();
  for (int attempt = 0; attempt < 50; ++attempt) {
    auto retry = Client::Connect("127.0.0.1", ts.port(), "tenant-b");
    if (retry.ok()) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  FAIL() << "connection slot never freed after disconnect";
}

// ---------------------------------------------------------------------------
// Disconnect = release everything (the phantom-slot probe, over the wire)
// ---------------------------------------------------------------------------

// An abrupt mid-stream disconnect must release the engine admission slot
// AND the coordinator claims: at max_concurrent_queries=1, a second
// connection's identical DEDUP query can only complete if the slot came
// back, can only produce the reference answer if the abandoned claims were
// released, and can only report zero executed comparisons if the first
// session's published links survived.
TEST_F(ServerTest, MidStreamDisconnectReleasesSlotAndClaims) {
  Rows reference = ReferenceRows(kDedupSql);

  EngineOptions engine_options;
  engine_options.max_concurrent_queries = 1;
  engine_options.batch_size = 16;
  TestServer ts = StartServer({dsd_->table}, engine_options);

  {
    RawConn conn = RawConn::Open(ts.port());
    ASSERT_GE(conn.fd, 0);
    ASSERT_TRUE(conn.Send(R"({"op":"HELLO","tenant":"t"})"));
    conn.ReadLine();
    ASSERT_TRUE(conn.Send(std::string(R"({"op":"OPEN","sql":")") + kDedupSql +
                          R"("})"));
    std::string opened = conn.ReadLine();
    ASSERT_NE(opened.find("\"cursor\""), std::string::npos) << opened;
    ASSERT_TRUE(conn.Send(R"({"op":"NEXT","cursor":1,"n":4})"));
    ASSERT_NE(conn.ReadLine().find("\"rows\""), std::string::npos);
    // Vanish with the cursor open and most of the stream undrained.
    conn.Close();
  }

  auto client = Client::Connect("127.0.0.1", ts.port(), "tenant-b");
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto second = client->Execute(kDedupSql);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->rows, reference);
  EXPECT_EQ(second->comparisons_executed, 0u)
      << "abandoned claims were not released / links were lost";
}

// ---------------------------------------------------------------------------
// Tenancy
// ---------------------------------------------------------------------------

// A tenant at its quota is shed with kResourceExhausted while other
// tenants keep being admitted; closing the session restores the quota.
TEST_F(ServerTest, TenantQuotaShedsWithoutStarvingOthers) {
  EngineOptions engine_options;
  engine_options.max_concurrent_queries = 4;
  engine_options.max_concurrent_per_tenant = 1;
  TestServer ts = StartServer({dsd_->table}, engine_options);

  std::uint64_t shed_before =
      GlobalServerMetrics().requests_shed->Value();

  auto alice = Client::Connect("127.0.0.1", ts.port(), "alice");
  ASSERT_TRUE(alice.ok()) << alice.status().ToString();
  auto bob = Client::Connect("127.0.0.1", ts.port(), "bob");
  ASSERT_TRUE(bob.ok()) << bob.status().ToString();

  // Alice's open cursor occupies her whole quota.
  auto held = alice->Open("SELECT * FROM dsd");
  ASSERT_TRUE(held.ok()) << held.status().ToString();

  auto shed = alice->Execute(kScanSql);
  ASSERT_FALSE(shed.ok());
  EXPECT_TRUE(shed.status().IsResourceExhausted())
      << shed.status().ToString();
  auto shed_open = alice->Open(kScanSql);
  ASSERT_FALSE(shed_open.ok());
  EXPECT_TRUE(shed_open.status().IsResourceExhausted());

  // Bob is unaffected by Alice hammering her quota.
  auto bobs = bob->Execute(kScanSql);
  ASSERT_TRUE(bobs.ok()) << bobs.status().ToString();

  EXPECT_GE(GlobalServerMetrics().requests_shed->Value(), shed_before + 2);
  EXPECT_GE(MetricsRegistry::Global()
                .GetCounter("queryer_server_tenant_shed_total_alice")
                ->Value(),
            2u);

  // CLOSE returns the quota; Alice works again.
  ASSERT_TRUE(alice->Close(held->cursor).ok());
  auto after = alice->Execute(kScanSql);
  EXPECT_TRUE(after.ok()) << after.status().ToString();
}

// ---------------------------------------------------------------------------
// Freshness
// ---------------------------------------------------------------------------

// Every EXECUTE runs on the engine: a repeat is served by the Link Index
// with 0 comparisons, and after another connection publishes links on the
// same table the next answer equals the in-process one at that moment.
TEST_F(ServerTest, ExecuteReflectsLinksPublishedByAnotherConnection) {
  TestServer ts = StartServer({dsd_->table});
  auto a = Client::Connect("127.0.0.1", ts.port(), "tenant-a");
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  auto b = Client::Connect("127.0.0.1", ts.port(), "tenant-b");
  ASSERT_TRUE(b.ok()) << b.status().ToString();

  auto first = a->Execute(kDedupSql);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_GT(first->comparisons_executed, 0u);
  auto repeat = a->Execute(kDedupSql);
  ASSERT_TRUE(repeat.ok()) << repeat.status().ToString();
  EXPECT_EQ(repeat->comparisons_executed, 0u)
      << "the Link Index did not serve the repeat";
  EXPECT_EQ(repeat->rows, first->rows);

  // Connection B resolves a disjoint selection on the same table: its
  // resolution publishes links on dsd, which advances the Link Index epoch.
  std::uint64_t epoch_before =
      (*ts.engine->GetRuntime("dsd"))->link_index().epoch();
  auto other = b->Execute(kDisjointDedupSql);
  ASSERT_TRUE(other.ok()) << other.status().ToString();
  ASSERT_GT((*ts.engine->GetRuntime("dsd"))->link_index().epoch(),
            epoch_before)
      << "the disjoint DEDUP published nothing; the probe is inert";

  // A's next answer is what the engine answers in-process right now.
  auto after = a->Execute(kDedupSql);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  auto in_process = ts.engine->Execute(kDedupSql);
  ASSERT_TRUE(in_process.ok()) << in_process.status().ToString();
  EXPECT_EQ(after->rows, in_process->rows);
}

// ---------------------------------------------------------------------------
// Failpoints
// ---------------------------------------------------------------------------

// server.accept refuses the connection with a structured frame;
// server.read fails the read path, which the server treats as a peer
// disconnect (cleanup, no crash, later connections unaffected).
TEST_F(ServerTest, ServerFailpointsExerciseFailurePaths) {
  TestServer ts = StartServer({dsd_->table});

  ASSERT_TRUE(
      Failpoints::Global().Arm("server.accept", "error(once)").ok());
  auto refused = Client::Connect("127.0.0.1", ts.port(), "tenant-a");
  ASSERT_FALSE(refused.ok());

  auto client = Client::Connect("127.0.0.1", ts.port(), "tenant-a");
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  ASSERT_TRUE(Failpoints::Global().Arm("server.read", "error(once)").ok());
  // The injected read failure kills this connection (disconnect path).
  auto dead = client->Execute(kScanSql);
  ASSERT_FALSE(dead.ok());

  // The server survives and serves fresh connections.
  auto again = Client::Connect("127.0.0.1", ts.port(), "tenant-a");
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_TRUE(again->Execute(kScanSql).ok());
}

}  // namespace
}  // namespace queryer
