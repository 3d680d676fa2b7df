// QueryServer: a long-running multi-tenant front end over one QueryEngine.
//
// Wire protocol (full grammar in docs/SERVER.md): newline-framed JSON over
// TCP — every request is one JSON object on one line, every response one
// JSON object on one line, in request order. Verbs map 1:1 onto the
// engine's streaming API:
//
//   HELLO    {tenant}        authenticate the connection (first frame)
//   PREPARE  {sql}           -> stmt handle (shared plan cache behind it)
//   OPEN     {stmt | sql}    -> cursor handle  (PreparedQuery::Open)
//   NEXT     {cursor, n}     -> up to n rows + done (QueryCursor::Fetch)
//   CANCEL   {cursor}        QueryCursor::Cancel (cursor stays until CLOSE)
//   CLOSE    {cursor}        QueryCursor::Close + handle release
//   EXECUTE  {sql}           one-shot materialized answer (result cache)
//   METRICS  {}              global metrics registry as JSON
//
// Failures are data, not disconnects: every protocol or engine error comes
// back as a structured {"ok":false,"error":{code,message}} frame carrying
// the engine's own Status taxonomy, and the connection stays usable — the
// server never drops a connection mid-stream in response to a bad request.
// Only a peer disconnect, the idle timeout (which sends a structured
// goodbye first) and Stop() end a connection.
//
// Threading: one accept thread plus one dedicated thread per connection,
// bounded by ServerOptions::max_connections (over-limit connections get a
// structured refusal and an immediate close). Connection handlers are
// deliberately NOT ThreadPool::Shared() tasks: the pool's contract forbids
// tasks that block on tasks they enqueue, and a handler blocks inside
// engine calls (Open waits on admission, a DEDUP's first Fetch waits on
// the comparison workers) — running handlers on the pool would deadlock
// it at saturation. Dedicated threads sidestep that whole class of
// inversion; the engine's pool stays the only compute pool.
//
// Tenancy: HELLO binds the connection to a tenant id; every session (open
// cursor or in-flight EXECUTE) is charged to that tenant's quota
// (EngineOptions::max_concurrent_per_tenant) before engine admission —
// see tenant_quotas.h. Disconnect releases everything the connection held:
// cursors close (which releases engine admission slots and abandons any
// coordinator claims) and quota charges return.
//
// Run serving engines with EngineOptions::admission_timeout > 0: a client
// holding one cursor while opening another can otherwise block forever at
// max_concurrent_queries=1 (the engine documents this self-deadlock for
// in-process callers too; a timeout turns it into a clean shed).
//
// Failpoints: server.accept (refuse an accepted connection), server.read
// (treat a read as failed -> disconnect path), server.write (treat a write
// as failed -> disconnect path).

#ifndef QUERYER_SERVER_QUERY_SERVER_H_
#define QUERYER_SERVER_QUERY_SERVER_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/status.h"
#include "server/json.h"
#include "server/plan_cache.h"
#include "server/result_cache.h"
#include "server/tenant_quotas.h"

namespace queryer {

class QueryEngine;

/// \brief Server configuration. Engine behavior (admission, quotas, batch
/// size) stays in EngineOptions; this is the wire side only.
struct ServerOptions {
  /// Listen address. Loopback by default — the protocol has no transport
  /// security; see docs/SERVER.md before exposing it wider.
  std::string host = "127.0.0.1";
  /// 0 = pick an ephemeral port (read it back from port() after Start).
  std::uint16_t port = 0;
  /// Connection cap; over-limit connections are refused with a structured
  /// frame. Also the bound on connection-handler threads.
  std::size_t max_connections = 256;
  /// Seconds a connection may sit idle (no complete frame) before the
  /// server sends a goodbye frame and closes it. 0 = never.
  double idle_timeout = 300;
  /// Shared prepared-plan cache capacity (entries).
  std::size_t plan_cache_capacity = 128;
  /// Result cache budget (total bytes / per-answer bytes). Answers larger
  /// than the per-entry bound are never cached.
  std::size_t result_cache_bytes = 8u << 20;
  std::size_t result_cache_entry_bytes = 256u << 10;
  /// Hard bound on one request frame; longer lines are discarded and
  /// answered with a structured error.
  std::size_t max_frame_bytes = 1u << 20;
  /// NEXT row count when the request omits n, and the per-NEXT ceiling.
  std::size_t default_fetch_rows = 1024;
  std::size_t max_fetch_rows = 1u << 16;
  /// EXECUTE materialization bound: answers with more rows fail with
  /// kOutOfRange ("page with OPEN/NEXT instead").
  std::size_t max_execute_rows = 1u << 20;
};

/// \brief The server. Construct over a fully-registered engine, Start(),
/// Stop() (or destroy) to shut down. Thread-safe handle.
class QueryServer {
 public:
  /// `engine` must outlive the server and have every table registered —
  /// registration is not safe against in-flight queries, and the server
  /// starts serving queries immediately.
  explicit QueryServer(QueryEngine* engine, ServerOptions options = {});
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Binds, listens and spawns the accept thread. kIoError on bind/listen
  /// failure (e.g. port in use).
  Status Start();

  /// Stops accepting, wakes every connection (shutdown(2) on its socket),
  /// joins all threads. Idempotent; called by the destructor.
  void Stop();

  /// The bound port (after Start) — the way to reach an ephemeral-port
  /// server in tests.
  std::uint16_t port() const { return port_; }
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Introspection for tests and the METRICS verb.
  PlanCache& plan_cache() { return plan_cache_; }
  ResultCache& result_cache() { return result_cache_; }
  TenantQuotas& quotas() { return quotas_; }
  std::size_t active_connections() const;

 private:
  struct Connection;

  void AcceptLoop();
  void ConnectionLoop(Connection* conn);
  /// Joins connections whose loop has finished (called from the accept
  /// loop, so the connection list stays bounded on long uptimes).
  void ReapFinished();

  /// One request frame -> one response frame. Never throws; never closes
  /// the connection (the loop owns that decision).
  /// Protocol-level failures come back as error frames.
  JsonValue HandleRequest(Connection* conn, const std::string& line);

  JsonValue HandleHello(Connection* conn, const JsonValue& req);
  JsonValue HandlePrepare(Connection* conn, const JsonValue& req);
  JsonValue HandleOpen(Connection* conn, const JsonValue& req);
  JsonValue HandleNext(Connection* conn, const JsonValue& req);
  JsonValue HandleCancel(Connection* conn, const JsonValue& req);
  JsonValue HandleClose(Connection* conn, const JsonValue& req);
  JsonValue HandleExecute(Connection* conn, const JsonValue& req);
  JsonValue HandleMetrics(Connection* conn, const JsonValue& req);

  QueryEngine* const engine_;
  const ServerOptions options_;

  PlanCache plan_cache_;
  ResultCache result_cache_;
  TenantQuotas quotas_;

  std::atomic<bool> stop_{false};
  std::atomic<bool> running_{false};
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread accept_thread_;

  mutable std::mutex conns_mu_;
  std::list<std::unique_ptr<Connection>> conns_;
};

}  // namespace queryer

#endif  // QUERYER_SERVER_QUERY_SERVER_H_
