#include "server/query_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <map>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "engine/query_engine.h"
#include "obs/metrics.h"

namespace queryer {

namespace {

/// Reverse of StatusCodeToString, for building error frames is not needed
/// server-side; the server always has the StatusCode in hand.
JsonValue ErrorFrame(const Status& status, const JsonValue* id) {
  JsonValue error;
  error.Set("code", JsonValue::Str(std::string(StatusCodeToString(
                        status.code()))));
  error.Set("message", JsonValue::Str(status.message()));
  JsonValue frame;
  frame.Set("ok", JsonValue::Bool(false));
  if (id != nullptr) frame.Set("id", *id);
  frame.Set("error", std::move(error));
  return frame;
}

JsonValue OkFrame(const JsonValue* id) {
  JsonValue frame;
  frame.Set("ok", JsonValue::Bool(true));
  if (id != nullptr) frame.Set("id", *id);
  return frame;
}

/// Reads an optional non-negative integer field; false on a wrong type or a
/// value no uint64_t holds exactly (non-finite, fractional, >= 2^64).
bool ReadCount(const JsonValue& req, const char* key, bool* present,
               std::uint64_t* out) {
  const JsonValue* v = req.Find(key);
  *present = v != nullptr;
  if (v == nullptr) return true;
  if (!v->is_number()) return false;
  const double d = v->number_value();
  // 2^64 as a double; the negated comparisons also reject NaN.
  if (!(d >= 0 && d < 18446744073709551616.0) || d != std::floor(d)) {
    return false;
  }
  *out = static_cast<std::uint64_t>(d);
  return true;
}

/// Prepares `sql` on the engine as a handle shared by the statement table
/// and the cursors opened from it.
Result<std::shared_ptr<const PreparedQuery>> PrepareShared(
    QueryEngine& engine, const std::string& sql) {
  auto prepared = engine.Prepare(sql);
  if (!prepared.ok()) return prepared.status();
  return std::make_shared<const PreparedQuery>(
      std::move(prepared).MoveValueUnsafe());
}

JsonValue RowsToJson(const std::vector<std::vector<std::string>>& rows) {
  JsonValue::Array out;
  out.reserve(rows.size());
  for (const auto& row : rows) {
    JsonValue::Array cells;
    cells.reserve(row.size());
    for (const auto& v : row) cells.push_back(JsonValue::Str(v));
    out.push_back(JsonValue::MakeArray(std::move(cells)));
  }
  return JsonValue::MakeArray(std::move(out));
}

JsonValue ColumnsToJson(const std::vector<std::string>& columns) {
  JsonValue::Array out;
  out.reserve(columns.size());
  for (const auto& c : columns) out.push_back(JsonValue::Str(c));
  return JsonValue::MakeArray(std::move(out));
}

JsonValue StatsToJson(const ExecStats& stats) {
  JsonValue out;
  out.Set("comparisons_executed", JsonValue::Uint(stats.comparisons_executed));
  out.Set("comparisons_skipped_linked",
          JsonValue::Uint(stats.comparisons_skipped_linked));
  out.Set("matches_found", JsonValue::Uint(stats.matches_found));
  out.Set("entities_already_resolved",
          JsonValue::Uint(stats.entities_already_resolved));
  out.Set("total_seconds", JsonValue::Number(stats.total_seconds));
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Connection state
// ---------------------------------------------------------------------------

/// One TCP connection: its socket, its handler thread, and the session
/// tables (prepared statements, open cursors) the protocol handles index
/// into. Owned by the server; all fields except `thread`/`done`/`fd` are
/// touched only by the handler thread.
struct QueryServer::Connection {
  int fd = -1;
  std::thread thread;
  std::atomic<bool> done{false};

  std::string tenant;  // Empty until HELLO.

  struct WireCursor {
    CursorPtr cursor;
    /// Keeps the plan alive while the cursor streams over it (an inline-SQL
    /// OPEN's plan has no other owner).
    std::shared_ptr<const PreparedQuery> plan;
    bool quota_charged = false;
  };

  std::map<std::uint64_t, std::shared_ptr<const PreparedQuery>> statements;
  std::map<std::uint64_t, WireCursor> cursors;
  std::uint64_t next_statement_id = 1;
  std::uint64_t next_cursor_id = 1;
};

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

QueryServer::QueryServer(QueryEngine* engine, ServerOptions options)
    : engine_(engine),
      options_(std::move(options)),
      quotas_(engine->options().max_concurrent_per_tenant) {}

QueryServer::~QueryServer() { Stop(); }

Status QueryServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::AlreadyExists("server already started");
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad listen address: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    Status st = Status::IoError(std::string("bind ") + options_.host + ":" +
                                std::to_string(options_.port) + ": " +
                                std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  if (::listen(listen_fd_, 128) < 0) {
    Status st = Status::IoError(std::string("listen: ") +
                                std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
      0) {
    port_ = ntohs(bound.sin_port);
  }

  stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void QueryServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stop_.store(true, std::memory_order_release);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }

  // Wake every connection blocked in poll/recv; its handler thread then
  // runs the normal disconnect epilogue (cursors close, quota returns).
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& conn : conns_) {
      if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
    }
  }
  for (;;) {
    std::unique_ptr<Connection> conn;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      if (conns_.empty()) break;
      conn = std::move(conns_.front());
      conns_.pop_front();
    }
    if (conn->thread.joinable()) conn->thread.join();
    if (conn->fd >= 0) ::close(conn->fd);
  }
}

std::size_t QueryServer::active_connections() const {
  std::lock_guard<std::mutex> lock(conns_mu_);
  std::size_t n = 0;
  for (const auto& conn : conns_) {
    if (!conn->done.load(std::memory_order_acquire)) ++n;
  }
  return n;
}

void QueryServer::ReapFinished() {
  std::lock_guard<std::mutex> lock(conns_mu_);
  for (auto it = conns_.begin(); it != conns_.end();) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      if ((*it)->fd >= 0) ::close((*it)->fd);
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

// ---------------------------------------------------------------------------
// I/O helpers
// ---------------------------------------------------------------------------

namespace {

/// Writes the whole buffer; false on any failure (peer gone, injected
/// server.write fault). MSG_NOSIGNAL: a dead peer must surface as EPIPE,
/// not kill the process.
bool WriteAll(int fd, const std::string& data) {
  static Failpoint* write_fp = Failpoints::Global().Get("server.write");
  if (write_fp->armed() && !write_fp->Fire().ok()) return false;
  const ServerMetrics& metrics = GlobalServerMetrics();
  std::size_t off = 0;
  while (off < data.size()) {
    ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;
    off += static_cast<std::size_t>(n);
    metrics.bytes_written->Increment(static_cast<std::uint64_t>(n));
  }
  return true;
}

/// One response frame onto the wire.
bool WriteFrame(int fd, const JsonValue& frame) {
  std::string line;
  frame.DumpTo(&line);
  line += '\n';
  bool ok = WriteAll(fd, line);
  if (ok) GlobalServerMetrics().responses_sent->Increment();
  return ok;
}

}  // namespace

// ---------------------------------------------------------------------------
// Accept loop
// ---------------------------------------------------------------------------

void QueryServer::AcceptLoop() {
  static Failpoint* accept_fp = Failpoints::Global().Get("server.accept");
  const ServerMetrics& metrics = GlobalServerMetrics();

  while (!stop_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready <= 0) {
      ReapFinished();
      continue;
    }
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;

    ReapFinished();

    Status refusal;
    if (accept_fp->armed()) {
      Status injected = accept_fp->Fire();
      if (!injected.ok()) {
        refusal = injected.WithContext("failpoint server.accept");
      }
    }
    if (refusal.ok() && active_connections() >= options_.max_connections) {
      refusal = Status::ResourceExhausted(
          "connection limit reached (" +
          std::to_string(options_.max_connections) + ")");
    }
    if (!refusal.ok()) {
      // Structured refusal, then close: the client learns WHY instead of
      // seeing a bare RST.
      JsonValue frame = ErrorFrame(refusal, nullptr);
      frame.Set("bye", JsonValue::Bool(true));
      WriteFrame(fd, frame);
      ::close(fd);
      metrics.connections_refused->Increment();
      continue;
    }

    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    Connection* raw = conn.get();
    metrics.connections_accepted->Increment();
    metrics.connections_active->Add(1);
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns_.push_back(std::move(conn));
    }
    raw->thread = std::thread([this, raw] { ConnectionLoop(raw); });
  }
}

// ---------------------------------------------------------------------------
// Connection loop
// ---------------------------------------------------------------------------

void QueryServer::ConnectionLoop(Connection* conn) {
  static Failpoint* read_fp = Failpoints::Global().Get("server.read");
  const ServerMetrics& metrics = GlobalServerMetrics();

  std::string inbuf;
  bool discarding = false;  // Swallowing an oversized frame's tail.
  char chunk[64 * 1024];
  const int idle_ms = options_.idle_timeout > 0
                          ? static_cast<int>(options_.idle_timeout * 1000)
                          : -1;

  for (;;) {
    // Serve every complete frame already buffered before reading again
    // (clients may pipeline).
    std::size_t nl;
    while ((nl = inbuf.find('\n')) != std::string::npos) {
      std::string line = inbuf.substr(0, nl);
      inbuf.erase(0, nl + 1);
      if (discarding) {
        // Tail of a frame we already refused as oversized.
        discarding = false;
        continue;
      }
      if (line.empty()) continue;  // Blank lines are keep-alives.
      if (line.size() > options_.max_frame_bytes) {
        // A complete frame can exceed the cap too (one recv can deliver
        // line + newline together, bypassing the partial-line check below).
        metrics.protocol_errors->Increment();
        JsonValue refusal = ErrorFrame(
            Status::InvalidArgument(
                "frame exceeds max_frame_bytes (" +
                std::to_string(options_.max_frame_bytes) + ")"),
            nullptr);
        if (!WriteFrame(conn->fd, refusal)) goto disconnect;
        continue;
      }
      Stopwatch request_timer;
      metrics.frames_received->Increment();
      JsonValue response = HandleRequest(conn, line);
      bool write_ok = WriteFrame(conn->fd, response);
      metrics.request_latency->Observe(request_timer.ElapsedSeconds());
      if (!write_ok) goto disconnect;
    }

    if (!discarding && inbuf.size() > options_.max_frame_bytes) {
      // The line under construction is already too long: refuse it now and
      // swallow everything up to its newline.
      metrics.protocol_errors->Increment();
      JsonValue frame = ErrorFrame(
          Status::InvalidArgument(
              "frame exceeds max_frame_bytes (" +
              std::to_string(options_.max_frame_bytes) + ")"),
          nullptr);
      if (!WriteFrame(conn->fd, frame)) goto disconnect;
      inbuf.clear();
      discarding = true;
    }

    pollfd pfd{conn->fd, POLLIN, 0};
    int ready = ::poll(&pfd, 1, idle_ms);
    if (ready == 0) {
      // Idle timeout: structured goodbye, then close.
      metrics.idle_disconnects->Increment();
      JsonValue frame = ErrorFrame(
          Status::DeadlineExceeded("idle timeout, closing connection"),
          nullptr);
      frame.Set("bye", JsonValue::Bool(true));
      WriteFrame(conn->fd, frame);
      goto disconnect;
    }
    if (ready < 0) {
      if (errno == EINTR) continue;
      goto disconnect;
    }
    if (read_fp->armed() && !read_fp->Fire().ok()) goto disconnect;
    ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      goto disconnect;  // Peer closed (or read error).
    }
    metrics.bytes_read->Increment(static_cast<std::uint64_t>(n));
    inbuf.append(chunk, static_cast<std::size_t>(n));
  }

disconnect:
  // The disconnect epilogue: everything this connection held goes back.
  // Destroying a WireCursor closes its QueryCursor — which releases the
  // engine admission slot and leaves no coordinator claims behind (the
  // cursor contract) — and its quota charge returns here.
  for (auto& [id, wire] : conn->cursors) {
    (void)id;
    wire.cursor.reset();
    if (wire.quota_charged) quotas_.Release(conn->tenant);
  }
  conn->cursors.clear();
  conn->statements.clear();
  ::shutdown(conn->fd, SHUT_RDWR);
  metrics.connections_active->Add(-1);
  conn->done.store(true, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// Request dispatch
// ---------------------------------------------------------------------------

JsonValue QueryServer::HandleRequest(Connection* conn,
                                     const std::string& line) {
  const ServerMetrics& metrics = GlobalServerMetrics();

  auto parsed = JsonValue::Parse(line);
  if (!parsed.ok()) {
    metrics.protocol_errors->Increment();
    return ErrorFrame(parsed.status(), nullptr);
  }
  JsonValue req = std::move(parsed).MoveValueUnsafe();
  const JsonValue* id = req.Find("id");
  if (!req.is_object()) {
    metrics.protocol_errors->Increment();
    return ErrorFrame(
        Status::InvalidArgument("request must be a JSON object"), nullptr);
  }
  const JsonValue* op = req.Find("op");
  if (op == nullptr || !op->is_string()) {
    metrics.protocol_errors->Increment();
    return ErrorFrame(
        Status::InvalidArgument("request needs a string \"op\""), id);
  }
  const std::string& verb = op->string_value();

  if (EqualsIgnoreCase(verb, "HELLO")) return HandleHello(conn, req);

  if (conn->tenant.empty()) {
    metrics.protocol_errors->Increment();
    return ErrorFrame(Status::InvalidArgument(
                          "authenticate first: send HELLO with a tenant id"),
                      id);
  }
  if (EqualsIgnoreCase(verb, "PREPARE")) return HandlePrepare(conn, req);
  if (EqualsIgnoreCase(verb, "OPEN")) return HandleOpen(conn, req);
  if (EqualsIgnoreCase(verb, "NEXT")) return HandleNext(conn, req);
  if (EqualsIgnoreCase(verb, "CANCEL")) return HandleCancel(conn, req);
  if (EqualsIgnoreCase(verb, "CLOSE")) return HandleClose(conn, req);
  if (EqualsIgnoreCase(verb, "EXECUTE")) return HandleExecute(conn, req);
  if (EqualsIgnoreCase(verb, "METRICS")) return HandleMetrics(conn, req);

  metrics.protocol_errors->Increment();
  return ErrorFrame(Status::InvalidArgument("unknown op: " + verb), id);
}

JsonValue QueryServer::HandleHello(Connection* conn, const JsonValue& req) {
  const JsonValue* id = req.Find("id");
  const JsonValue* tenant = req.Find("tenant");
  if (tenant == nullptr || !tenant->is_string() ||
      tenant->string_value().empty()) {
    GlobalServerMetrics().protocol_errors->Increment();
    return ErrorFrame(
        Status::InvalidArgument("HELLO needs a non-empty string \"tenant\""),
        id);
  }
  if (!conn->tenant.empty()) {
    GlobalServerMetrics().protocol_errors->Increment();
    return ErrorFrame(Status::InvalidArgument(
                          "already authenticated as \"" + conn->tenant +
                          "\"; open a new connection to switch tenants"),
                      id);
  }
  conn->tenant = tenant->string_value();
  JsonValue frame = OkFrame(id);
  frame.Set("server", JsonValue::Str("queryer"));
  frame.Set("protocol", JsonValue::Int(1));
  return frame;
}

JsonValue QueryServer::HandlePrepare(Connection* conn, const JsonValue& req) {
  const JsonValue* id = req.Find("id");
  const JsonValue* sql = req.Find("sql");
  if (sql == nullptr || !sql->is_string()) {
    GlobalServerMetrics().protocol_errors->Increment();
    return ErrorFrame(
        Status::InvalidArgument("PREPARE needs a string \"sql\""), id);
  }
  auto plan = PrepareShared(*engine_, sql->string_value());
  if (!plan.ok()) return ErrorFrame(plan.status(), id);

  std::uint64_t stmt_id = conn->next_statement_id++;
  conn->statements[stmt_id] = *plan;

  JsonValue frame = OkFrame(id);
  frame.Set("stmt", JsonValue::Uint(stmt_id));
  frame.Set("dedup", JsonValue::Bool((*plan)->dedup()));
  frame.Set("plan", JsonValue::Str((*plan)->plan_text()));
  return frame;
}

JsonValue QueryServer::HandleOpen(Connection* conn, const JsonValue& req) {
  const JsonValue* id = req.Find("id");

  // OPEN takes either a prepared handle ("stmt") or inline SQL (prepared
  // here like PREPARE would).
  std::shared_ptr<const PreparedQuery> plan;
  bool has_stmt = false;
  std::uint64_t stmt_id = 0;
  if (!ReadCount(req, "stmt", &has_stmt, &stmt_id)) {
    GlobalServerMetrics().protocol_errors->Increment();
    return ErrorFrame(
        Status::InvalidArgument("\"stmt\" must be a non-negative integer"),
        id);
  }
  if (has_stmt) {
    auto it = conn->statements.find(stmt_id);
    if (it == conn->statements.end()) {
      GlobalServerMetrics().protocol_errors->Increment();
      return ErrorFrame(
          Status::NotFound("no prepared statement " + std::to_string(stmt_id)),
          id);
    }
    plan = it->second;
  } else {
    const JsonValue* sql = req.Find("sql");
    if (sql == nullptr || !sql->is_string()) {
      GlobalServerMetrics().protocol_errors->Increment();
      return ErrorFrame(
          Status::InvalidArgument("OPEN needs \"stmt\" or a string \"sql\""),
          id);
    }
    auto prepared = PrepareShared(*engine_, sql->string_value());
    if (!prepared.ok()) return ErrorFrame(prepared.status(), id);
    plan = std::move(prepared).MoveValueUnsafe();
  }

  // Tenant quota first, engine admission second: an over-quota tenant is
  // shed here without ever occupying (or queueing for) an engine slot.
  if (!quotas_.TryAcquire(conn->tenant)) {
    return ErrorFrame(
        Status::ResourceExhausted("tenant \"" + conn->tenant +
                                  "\" is at its session quota (" +
                                  std::to_string(quotas_.limit()) + ")"),
        id);
  }
  auto cursor = plan->Open();
  if (!cursor.ok()) {
    quotas_.Release(conn->tenant);
    return ErrorFrame(cursor.status(), id);
  }

  std::uint64_t cursor_id = conn->next_cursor_id++;
  Connection::WireCursor wire;
  wire.cursor = std::move(cursor).MoveValueUnsafe();
  wire.plan = std::move(plan);
  wire.quota_charged = true;

  JsonValue frame = OkFrame(id);
  frame.Set("cursor", JsonValue::Uint(cursor_id));
  frame.Set("columns", ColumnsToJson(wire.cursor->columns()));
  frame.Set("batch_size", JsonValue::Uint(wire.cursor->batch_size()));
  conn->cursors[cursor_id] = std::move(wire);
  return frame;
}

JsonValue QueryServer::HandleNext(Connection* conn, const JsonValue& req) {
  const JsonValue* id = req.Find("id");
  bool has_cursor = false;
  std::uint64_t cursor_id = 0;
  if (!ReadCount(req, "cursor", &has_cursor, &cursor_id) || !has_cursor) {
    GlobalServerMetrics().protocol_errors->Increment();
    return ErrorFrame(
        Status::InvalidArgument("NEXT needs an integer \"cursor\""), id);
  }
  auto it = conn->cursors.find(cursor_id);
  if (it == conn->cursors.end()) {
    GlobalServerMetrics().protocol_errors->Increment();
    return ErrorFrame(
        Status::NotFound("no open cursor " + std::to_string(cursor_id)), id);
  }

  bool has_n = false;
  std::uint64_t n = options_.default_fetch_rows;
  if (!ReadCount(req, "n", &has_n, &n) || n == 0) {
    GlobalServerMetrics().protocol_errors->Increment();
    return ErrorFrame(
        Status::InvalidArgument("\"n\" must be a positive integer"), id);
  }
  if (n > options_.max_fetch_rows) n = options_.max_fetch_rows;

  auto rows = it->second.cursor->Fetch(static_cast<std::size_t>(n));
  if (!rows.ok()) {
    // Terminal stream error (cancelled / deadline / execution failure):
    // the cursor already released its engine slot; release the handle and
    // the quota charge, and tell the client as data.
    Status st = rows.status();
    if (it->second.quota_charged) quotas_.Release(conn->tenant);
    conn->cursors.erase(it);
    return ErrorFrame(st, id);
  }

  bool done = rows->size() < n;
  JsonValue frame = OkFrame(id);
  frame.Set("rows", RowsToJson(*rows));
  frame.Set("done", JsonValue::Bool(done));
  if (done) {
    // End of stream: the engine already released the session at the last
    // batch; drop the handle so the quota slot frees without waiting for a
    // CLOSE the client is allowed to skip.
    frame.Set("stats", StatsToJson(it->second.cursor->stats()));
    if (it->second.quota_charged) quotas_.Release(conn->tenant);
    conn->cursors.erase(it);
  }
  return frame;
}

JsonValue QueryServer::HandleCancel(Connection* conn, const JsonValue& req) {
  const JsonValue* id = req.Find("id");
  bool has_cursor = false;
  std::uint64_t cursor_id = 0;
  if (!ReadCount(req, "cursor", &has_cursor, &cursor_id) || !has_cursor) {
    GlobalServerMetrics().protocol_errors->Increment();
    return ErrorFrame(
        Status::InvalidArgument("CANCEL needs an integer \"cursor\""), id);
  }
  auto it = conn->cursors.find(cursor_id);
  if (it == conn->cursors.end()) {
    GlobalServerMetrics().protocol_errors->Increment();
    return ErrorFrame(
        Status::NotFound("no open cursor " + std::to_string(cursor_id)), id);
  }
  // Cooperative: the flag raises now, the stream reports kCancelled at its
  // next batch boundary (the following NEXT). The handle stays until CLOSE
  // or that NEXT — CANCEL maps onto QueryCursor::Cancel, nothing more.
  it->second.cursor->Cancel();
  return OkFrame(id);
}

JsonValue QueryServer::HandleClose(Connection* conn, const JsonValue& req) {
  const JsonValue* id = req.Find("id");
  bool has_cursor = false;
  std::uint64_t cursor_id = 0;
  if (!ReadCount(req, "cursor", &has_cursor, &cursor_id) || !has_cursor) {
    GlobalServerMetrics().protocol_errors->Increment();
    return ErrorFrame(
        Status::InvalidArgument("CLOSE needs an integer \"cursor\""), id);
  }
  auto it = conn->cursors.find(cursor_id);
  if (it == conn->cursors.end()) {
    GlobalServerMetrics().protocol_errors->Increment();
    return ErrorFrame(
        Status::NotFound("no open cursor " + std::to_string(cursor_id)), id);
  }
  it->second.cursor.reset();  // Closes: engine slot + claims release here.
  if (it->second.quota_charged) quotas_.Release(conn->tenant);
  conn->cursors.erase(it);
  return OkFrame(id);
}

JsonValue QueryServer::HandleExecute(Connection* conn, const JsonValue& req) {
  const JsonValue* id = req.Find("id");
  const JsonValue* sql_value = req.Find("sql");
  if (sql_value == nullptr || !sql_value->is_string()) {
    GlobalServerMetrics().protocol_errors->Increment();
    return ErrorFrame(
        Status::InvalidArgument("EXECUTE needs a string \"sql\""), id);
  }
  auto prepared = engine_->Prepare(sql_value->string_value());
  if (!prepared.ok()) return ErrorFrame(prepared.status(), id);

  if (!quotas_.TryAcquire(conn->tenant)) {
    return ErrorFrame(
        Status::ResourceExhausted("tenant \"" + conn->tenant +
                                  "\" is at its session quota (" +
                                  std::to_string(quotas_.limit()) + ")"),
        id);
  }

  auto opened = prepared->Open();
  if (!opened.ok()) {
    quotas_.Release(conn->tenant);
    return ErrorFrame(opened.status(), id);
  }
  CursorPtr cursor = std::move(opened).MoveValueUnsafe();

  const std::vector<std::string> columns = cursor->columns();
  std::vector<std::vector<std::string>> rows;
  Status drain_error;
  for (;;) {
    auto page = cursor->Fetch(options_.max_fetch_rows);
    if (!page.ok()) {
      drain_error = page.status();
      break;
    }
    bool done = page->size() < options_.max_fetch_rows;
    for (auto& row : *page) rows.push_back(std::move(row));
    if (rows.size() > options_.max_execute_rows) {
      drain_error = Status::OutOfRange(
          "answer exceeds max_execute_rows (" +
          std::to_string(options_.max_execute_rows) +
          "); page it with OPEN/NEXT instead");
      break;
    }
    if (done) break;
  }
  ExecStats stats = cursor->stats();
  cursor.reset();  // Session fully released before the quota returns.
  quotas_.Release(conn->tenant);
  if (!drain_error.ok()) return ErrorFrame(drain_error, id);

  JsonValue frame = OkFrame(id);
  frame.Set("columns", ColumnsToJson(columns));
  frame.Set("rows", RowsToJson(rows));
  frame.Set("row_count", JsonValue::Uint(rows.size()));
  frame.Set("stats", StatsToJson(stats));
  return frame;
}

JsonValue QueryServer::HandleMetrics(Connection* conn, const JsonValue& req) {
  (void)conn;
  JsonValue frame = OkFrame(req.Find("id"));
  frame.Set("metrics", JsonValue::Raw(MetricsRegistry::Global().ExportJson()));
  return frame;
}

}  // namespace queryer
