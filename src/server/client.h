// Client: a blocking C++ client for the QueryServer wire protocol.
//
//   QUERYER_ASSIGN_OR_RETURN(Client client,
//                            Client::Connect("127.0.0.1", port, "tenant-a"));
//   QUERYER_ASSIGN_OR_RETURN(auto open, client.Open("SELECT DEDUP ..."));
//   while (true) {
//     QUERYER_ASSIGN_OR_RETURN(auto page, client.Next(open.cursor, 512));
//     ...use page.rows...
//     if (page.done) break;
//   }
//
// One request in flight at a time (the protocol answers in order, the
// client reads one response per call); use one Client per thread. Server
// error frames come back as the engine's own Status taxonomy — the wire
// code string is mapped back to the StatusCode it came from, so
// status.IsResourceExhausted() means the same thing on both sides of the
// socket. bench_server_qps and tools/queryer_cli are both built on this.

#ifndef QUERYER_SERVER_CLIENT_H_
#define QUERYER_SERVER_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "server/json.h"

namespace queryer {

/// \brief Maps a wire error-code string (StatusCodeToString output) back
/// to its StatusCode; kInternal for anything unrecognized.
StatusCode StatusCodeFromString(std::string_view name);

/// \brief One protocol connection. Move-only; disconnects on destruction.
class Client {
 public:
  /// Connects and authenticates (HELLO) as `tenant`.
  static Result<Client> Connect(const std::string& host, std::uint16_t port,
                                const std::string& tenant);

  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  ~Client();

  /// Sends one frame and reads its response. The returned object is the
  /// whole response frame (already vetted: "ok" true). An error frame
  /// comes back as its mapped Status instead.
  Result<JsonValue> Call(const JsonValue& request);

  // -- Typed wrappers over Call -------------------------------------------

  /// PREPARE -> statement handle.
  Result<std::uint64_t> Prepare(const std::string& sql);

  struct OpenInfo {
    std::uint64_t cursor = 0;
    std::vector<std::string> columns;
  };
  /// OPEN with inline SQL / a prepared handle.
  Result<OpenInfo> Open(const std::string& sql);
  Result<OpenInfo> OpenPrepared(std::uint64_t stmt);

  struct Page {
    std::vector<std::vector<std::string>> rows;
    bool done = false;
  };
  /// NEXT: up to `n` rows (0 = server default). done=true means the cursor
  /// is finished and already released server-side — no CLOSE needed.
  Result<Page> Next(std::uint64_t cursor, std::size_t n = 0);

  Status Cancel(std::uint64_t cursor);
  Status Close(std::uint64_t cursor);

  struct ExecuteInfo {
    std::vector<std::string> columns;
    std::vector<std::vector<std::string>> rows;
    /// comparisons_executed from the response stats (0 when the Link Index
    /// already held every involved entity's links).
    std::uint64_t comparisons_executed = 0;
  };
  /// EXECUTE: one-shot materialized answer.
  Result<ExecuteInfo> Execute(const std::string& sql);

  /// METRICS: the server's metrics registry as raw JSON text.
  Result<std::string> Metrics();

  const std::string& tenant() const { return tenant_; }
  bool connected() const { return fd_ >= 0; }
  void Disconnect();

 private:
  Client() = default;

  Status WriteFrame(const JsonValue& frame);
  /// Reads one newline-terminated frame (blocking).
  Result<JsonValue> ReadFrame();
  static Result<Client::OpenInfo> ParseOpenInfo(const JsonValue& frame);

  int fd_ = -1;
  std::string tenant_;
  std::string inbuf_;
};

}  // namespace queryer

#endif  // QUERYER_SERVER_CLIENT_H_
