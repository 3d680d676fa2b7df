#include "server/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace queryer {

StatusCode StatusCodeFromString(std::string_view name) {
  static constexpr StatusCode kCodes[] = {
      StatusCode::kOk,             StatusCode::kInvalidArgument,
      StatusCode::kNotFound,       StatusCode::kAlreadyExists,
      StatusCode::kOutOfRange,     StatusCode::kIoError,
      StatusCode::kParseError,     StatusCode::kPlanError,
      StatusCode::kExecutionError, StatusCode::kInternal,
      StatusCode::kNotImplemented, StatusCode::kCancelled,
      StatusCode::kDeadlineExceeded, StatusCode::kResourceExhausted,
      StatusCode::kCorruption,
  };
  for (StatusCode code : kCodes) {
    if (StatusCodeToString(code) == name) return code;
  }
  return StatusCode::kInternal;
}

Result<Client> Client::Connect(const std::string& host, std::uint16_t port,
                               const std::string& tenant) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad address: " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status st = Status::IoError("connect " + host + ":" +
                                std::to_string(port) + ": " +
                                std::strerror(errno));
    ::close(fd);
    return st;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  Client client;
  client.fd_ = fd;
  client.tenant_ = tenant;

  JsonValue hello;
  hello.Set("op", JsonValue::Str("HELLO"));
  hello.Set("tenant", JsonValue::Str(tenant));
  auto response = client.Call(hello);
  if (!response.ok()) return response.status();
  return client;
}

Client::Client(Client&& other) noexcept
    : fd_(other.fd_),
      tenant_(std::move(other.tenant_)),
      inbuf_(std::move(other.inbuf_)) {
  other.fd_ = -1;
}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    Disconnect();
    fd_ = other.fd_;
    tenant_ = std::move(other.tenant_);
    inbuf_ = std::move(other.inbuf_);
    other.fd_ = -1;
  }
  return *this;
}

Client::~Client() { Disconnect(); }

void Client::Disconnect() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  inbuf_.clear();
}

Status Client::WriteFrame(const JsonValue& frame) {
  if (fd_ < 0) return Status::IoError("not connected");
  std::string line;
  frame.DumpTo(&line);
  line += '\n';
  std::size_t off = 0;
  while (off < line.size()) {
    ssize_t n = ::send(fd_, line.data() + off, line.size() - off,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("send: ") + std::strerror(errno));
    }
    if (n == 0) return Status::IoError("connection closed mid-write");
    off += static_cast<std::size_t>(n);
  }
  return Status::OK();
}

Result<JsonValue> Client::ReadFrame() {
  if (fd_ < 0) return Status::IoError("not connected");
  char chunk[64 * 1024];
  for (;;) {
    std::size_t nl = inbuf_.find('\n');
    if (nl != std::string::npos) {
      std::string line = inbuf_.substr(0, nl);
      inbuf_.erase(0, nl + 1);
      return JsonValue::Parse(line);
    }
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("recv: ") + std::strerror(errno));
    }
    if (n == 0) {
      return Status::IoError("connection closed by server");
    }
    inbuf_.append(chunk, static_cast<std::size_t>(n));
  }
}

Result<JsonValue> Client::Call(const JsonValue& request) {
  QUERYER_RETURN_NOT_OK(WriteFrame(request));
  QUERYER_ASSIGN_OR_RETURN(JsonValue response, ReadFrame());
  const JsonValue* ok = response.Find("ok");
  if (ok != nullptr && ok->is_bool() && ok->bool_value()) return response;

  // Error frame: map the wire code back onto the Status taxonomy.
  const JsonValue* error = response.Find("error");
  if (error != nullptr) {
    const JsonValue* code = error->Find("code");
    const JsonValue* message = error->Find("message");
    return Status(
        StatusCodeFromString(code != nullptr ? code->string_value() : ""),
        message != nullptr ? message->string_value() : "server error");
  }
  return Status::Internal("malformed response frame: " + response.Dump());
}

Result<std::uint64_t> Client::Prepare(const std::string& sql) {
  JsonValue req;
  req.Set("op", JsonValue::Str("PREPARE"));
  req.Set("sql", JsonValue::Str(sql));
  QUERYER_ASSIGN_OR_RETURN(JsonValue response, Call(req));
  const JsonValue* stmt = response.Find("stmt");
  if (stmt == nullptr || !stmt->is_number()) {
    return Status::Internal("PREPARE response missing stmt");
  }
  return static_cast<std::uint64_t>(stmt->number_value());
}

Result<Client::OpenInfo> Client::ParseOpenInfo(const JsonValue& frame) {
  const JsonValue* cursor = frame.Find("cursor");
  if (cursor == nullptr || !cursor->is_number()) {
    return Status::Internal("OPEN response missing cursor");
  }
  OpenInfo info;
  info.cursor = static_cast<std::uint64_t>(cursor->number_value());
  const JsonValue* columns = frame.Find("columns");
  if (columns != nullptr && columns->is_array()) {
    for (const JsonValue& c : columns->array()) {
      info.columns.push_back(c.string_value());
    }
  }
  return info;
}

Result<Client::OpenInfo> Client::Open(const std::string& sql) {
  JsonValue req;
  req.Set("op", JsonValue::Str("OPEN"));
  req.Set("sql", JsonValue::Str(sql));
  QUERYER_ASSIGN_OR_RETURN(JsonValue response, Call(req));
  return ParseOpenInfo(response);
}

Result<Client::OpenInfo> Client::OpenPrepared(std::uint64_t stmt) {
  JsonValue req;
  req.Set("op", JsonValue::Str("OPEN"));
  req.Set("stmt", JsonValue::Uint(stmt));
  QUERYER_ASSIGN_OR_RETURN(JsonValue response, Call(req));
  return ParseOpenInfo(response);
}

Result<Client::Page> Client::Next(std::uint64_t cursor, std::size_t n) {
  JsonValue req;
  req.Set("op", JsonValue::Str("NEXT"));
  req.Set("cursor", JsonValue::Uint(cursor));
  if (n > 0) req.Set("n", JsonValue::Uint(n));
  QUERYER_ASSIGN_OR_RETURN(JsonValue response, Call(req));
  Page page;
  const JsonValue* rows = response.Find("rows");
  if (rows != nullptr && rows->is_array()) {
    page.rows.reserve(rows->array().size());
    for (const JsonValue& row : rows->array()) {
      std::vector<std::string> cells;
      if (row.is_array()) {
        cells.reserve(row.array().size());
        for (const JsonValue& cell : row.array()) {
          cells.push_back(cell.string_value());
        }
      }
      page.rows.push_back(std::move(cells));
    }
  }
  const JsonValue* done = response.Find("done");
  page.done = done != nullptr && done->bool_value();
  return page;
}

Status Client::Cancel(std::uint64_t cursor) {
  JsonValue req;
  req.Set("op", JsonValue::Str("CANCEL"));
  req.Set("cursor", JsonValue::Uint(cursor));
  return Call(req).status();
}

Status Client::Close(std::uint64_t cursor) {
  JsonValue req;
  req.Set("op", JsonValue::Str("CLOSE"));
  req.Set("cursor", JsonValue::Uint(cursor));
  return Call(req).status();
}

Result<Client::ExecuteInfo> Client::Execute(const std::string& sql) {
  JsonValue req;
  req.Set("op", JsonValue::Str("EXECUTE"));
  req.Set("sql", JsonValue::Str(sql));
  QUERYER_ASSIGN_OR_RETURN(JsonValue response, Call(req));
  ExecuteInfo info;
  const JsonValue* columns = response.Find("columns");
  if (columns != nullptr && columns->is_array()) {
    for (const JsonValue& c : columns->array()) {
      info.columns.push_back(c.string_value());
    }
  }
  const JsonValue* rows = response.Find("rows");
  if (rows != nullptr && rows->is_array()) {
    info.rows.reserve(rows->array().size());
    for (const JsonValue& row : rows->array()) {
      std::vector<std::string> cells;
      if (row.is_array()) {
        for (const JsonValue& cell : row.array()) {
          cells.push_back(cell.string_value());
        }
      }
      info.rows.push_back(std::move(cells));
    }
  }
  const JsonValue* stats = response.Find("stats");
  if (stats != nullptr) {
    const JsonValue* comparisons = stats->Find("comparisons_executed");
    if (comparisons != nullptr && comparisons->is_number()) {
      info.comparisons_executed =
          static_cast<std::uint64_t>(comparisons->number_value());
    }
  }
  return info;
}

Result<std::string> Client::Metrics() {
  JsonValue req;
  req.Set("op", JsonValue::Str("METRICS"));
  QUERYER_ASSIGN_OR_RETURN(JsonValue response, Call(req));
  const JsonValue* metrics = response.Find("metrics");
  if (metrics == nullptr) {
    return Status::Internal("METRICS response missing metrics");
  }
  return metrics->Dump();
}

}  // namespace queryer
