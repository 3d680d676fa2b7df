// queryer_cli: interactive REPL client for a running queryer_server.
//
//   queryer_cli --port=7487 [--host=127.0.0.1] [--tenant=cli]
//
// Plain SQL lines run as a streaming cursor and print the first page;
// \next pages on. Commands:
//
//   SELECT ...          open a cursor, print the first page
//   \next [n]           fetch the next page of the open cursor
//   \cancel             cancel the open cursor (next \next reports it)
//   \close              close the open cursor
//   \exec SELECT ...    one-shot EXECUTE, prints rows and comparisons
//   \page n             set the page size (default 20)
//   \metrics            server metrics (raw JSON)
//   \help, \q
//
// Exits non-zero when the connection drops. See docs/SERVER.md.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "server/client.h"

namespace {

void PrintRows(const std::vector<std::string>& columns,
               const std::vector<std::vector<std::string>>& rows) {
  if (!columns.empty()) {
    for (std::size_t i = 0; i < columns.size(); ++i) {
      std::printf(i == 0 ? "%s" : " | %s", columns[i].c_str());
    }
    std::printf("\n");
  }
  for (const auto& row : rows) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      std::printf(i == 0 ? "%s" : " | %s", row[i].c_str());
    }
    std::printf("\n");
  }
}

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    *out = arg + len + 1;
    return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  using queryer::Client;

  std::string host = "127.0.0.1";
  std::string tenant = "cli";
  int port = 7487;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (ParseFlag(argv[i], "--host", &value)) {
      host = value;
    } else if (ParseFlag(argv[i], "--port", &value)) {
      port = std::atoi(value.c_str());
    } else if (ParseFlag(argv[i], "--tenant", &value)) {
      tenant = value;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--host=ADDR] [--port=N] [--tenant=ID]\n",
                   argv[0]);
      return 2;
    }
  }

  auto connected = Client::Connect(host, static_cast<std::uint16_t>(port),
                                   tenant);
  if (!connected.ok()) {
    std::fprintf(stderr, "connect: %s\n",
                 connected.status().ToString().c_str());
    return 1;
  }
  Client client = std::move(connected).MoveValueUnsafe();
  std::fprintf(stderr, "connected to %s:%d as tenant \"%s\"; \\help for help\n",
               host.c_str(), port, tenant.c_str());

  std::size_t page_size = 20;
  bool cursor_open = false;
  std::uint64_t cursor = 0;
  std::vector<std::string> cursor_columns;

  auto fetch_page = [&](std::size_t n) {
    auto page = client.Next(cursor, n);
    if (!page.ok()) {
      std::fprintf(stderr, "error: %s\n", page.status().ToString().c_str());
      cursor_open = false;  // The server released the cursor with the error.
      return;
    }
    PrintRows(cursor_columns, page->rows);
    if (page->done) {
      std::printf("-- end of stream\n");
      cursor_open = false;
    } else {
      std::printf("-- more rows; \\next for the next %zu\n", n);
    }
  };

  char linebuf[1 << 16];
  for (;;) {
    std::fprintf(stderr, "queryer> ");
    std::fflush(stderr);
    if (std::fgets(linebuf, sizeof(linebuf), stdin) == nullptr) break;
    std::string line(linebuf);
    while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
      line.pop_back();
    }
    std::size_t start = line.find_first_not_of(" \t");
    if (start == std::string::npos) continue;
    line = line.substr(start);

    if (line == "\\q" || line == "\\quit" || line == "exit") break;
    if (line == "\\help") {
      std::printf(
          "SELECT ...   open a cursor, print the first page\n"
          "\\next [n]    next page    \\cancel  cancel    \\close  close\n"
          "\\exec SQL    one-shot EXECUTE (rows + comparisons)\n"
          "\\page n      page size    \\metrics server metrics    \\q  quit\n");
      continue;
    }
    if (line == "\\metrics") {
      auto metrics = client.Metrics();
      if (!metrics.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     metrics.status().ToString().c_str());
        if (!client.connected()) return 1;
        continue;
      }
      std::printf("%s\n", metrics->c_str());
      continue;
    }
    if (line.rfind("\\page", 0) == 0) {
      std::size_t n = std::strtoull(line.c_str() + 5, nullptr, 10);
      if (n > 0) page_size = n;
      std::printf("page size %zu\n", page_size);
      continue;
    }
    if (line.rfind("\\next", 0) == 0) {
      if (!cursor_open) {
        std::fprintf(stderr, "no open cursor\n");
        continue;
      }
      std::size_t n = std::strtoull(line.c_str() + 5, nullptr, 10);
      fetch_page(n > 0 ? n : page_size);
      continue;
    }
    if (line == "\\cancel") {
      if (!cursor_open) {
        std::fprintf(stderr, "no open cursor\n");
        continue;
      }
      auto st = client.Cancel(cursor);
      std::printf("%s\n", st.ok() ? "cancelled (next \\next reports it)"
                                  : st.ToString().c_str());
      continue;
    }
    if (line == "\\close") {
      if (!cursor_open) {
        std::fprintf(stderr, "no open cursor\n");
        continue;
      }
      auto st = client.Close(cursor);
      cursor_open = false;
      std::printf("%s\n", st.ok() ? "closed" : st.ToString().c_str());
      continue;
    }
    if (line.rfind("\\exec ", 0) == 0) {
      auto result = client.Execute(line.substr(6));
      if (!result.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     result.status().ToString().c_str());
        if (!client.connected()) return 1;
        continue;
      }
      PrintRows(result->columns, result->rows);
      std::printf("-- %zu rows (%llu comparisons)\n", result->rows.size(),
                  static_cast<unsigned long long>(
                      result->comparisons_executed));
      continue;
    }
    if (line[0] == '\\') {
      std::fprintf(stderr, "unknown command %s; \\help for help\n",
                   line.c_str());
      continue;
    }

    // Plain SQL: stream it.
    if (cursor_open) {
      (void)client.Close(cursor);
      cursor_open = false;
    }
    auto open = client.Open(line);
    if (!open.ok()) {
      std::fprintf(stderr, "error: %s\n", open.status().ToString().c_str());
      if (!client.connected()) return 1;
      continue;
    }
    cursor = open->cursor;
    cursor_columns = open->columns;
    cursor_open = true;
    fetch_page(page_size);
  }
  return 0;
}
