// Multi-tenant server throughput bench: hundreds of concurrent paginating
// wire clients against one in-process QueryServer.
//
// Each client loops until the deadline: OPEN a selective scan, page it to
// the end with NEXT, and every 8th operation issue a one-shot EXECUTE of
// the same hot DEDUP statement. Every EXECUTE is a full engine session;
// once the first ones have resolved its entities, the Link Index answers
// the rest with 0 comparisons. Per-operation wall latency is recorded
// client-side; the report is sustained QPS plus p50/p95/p99, and the run
// FAILS (exit 1) if any client saw a protocol error — shedding, dropped
// frames or malformed responses all count.
//
//   bench_server_qps [--clients=N] [--duration=S] [--threads=N]
//
// Defaults: 200 clients, 10 seconds. The engine is configured with one
// admission slot per client: this bench measures the wire layer and
// concurrent engine sessions, not admission shedding.
//
// Output: human table + "CSV,server_qps,..." + JSON lines.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "server/client.h"
#include "server/query_server.h"

namespace {

struct WorkerStats {
  std::uint64_t queries = 0;
  std::uint64_t pages = 0;
  std::uint64_t rows = 0;
  std::uint64_t protocol_errors = 0;
  std::vector<double> latencies;
};

constexpr char kScanSql[] =
    "SELECT id, title FROM dsd WHERE MOD(id, 100) < 5";
constexpr char kHotDedupSql[] =
    "SELECT DEDUP title, venue FROM dsd WHERE MOD(id, 100) < 10";
constexpr std::size_t kPageRows = 64;

void Worker(int id, std::uint16_t port, const std::atomic<bool>& stop,
            WorkerStats* out) {
  // Eight tenant ids spread across the fleet: multi-tenant bookkeeping is
  // on the hot path without any tenant ever hitting a quota (quotas are
  // unlimited here; shedding is not this bench's subject).
  auto connected = queryer::Client::Connect(
      "127.0.0.1", port, "bench-tenant-" + std::to_string(id % 8));
  if (!connected.ok()) {
    out->protocol_errors++;
    return;
  }
  queryer::Client client = std::move(connected).MoveValueUnsafe();

  std::uint64_t op = 0;
  while (!stop.load(std::memory_order_relaxed)) {
    queryer::Stopwatch watch;
    if (op % 8 == 7) {
      auto result = client.Execute(kHotDedupSql);
      if (!result.ok()) {
        out->protocol_errors++;
        break;
      }
      out->rows += result->rows.size();
    } else {
      auto open = client.Open(kScanSql);
      if (!open.ok()) {
        out->protocol_errors++;
        break;
      }
      bool done = false;
      while (!done) {
        auto page = client.Next(open->cursor, kPageRows);
        if (!page.ok()) {
          out->protocol_errors++;
          return;
        }
        out->rows += page->rows.size();
        out->pages++;
        done = page->done;  // The final page releases the cursor server-side.
      }
    }
    out->latencies.push_back(watch.ElapsedSeconds());
    out->queries++;
    op++;
  }
}

double PercentileMs(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  std::size_t idx = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)] * 1000.0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace queryer::bench;
  InitBenchArgs(&argc, argv);

  std::size_t clients = 200;
  double duration = 10.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--clients=", 10) == 0) {
      clients = std::strtoull(argv[i] + 10, nullptr, 10);
    } else if (std::strncmp(argv[i], "--duration=", 11) == 0) {
      duration = std::atof(argv[i] + 11);
    } else {
      std::fprintf(stderr, "usage: %s [--clients=N] [--duration=S]\n",
                   argv[0]);
      return 2;
    }
  }
  if (clients == 0) clients = 1;

  Banner("Server QPS: " + std::to_string(clients) +
         " concurrent paginating wire clients");

  auto dsd = Dsd(Scaled(kDsdRows));
  queryer::EngineOptions engine_options;
  engine_options.num_threads = Threads();
  // One admission slot per client: every paginating cursor can be in
  // flight at once, so the wire layer and the sessions are what is measured.
  engine_options.max_concurrent_queries = clients;
  engine_options.admission_timeout = 60;
  queryer::QueryEngine engine(engine_options);
  {
    queryer::Status status = engine.RegisterTable(dsd.table);
    if (!status.ok()) {
      std::fprintf(stderr, "RegisterTable: %s\n", status.ToString().c_str());
      return 1;
    }
  }

  queryer::ServerOptions server_options;
  server_options.port = 0;  // Ephemeral.
  server_options.max_connections = clients + 8;
  queryer::QueryServer server(&engine, server_options);
  {
    queryer::Status status = server.Start();
    if (!status.ok()) {
      std::fprintf(stderr, "Start: %s\n", status.ToString().c_str());
      return 1;
    }
  }

  std::atomic<bool> stop{false};
  std::vector<WorkerStats> stats(clients);
  std::vector<std::thread> workers;
  workers.reserve(clients);
  queryer::Stopwatch wall;
  for (std::size_t i = 0; i < clients; ++i) {
    workers.emplace_back(Worker, static_cast<int>(i), server.port(),
                         std::cref(stop), &stats[i]);
  }
  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<int>(duration * 1000)));
  stop.store(true);
  for (std::thread& worker : workers) worker.join();
  const double elapsed = wall.ElapsedSeconds();
  server.Stop();

  std::uint64_t queries = 0, pages = 0, rows = 0, errors = 0;
  std::vector<double> latencies;
  for (const WorkerStats& ws : stats) {
    queries += ws.queries;
    pages += ws.pages;
    rows += ws.rows;
    errors += ws.protocol_errors;
    latencies.insert(latencies.end(), ws.latencies.begin(),
                     ws.latencies.end());
  }
  std::sort(latencies.begin(), latencies.end());

  const double qps = elapsed > 0 ? static_cast<double>(queries) / elapsed : 0;
  const double p50 = PercentileMs(latencies, 0.50);
  const double p95 = PercentileMs(latencies, 0.95);
  const double p99 = PercentileMs(latencies, 0.99);

  std::printf("%-8s %10s %10s %10s %10s %10s %8s\n", "clients", "queries",
              "qps", "p50(ms)", "p95(ms)", "p99(ms)", "errors");
  std::printf("%-8zu %10llu %10s %10s %10s %10s %8llu\n", clients,
              static_cast<unsigned long long>(queries),
              queryer::FormatDouble(qps, 1).c_str(),
              queryer::FormatDouble(p50, 2).c_str(),
              queryer::FormatDouble(p95, 2).c_str(),
              queryer::FormatDouble(p99, 2).c_str(),
              static_cast<unsigned long long>(errors));
  std::printf("(%llu pages, %llu rows over the wire in %s s)\n",
              static_cast<unsigned long long>(pages),
              static_cast<unsigned long long>(rows),
              queryer::FormatDouble(elapsed, 2).c_str());

  CsvLine("server_qps",
          {std::to_string(clients), queryer::FormatDouble(elapsed, 3),
           std::to_string(queries), queryer::FormatDouble(qps, 2),
           queryer::FormatDouble(p50, 3), queryer::FormatDouble(p95, 3),
           queryer::FormatDouble(p99, 3), std::to_string(errors)});
  JsonLine("server_qps",
           {{"clients", std::to_string(clients)},
            {"duration_seconds", queryer::FormatDouble(elapsed, 3)},
            {"queries", std::to_string(queries)},
            {"qps", queryer::FormatDouble(qps, 2)},
            {"p50_ms", queryer::FormatDouble(p50, 3)},
            {"p95_ms", queryer::FormatDouble(p95, 3)},
            {"p99_ms", queryer::FormatDouble(p99, 3)},
            {"pages", std::to_string(pages)},
            {"rows", std::to_string(rows)},
            {"protocol_errors", std::to_string(errors)}});

  if (errors != 0) {
    std::fprintf(stderr, "PROTOCOL ERRORS: %llu (want 0)\n",
                 static_cast<unsigned long long>(errors));
    return 1;
  }
  return 0;
}
