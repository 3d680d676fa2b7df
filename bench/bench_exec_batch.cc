// Execution-pipeline microbench: raw rows/sec of the relational operators
// (scan, filter at several selectivities, scan+project, hash join) over the
// OAGP/OAGV tables, without any ER work — this is the interpretation
// overhead the batch execution engine attacks.
//
// Queries are plain (non-DEDUP) SELECTs, so the measured time is pure
// pipeline cost: TableScan -> Filter -> Project / HashJoin -> materialize.
// Each query runs `kReps` times and the best run is reported (rows/sec =
// input rows of the scan side / seconds).
//
// Honors the shared bench flags: --threads=N (EngineOptions::num_threads;
// it sizes comparison execution only, so these plain queries run the same
// sequential operators at every value) and --batch-size=N (RowBatch
// capacity; 0 = engine default).

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "common/string_util.h"

namespace {

constexpr int kReps = 5;

struct QuerySpec {
  const char* name;
  std::string sql;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace queryer::bench;
  InitBenchArgs(&argc, argv);
  Banner("Execution pipeline: batch scan/filter/join throughput");

  const std::size_t paper_rows = Scaled(kSize1M);
  auto oagp = Oagp(paper_rows);
  auto oagv = Oagv(Scaled(kOagvRows));
  const std::size_t scan_rows = oagp.table->num_rows();

  queryer::EngineOptions options;
  options.num_threads = Threads();
  if (BatchSize() != 0) options.batch_size = BatchSize();
  const std::size_t effective_batch = options.batch_size;
  queryer::QueryEngine engine(options);
  for (const auto& table : {oagp.table, oagv.table}) {
    queryer::Status status = engine.RegisterTable(table);
    if (!status.ok()) {
      std::fprintf(stderr, "RegisterTable failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
  }

  const std::vector<QuerySpec> queries = {
      {"scan", "SELECT * FROM oagp"},
      {"filter5", "SELECT * FROM oagp WHERE MOD(id, 100) < 5"},
      {"filter50", "SELECT * FROM oagp WHERE MOD(id, 100) < 50"},
      {"project5", "SELECT title, venue FROM oagp WHERE MOD(id, 100) < 5"},
      {"join", "SELECT * FROM oagp INNER JOIN oagv ON oagp.venue = "
               "oagv.title"},
  };

  std::printf("%-10s %10s %10s %12s %14s\n", "query", "rows_in", "rows_out",
              "seconds", "rows/sec");
  for (const QuerySpec& query : queries) {
    double best_seconds = 0;
    std::size_t rows_out = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      queryer::Stopwatch watch;
      queryer::QueryResult result = MustExecute(&engine, query.sql);
      double seconds = watch.ElapsedSeconds();
      if (rep == 0 || seconds < best_seconds) best_seconds = seconds;
      rows_out = result.rows.size();
    }
    double rows_per_sec =
        best_seconds > 0 ? static_cast<double>(scan_rows) / best_seconds : 0;
    std::printf("%-10s %10zu %10zu %12s %14.0f\n", query.name, scan_rows,
                rows_out, queryer::FormatDouble(best_seconds, 4).c_str(),
                rows_per_sec);
    CsvLine("exec_batch",
            {query.name, std::to_string(scan_rows), std::to_string(rows_out),
             queryer::FormatDouble(best_seconds, 5),
             queryer::FormatDouble(rows_per_sec, 0)});
    JsonLine("exec_batch",
             {{"query", query.name},
              {"batch_size", std::to_string(effective_batch)},
              {"rows_in", std::to_string(scan_rows)},
              {"rows_out", std::to_string(rows_out)},
              {"seconds", queryer::FormatDouble(best_seconds, 5)},
              {"rows_per_sec", queryer::FormatDouble(rows_per_sec, 0)}});
  }
  return 0;
}
