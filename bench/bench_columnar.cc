// Columnar storage microbench: what the dictionary-encoded column layout
// buys at each level of the stack.
//
// Three groups of datapoints over the OAGP table:
//  - storage:  TableBuilder ingest rate, raw ValueAt sweeps (string_view
//    materialization) and code-only column sweeps (the compare-by-code
//    currency of filters and joins).
//  - queries:  end-to-end SELECTs through the engine — full scan, the
//    truth-table filter ladder, and the equi-join (join rows are entity
//    references until the emit boundary materializes them).
//
// Each measurement runs `kReps` times and reports the best. Honors the
// shared bench flags: --threads=N and --batch-size=N (0 = engine default).

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "storage/table.h"

namespace {

constexpr int kReps = 5;

using queryer::bench::CsvLine;
using queryer::bench::JsonLine;

// Best-of-kReps wall time of `fn`, which returns a size_t checksum-ish
// value (kept to defeat dead-code elimination and sanity-check runs).
template <typename Fn>
double BestSeconds(Fn&& fn, std::size_t* out_value) {
  double best = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    queryer::Stopwatch watch;
    *out_value = fn();
    const double seconds = watch.ElapsedSeconds();
    if (rep == 0 || seconds < best) best = seconds;
  }
  return best;
}

void Report(const char* name, std::size_t units, std::size_t out_value,
            double seconds, const char* unit_label) {
  const double per_sec = seconds > 0 ? static_cast<double>(units) / seconds : 0;
  std::printf("%-16s %12zu %12zu %12s %14.0f %s\n", name, units, out_value,
              queryer::FormatDouble(seconds, 4).c_str(), per_sec, unit_label);
  CsvLine("columnar", {name, std::to_string(units), std::to_string(out_value),
                       queryer::FormatDouble(seconds, 5),
                       queryer::FormatDouble(per_sec, 0)});
  JsonLine("columnar", {{"case", name},
                        {"units", std::to_string(units)},
                        {"out", std::to_string(out_value)},
                        {"seconds", queryer::FormatDouble(seconds, 5)},
                        {"per_sec", queryer::FormatDouble(per_sec, 0)}});
}

}  // namespace

int main(int argc, char** argv) {
  using namespace queryer::bench;
  InitBenchArgs(&argc, argv);
  Banner("Columnar storage: dictionary encoding and late materialization");

  auto oagp = Oagp(Scaled(kSize1M));
  auto oagv = Oagv(Scaled(kOagvRows));
  const queryer::Table& table = *oagp.table;
  const std::size_t rows = table.num_rows();
  const std::size_t width = table.num_attributes();

  std::printf("%-16s %12s %12s %12s %14s\n", "case", "units", "out", "seconds",
              "per_sec");

  // -- Storage layer ------------------------------------------------------

  // Ingest: re-encode every row through fresh per-column dictionaries.
  {
    std::size_t built = 0;
    const double seconds = BestSeconds(
        [&]() {
          queryer::TableBuilder builder("copy", table.schema());
          builder.Reserve(rows);
          std::vector<std::string> row(width);
          for (queryer::EntityId e = 0; e < rows; ++e) {
            for (std::size_t a = 0; a < width; ++a) {
              row[a].assign(table.ValueAt(e, a));
            }
            if (!builder.AddRow(row).ok()) return std::size_t{0};
          }
          return builder.Build()->num_rows();
        },
        &built);
    Report("build", rows, built, seconds, "rows/s");
  }

  // Full-table ValueAt sweep: every cell materialized as a string_view.
  {
    std::size_t bytes = 0;
    const double seconds = BestSeconds(
        [&]() {
          std::size_t total = 0;
          for (std::size_t col = 0; col < width; ++col) {
            const queryer::ColumnView view = table.column(col);
            for (queryer::EntityId e = 0; e < rows; ++e) {
              total += view.value(e).size();
            }
          }
          return total;
        },
        &bytes);
    Report("value_sweep", rows * width, bytes, seconds, "cells/s");
  }

  // Code-only sweep of the same cells: the filter/join comparison currency.
  {
    std::size_t checksum = 0;
    const double seconds = BestSeconds(
        [&]() {
          std::size_t total = 0;
          for (std::size_t col = 0; col < width; ++col) {
            for (const queryer::DictCode code : table.column(col).codes()) {
              total += code;
            }
          }
          return total;
        },
        &checksum);
    Report("code_sweep", rows * width, checksum, seconds, "cells/s");
  }

  // -- Engine queries ----------------------------------------------------

  queryer::EngineOptions options;
  options.num_threads = Threads();
  if (BatchSize() != 0) options.batch_size = BatchSize();
  const std::size_t effective_batch = options.batch_size;

  struct QuerySpec {
    const char* name;
    std::string sql;
  };
  const std::vector<QuerySpec> queries = {
      {"scan_rows", "SELECT * FROM oagp"},
      {"filter5", "SELECT * FROM oagp WHERE MOD(id, 100) < 5"},
      {"filter50", "SELECT * FROM oagp WHERE MOD(id, 100) < 50"},
      {"join", "SELECT * FROM oagp INNER JOIN oagv ON oagp.venue = oagv.title"},
  };
  for (const QuerySpec& query : queries) {
    queryer::QueryEngine engine(options);
    for (const auto& t : {oagp.table, oagv.table}) {
      queryer::Status status = engine.RegisterTable(t);
      if (!status.ok()) {
        std::fprintf(stderr, "RegisterTable failed: %s\n",
                     status.ToString().c_str());
        return 1;
      }
    }
    std::size_t rows_out = 0;
    const double seconds = BestSeconds(
        [&]() { return MustExecute(&engine, query.sql).num_rows(); },
        &rows_out);
    Report(query.name, rows, rows_out, seconds, "rows/s");
  }

  std::printf("(batch_size=%zu threads=%zu rows=%zu width=%zu)\n",
              effective_batch, Threads(), rows, width);
  return 0;
}
