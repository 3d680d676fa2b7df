#include "bench_util.h"

#include <cstdlib>
#include <cstring>

#include "obs/metrics.h"

namespace queryer::bench {

namespace {

// 1 = sequential, matching EngineOptions::num_threads's default; SIZE_MAX
// marks "not set yet" so the env variable is read once on first use.
std::size_t g_threads = SIZE_MAX;

// Set by --trace-out: every MakeEngine engine records into this sink, and
// its destructor (static destruction at process exit) writes the JSON file.
std::shared_ptr<TraceSink> g_trace_sink;

// Set by --metrics-out: the registered atexit hook dumps the registry here.
std::string g_metrics_out;

void WriteMetricsAtExit() {
  std::FILE* out = std::fopen(g_metrics_out.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write metrics to %s\n", g_metrics_out.c_str());
    return;
  }
  std::string json = MetricsRegistry::Global().ExportJson();
  std::fwrite(json.data(), 1, json.size(), out);
  std::fputc('\n', out);
  std::fclose(out);
}

}  // namespace

std::size_t Threads() {
  if (g_threads == SIZE_MAX) {
    const char* env = std::getenv("QUERYER_BENCH_THREADS");
    std::size_t threads = 1;
    if (env != nullptr) {
      threads = static_cast<std::size_t>(std::strtoull(env, nullptr, 10));
    }
    // Resolve 0 (= hardware concurrency) eagerly so CSV/JSON lines always
    // report the actual worker count, matching the --threads flag path.
    g_threads = threads == 0 ? ThreadPool::HardwareConcurrency() : threads;
  }
  return g_threads;
}

void InitBenchArgs(int* argc, char** argv) {
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      const char* value = argv[i] + 10;
      char* end = nullptr;
      std::size_t threads =
          static_cast<std::size_t>(std::strtoull(value, &end, 10));
      if (end == value || *end != '\0') {
        std::fprintf(stderr, "invalid --threads value: '%s' (want a number)\n",
                     value);
        std::exit(2);
      }
      // Resolve 0 (= hardware concurrency, as in EngineOptions) right here
      // so every CSV/JSON line reports the actual worker count.
      g_threads = threads == 0 ? ThreadPool::HardwareConcurrency() : threads;
    } else if (std::strncmp(argv[i], "--trace-out=", 12) == 0) {
      const char* value = argv[i] + 12;
      if (*value == '\0') {
        std::fprintf(stderr, "empty --trace-out value (want a file path)\n");
        std::exit(2);
      }
      g_trace_sink = std::make_shared<TraceSink>(std::string(value));
    } else if (std::strncmp(argv[i], "--metrics-out=", 14) == 0) {
      const char* value = argv[i] + 14;
      if (*value == '\0') {
        std::fprintf(stderr, "empty --metrics-out value (want a file path)\n");
        std::exit(2);
      }
      g_metrics_out = value;
      std::atexit(WriteMetricsAtExit);
    } else {
      argv[out++] = argv[i];
    }
  }
  // Re-terminate: downstream parsers may walk argv to its NULL sentinel.
  argv[out] = nullptr;
  *argc = out;
}

double Scale() {
  static const double scale = [] {
    const char* env = std::getenv("QUERYER_BENCH_SCALE");
    if (env == nullptr) return 1.0;
    double value = std::strtod(env, nullptr);
    return value > 0 ? value : 1.0;
  }();
  return scale;
}

std::size_t Scaled(std::size_t base) {
  auto scaled = static_cast<std::size_t>(static_cast<double>(base) * Scale());
  return scaled < 100 ? 100 : scaled;
}

const std::vector<datagen::VenueUniverseEntry>& Universe() {
  static const auto* universe =
      new std::vector<datagen::VenueUniverseEntry>(
          datagen::MakeVenueUniverse(400, 0xBEEF));
  return *universe;
}

datagen::GeneratedDataset Dsd(std::size_t rows) {
  return datagen::MakeDsdLike(rows, 0xD5D);
}

datagen::GeneratedDataset Oao(std::size_t rows) {
  return datagen::MakeOrganisations(rows, 0x0A0);
}

datagen::GeneratedDataset Oap(std::size_t rows,
                              const std::vector<std::string>& org_pool) {
  return datagen::MakeProjects(rows, org_pool, 0x0AF);
}

datagen::GeneratedDataset Ppl(std::size_t rows,
                              const std::vector<std::string>& org_pool) {
  return datagen::MakePeople(rows, org_pool, 0xFF1);
}

datagen::GeneratedDataset Oagp(std::size_t rows) {
  return datagen::MakeOagpLike(rows, Universe(), 0xA6F);
}

datagen::GeneratedDataset Oagv(std::size_t rows) {
  return datagen::MakeOagvLike(rows, Universe(), 0xA61);
}

QueryEngine MakeEngine(const std::vector<TablePtr>& tables,
                       ExecutionMode mode,
                       const MetaBlockingConfig& meta_blocking,
                       bool collect_comparisons) {
  EngineOptions options;
  options.meta_blocking = meta_blocking;
  options.mode = mode;
  options.collect_comparisons = collect_comparisons;
  options.num_threads = Threads();
  options.trace_sink = g_trace_sink;  // Null unless --trace-out was given.
  QueryEngine engine(options);
  for (const TablePtr& table : tables) {
    Status status = engine.RegisterTable(table);
    if (!status.ok()) {
      std::fprintf(stderr, "RegisterTable failed: %s\n",
                   status.ToString().c_str());
      std::exit(1);
    }
    // Indices are built once-off at load time (paper Sec. 3); keep that
    // cost out of the measured query times.
    status = engine.WarmIndices(table->name());
    if (!status.ok()) {
      std::fprintf(stderr, "WarmIndices failed: %s\n",
                   status.ToString().c_str());
      std::exit(1);
    }
  }
  return engine;
}

std::string SelectivityQuery(const std::string& table, int percent,
                             const std::string& projection) {
  return "SELECT DEDUP " + projection + " FROM " + table +
         " WHERE MOD(id, 100) < " + std::to_string(percent);
}

std::vector<EntityId> SelectedIds(const Table& table, int percent) {
  std::vector<EntityId> ids;
  for (EntityId e = 0; e < table.num_rows(); ++e) {
    if (e % 100 < static_cast<EntityId>(percent)) ids.push_back(e);
  }
  return ids;
}

QueryResult MustExecute(QueryEngine* engine, const std::string& sql) {
  auto result = engine->Execute(sql);
  if (!result.ok()) {
    std::fprintf(stderr, "query failed: %s\n  %s\n", sql.c_str(),
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(*result);
}

void CsvLine(const std::string& bench, const std::vector<std::string>& fields) {
  std::string line = "CSV," + bench;
  for (const std::string& field : fields) {
    line += ",";
    line += field;
  }
  std::printf("%s\n", line.c_str());
}

void JsonLine(const std::string& bench,
              const std::vector<std::pair<std::string, std::string>>& fields) {
  auto is_number = [](const std::string& value) {
    if (value.empty()) return false;
    char* end = nullptr;
    std::strtod(value.c_str(), &end);
    return end != nullptr && *end == '\0';
  };
  std::string line = "{\"bench\":\"" + bench +
                     "\",\"threads\":" + std::to_string(Threads());
  for (const auto& [key, value] : fields) {
    line += ",\"" + key + "\":";
    line += is_number(value) ? value : "\"" + value + "\"";
  }
  line += "}";
  std::printf("%s\n", line.c_str());
}

void Banner(const std::string& title) {
  std::printf("\n=== %s (scale %.2f) ===\n", title.c_str(), Scale());
}

}  // namespace queryer::bench
