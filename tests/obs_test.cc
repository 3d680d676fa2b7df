// Observability subsystem tests: the metrics registry's counters must be
// exact under concurrent hammering (relaxed atomics lose no increments),
// session traces must be well-formed Chrome trace-event JSON with the spans
// the engine promises, EXPLAIN ANALYZE must report exactly the row counts
// Execute materializes at every num_threads x batch_size point, and
// tracing-off must record nothing at all (the zero-overhead contract,
// asserted through TraceSink::TotalEventsRecorded).

#include <gtest/gtest.h>

#include <cctype>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/logging.h"
#include "datagen/scholarly.h"
#include "engine/query_engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace queryer {
namespace {

// ---------------------------------------------------------------------------
// A minimal recursive-descent JSON reader, enough to VALIDATE (not interpret)
// a trace document: objects, arrays, strings with escapes, numbers, bools,
// null. Returns false on any syntax error.
// ---------------------------------------------------------------------------
class JsonValidator {
 public:
  explicit JsonValidator(const std::string& text) : text_(text) {}

  bool Valid() {
    SkipSpace();
    if (!Value()) return false;
    SkipSpace();
    return pos_ == text_.size();
  }

 private:
  bool Value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipSpace();
    if (Peek() == '}') { ++pos_; return true; }
    while (true) {
      SkipSpace();
      if (!String()) return false;
      SkipSpace();
      if (Peek() != ':') return false;
      ++pos_;
      SkipSpace();
      if (!Value()) return false;
      SkipSpace();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipSpace();
    if (Peek() == ']') { ++pos_; return true; }
    while (true) {
      SkipSpace();
      if (!Value()) return false;
      SkipSpace();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == '\\') {
        pos_ += 2;
        continue;
      }
      if (c == '"') { ++pos_; return true; }
      ++pos_;
    }
    return false;
  }

  bool Number() {
    std::size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(const char* word) {
    std::size_t len = std::string(word).size();
    if (text_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\t' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

std::unique_ptr<QueryEngine> MakeEngine(
    const std::vector<TablePtr>& tables, std::size_t batch_size = 0,
    std::size_t num_threads = 1, std::shared_ptr<TraceSink> trace = nullptr) {
  EngineOptions options;
  if (batch_size != 0) options.batch_size = batch_size;
  options.num_threads = num_threads;
  options.trace_sink = std::move(trace);
  auto engine = std::make_unique<QueryEngine>(options);
  for (const TablePtr& table : tables) {
    EXPECT_TRUE(engine->RegisterTable(table).ok());
  }
  return engine;
}

// The root operator's emitted row count from an annotated plan: the first
// line reads "Label  (rows=N batches=M self=...)".
std::size_t RootRows(const std::string& annotated_plan) {
  std::size_t line_end = annotated_plan.find('\n');
  std::string first = annotated_plan.substr(0, line_end);
  std::size_t at = first.find("rows=");
  EXPECT_NE(at, std::string::npos) << first;
  if (at == std::string::npos) return SIZE_MAX;
  return static_cast<std::size_t>(
      std::strtoull(first.c_str() + at + 5, nullptr, 10));
}

class ObsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Several default-size batches per table, so traces and profiles span
    // many operator calls.
    dsd_ = new datagen::GeneratedDataset(datagen::MakeDsdLike(2600, 4242));
    auto universe = datagen::MakeVenueUniverse(300, 7);
    datagen::OagpOptions oagp_options;
    oagp_options.venue_join_fraction = 0.5;
    oagp_ = new datagen::GeneratedDataset(
        datagen::MakeOagpLike(3000, universe, 11, oagp_options));
    oagv_ = new datagen::GeneratedDataset(
        datagen::MakeOagvLike(800, universe, 13));
  }
  static void TearDownTestSuite() {
    delete dsd_;
    delete oagp_;
    delete oagv_;
    dsd_ = nullptr;
    oagp_ = nullptr;
    oagv_ = nullptr;
  }

  static datagen::GeneratedDataset* dsd_;
  static datagen::GeneratedDataset* oagp_;
  static datagen::GeneratedDataset* oagv_;
};

datagen::GeneratedDataset* ObsTest::dsd_ = nullptr;
datagen::GeneratedDataset* ObsTest::oagp_ = nullptr;
datagen::GeneratedDataset* ObsTest::oagv_ = nullptr;

// Relaxed atomic counters must still be EXACT: N threads of M increments
// land N*M, no lost updates.
TEST(MetricsTest, ConcurrentCounterTotalsAreExact) {
  Counter* counter =
      MetricsRegistry::Global().GetCounter("obs_test_hammer_total");
  LatencyHistogram* histogram =
      MetricsRegistry::Global().GetHistogram("obs_test_hammer_seconds");
  const std::uint64_t before_count = counter->Value();
  const HistogramSnapshot before = histogram->Snapshot();

  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        counter->Increment();
        histogram->Observe(1e-5);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(counter->Value() - before_count,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  const HistogramSnapshot delta = histogram->Snapshot().Since(before);
  EXPECT_EQ(delta.count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_NEAR(delta.sum_seconds, kThreads * kPerThread * 1e-5,
              kThreads * kPerThread * 1e-8);
}

// Same name + kind returns the same instrument; exports carry it in both
// formats, and the Prometheus text has the cumulative +Inf bucket.
TEST(MetricsTest, RegistryLookupAndExportFormats) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter* counter = registry.GetCounter("obs_test_export_total");
  EXPECT_EQ(counter, registry.GetCounter("obs_test_export_total"));
  counter->Increment(3);
  registry.GetHistogram("obs_test_export_seconds")->Observe(0.001);

  const std::string json = registry.ExportJson();
  JsonValidator validator(json);
  EXPECT_TRUE(validator.Valid()) << json;
  EXPECT_NE(json.find("\"obs_test_export_total\""), std::string::npos);

  const std::string prom = registry.ExportPrometheus();
  EXPECT_NE(prom.find("# TYPE obs_test_export_total counter"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE obs_test_export_seconds histogram"),
            std::string::npos);
  EXPECT_NE(prom.find("obs_test_export_seconds_bucket{le=\"+Inf\"}"),
            std::string::npos);
}

// Quantile interpolation sanity: the median of a uniform spread lands
// inside the right bucket's bounds.
TEST(MetricsTest, HistogramQuantilesAreOrderedAndBounded) {
  LatencyHistogram* histogram =
      MetricsRegistry::Global().GetHistogram("obs_test_quantile_seconds");
  const HistogramSnapshot before = histogram->Snapshot();
  for (int i = 0; i < 1000; ++i) histogram->Observe(1e-4);  // 100 µs.
  const HistogramSnapshot delta = histogram->Snapshot().Since(before);
  const double p50 = delta.Quantile(0.50);
  const double p99 = delta.Quantile(0.99);
  EXPECT_LE(p50, p99);
  // 100 µs falls in the (64 µs, 128 µs] power-of-two bucket; every
  // quantile of a single-bucket distribution stays inside that bucket.
  EXPECT_GE(p50, 64e-6);
  EXPECT_LE(p50, 128e-6);
  EXPECT_GE(delta.Quantile(0.0), 64e-6);
  EXPECT_LE(delta.Quantile(1.0), 128e-6);
}

// A traced DEDUP session produces a parseable Chrome trace document with
// the promised spans: plan, open, ER stages, the operator tree, emit.
TEST_F(ObsTest, TraceJsonIsWellFormedAndHasSessionSpans) {
  auto trace = std::make_shared<TraceSink>();
  auto engine = MakeEngine({dsd_->table}, 0, 1, trace);
  auto result =
      engine->Execute("SELECT DEDUP title, venue FROM dsd "
                      "WHERE MOD(id, 100) < 10");
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_GT(trace->event_count(), 0u);
  const std::string json = trace->ToJson();
  JsonValidator validator(json);
  EXPECT_TRUE(validator.Valid()) << json.substr(0, 500);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  for (const char* span : {"\"plan\"", "\"open\"", "\"blocking\"",
                           "\"block-join\"", "\"resolution\"", "\"emit\"",
                           "Deduplicate", "TableScan"}) {
    EXPECT_NE(json.find(span), std::string::npos) << "missing span " << span;
  }
}

// EXPLAIN ANALYZE executes the query: its root-operator row count must be
// bit-identical to what Execute materializes, at every threads x batch_size
// point, for scan/join/DEDUP plans alike.
TEST_F(ObsTest, ExplainAnalyzeRowCountsMatchExecute) {
  struct Case {
    std::vector<TablePtr> tables;
    std::string sql;
  };
  const Case cases[] = {
      {{dsd_->table}, "SELECT id, title FROM dsd WHERE MOD(id, 100) < 23"},
      {{oagp_->table, oagv_->table},
       "SELECT * FROM oagp INNER JOIN oagv ON oagp.venue = oagv.title"},
      {{dsd_->table},
       "SELECT DEDUP title, venue FROM dsd WHERE MOD(id, 100) < 10"},
  };
  for (const Case& c : cases) {
    for (std::size_t num_threads : {std::size_t{1}, std::size_t{4}}) {
      for (std::size_t batch_size : {std::size_t{1}, std::size_t{1024}}) {
        auto execute_engine = MakeEngine(c.tables, batch_size, num_threads);
        auto result = execute_engine->Execute(c.sql);
        ASSERT_TRUE(result.ok()) << result.status().ToString();

        // A fresh engine for the analyze run, so a DEDUP query resolves
        // from an equally cold Link Index.
        auto analyze_engine = MakeEngine(c.tables, batch_size, num_threads);
        auto annotated = analyze_engine->Explain("EXPLAIN ANALYZE " + c.sql);
        ASSERT_TRUE(annotated.ok()) << annotated.status().ToString();
        EXPECT_EQ(RootRows(*annotated), result->rows.size())
            << c.sql << " threads=" << num_threads << " batch=" << batch_size
            << "\n" << *annotated;
        // The ER-stage breakdown rides along below the tree.
        EXPECT_NE(annotated->find("breakdown["), std::string::npos);
      }
    }
  }
}

// The Execute presentation of EXPLAIN / EXPLAIN ANALYZE: a single
// "QUERY PLAN" column, one line per row; plain EXPLAIN runs nothing.
TEST_F(ObsTest, ExecuteExplainFormsReturnPlanRows) {
  auto engine = MakeEngine({dsd_->table});
  const std::string sql =
      "SELECT DEDUP title, venue FROM dsd WHERE MOD(id, 100) < 10";

  auto plain = engine->Execute("EXPLAIN " + sql);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  ASSERT_EQ(plain->columns, std::vector<std::string>{"QUERY PLAN"});
  EXPECT_FALSE(plain->rows.empty());
  // Nothing executed: no comparisons ran, no entities were resolved.
  EXPECT_EQ(plain->stats.comparisons_executed, 0u);
  EXPECT_EQ(plain->stats.query_entities, 0u);

  auto analyzed = engine->Execute("EXPLAIN ANALYZE " + sql);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  ASSERT_EQ(analyzed->columns, std::vector<std::string>{"QUERY PLAN"});
  ASSERT_FALSE(analyzed->rows.empty());
  EXPECT_NE(analyzed->rows.front().front().find("rows="), std::string::npos);
  // This one DID execute.
  EXPECT_GT(analyzed->stats.query_entities, 0u);
}

// Cursor sessions keep their profile past Close, and the profile's counts
// agree with what the client actually pulled.
TEST_F(ObsTest, CursorProfileSurvivesCloseAndCountsRows) {
  auto engine = MakeEngine({dsd_->table}, 128);
  auto cursor = engine->ExecuteStream("SELECT id, title FROM dsd");
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  std::size_t rows = 0;
  RowBatch batch((*cursor)->batch_size());
  while (true) {
    auto has = (*cursor)->Next(&batch);
    ASSERT_TRUE(has.ok());
    if (!*has) break;
    rows += batch.size();
  }
  (*cursor)->Close();
  const OperatorProfile* root = (*cursor)->profile().root();
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->rows, rows);
  EXPECT_EQ(root->opens, 1u);
  EXPECT_NE((*cursor)->AnnotatedPlan().find("rows="), std::string::npos);
}

// The zero-overhead-when-off contract: with no sink attached, running a
// full DEDUP query records NO trace events anywhere in the process.
TEST_F(ObsTest, TracingOffRecordsNoEvents) {
  auto engine = MakeEngine({dsd_->table});
  const std::uint64_t before = TraceSink::TotalEventsRecorded();
  auto result =
      engine->Execute("SELECT DEDUP title, venue FROM dsd "
                      "WHERE MOD(id, 100) < 5");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(TraceSink::TotalEventsRecorded(), before);
}

// Failure-path metrics are EXACT totals, not approximations: every actual
// failpoint trigger lands in its per-site counter, every shed session in
// queryer_sessions_shed_total, and every cancel/deadline pre-emption of ER
// resolution in queryer_sessions_cancelled_in_resolution_total. Each leg
// below sets up a deterministic single increment and asserts the delta.
TEST_F(ObsTest, FailureMetricsCountExactTotals) {
  const EngineMetrics& metrics = GlobalEngineMetrics();

  // Leg 1: a per-site trigger counter counts exact fires. The injected
  // error is sticky at the cursor, so Execute's drain evaluates the site
  // exactly once.
  {
    Counter* triggered = MetricsRegistry::Global().GetCounter(
        "queryer_failpoint_triggered_total_cursor_next");
    const std::uint64_t before = triggered->Value();
    const std::uint64_t failed_before = metrics.queries_failed->Value();
    ASSERT_TRUE(Failpoints::Global().Arm("cursor.next", "error").ok());
    auto engine = MakeEngine({dsd_->table});
    auto result = engine->Execute("SELECT id FROM dsd");
    Failpoints::Global().Disarm("cursor.next");
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(triggered->Value(), before + 1);
    EXPECT_EQ(metrics.queries_failed->Value(), failed_before + 1);
  }

  // Leg 2: bounded admission sheds exactly the refused session. A holder
  // cursor pins the engine's single slot; the timed-out Execute is the
  // one and only shed.
  {
    const std::uint64_t shed_before = metrics.sessions_shed->Value();
    auto engine = MakeEngine({dsd_->table});
    engine->set_admission_timeout(0.05);
    auto holder = engine->ExecuteStream("SELECT id FROM dsd");
    ASSERT_TRUE(holder.ok()) << holder.status().ToString();
    auto shed = engine->Execute("SELECT id FROM dsd");
    ASSERT_FALSE(shed.ok());
    EXPECT_TRUE(shed.status().IsResourceExhausted())
        << shed.status().ToString();
    (*holder)->Close();
    EXPECT_EQ(metrics.sessions_shed->Value(), shed_before + 1);
  }

  // Leg 3: a deadline pre-empting ER resolution counts once in
  // cancelled_in_resolution (and once in queries_deadline_exceeded). A
  // delay failpoint inside the comparison chunk pushes the session past
  // its deadline deterministically — no cancelling thread needed.
  {
    const std::uint64_t preempted_before =
        metrics.cancelled_in_resolution->Value();
    const std::uint64_t deadline_before =
        metrics.queries_deadline_exceeded->Value();
    ASSERT_TRUE(Failpoints::Global()
                    .Arm("er.comparison_chunk", "delay(400)")
                    .ok());
    auto engine = MakeEngine({dsd_->table});
    engine->set_default_query_deadline(0.2);
    auto result = engine->Execute(
        "SELECT DEDUP title, venue FROM dsd WHERE MOD(id, 100) < 10");
    Failpoints::Global().Disarm("er.comparison_chunk");
    ASSERT_FALSE(result.ok());
    EXPECT_TRUE(result.status().IsDeadlineExceeded())
        << result.status().ToString();
    EXPECT_EQ(metrics.cancelled_in_resolution->Value(), preempted_before + 1);
    EXPECT_EQ(metrics.queries_deadline_exceeded->Value(), deadline_before + 1);
  }
}

// The QUERYER_CHECK satellite: failure messages print file paths relative
// to the source tree (one parent directory), not absolute build paths.
TEST(LoggingTest, CheckFileNameKeepsOneParentDirectory) {
  EXPECT_STREQ(internal::CheckFileName("/root/repo/src/exec/operator.cc"),
               "exec/operator.cc");
  EXPECT_STREQ(internal::CheckFileName("operator.cc"), "operator.cc");
  EXPECT_STREQ(internal::CheckFileName("exec/operator.cc"),
               "exec/operator.cc");
}

}  // namespace
}  // namespace queryer
