// Workload inputs (tables, statements) and the untimed preparation step.

#include <cstdio>
#include <filesystem>

#include "bench.h"
#include "datagen/orgs.h"
#include "datagen/people.h"
#include "datagen/scholarly.h"
#include "storage/csv.h"

namespace perfbench {

namespace {

// Counter-based generator: the n-th draw of a stream is Mix(key + n), so
// statement lists do not depend on the standard library's distributions.
class Draws {
 public:
  explicit Draws(std::uint64_t key) : key_(Mix(key)) {}
  std::uint64_t Next() { return Mix(key_ + ++n_); }
  std::size_t Below(std::size_t bound) {
    return static_cast<std::size_t>(Next() % bound);
  }

 private:
  std::uint64_t key_;
  std::uint64_t n_ = 0;
};

std::vector<int> Permutation(int n, Draws* draws) {
  std::vector<int> perm(n);
  for (int i = 0; i < n; ++i) perm[i] = i;
  for (int i = n - 1; i > 0; --i) {
    std::swap(perm[i], perm[draws->Below(static_cast<std::size_t>(i) + 1)]);
  }
  return perm;
}

// cold_dedup runs this many rounds per epoch; a round is two DSD selections
// and one PPL ⋈ OAO join. The two shapes' latencies form separate clusters
// (DSD is slower), so an even mix would put the median in the gap between
// them, where it jumps from seed to seed; two to one puts it inside the
// DSD cluster. 16 rounds (48 statements, ~5 s) leave room for three or
// more epochs in a run.
constexpr int kColdRounds = 16;

}  // namespace

ColdPlan MakeColdPlan(std::uint64_t seed) {
  Draws draws(seed ^ 0xC01DULL);
  const std::vector<int> dsd = Permutation(200, &draws);
  const std::vector<int> ppl = Permutation(200, &draws);
  ColdPlan plan;
  auto add_dsd = [&](int slice) {
    plan.queries.push_back(
        {"SELECT DEDUP dsd.title, dsd.authors, dsd.venue, dsd.year FROM dsd "
         "WHERE MOD(dsd.id, 200) = " + std::to_string(slice),
         "dsd_sp"});
    plan.slices.push_back(slice);
  };
  for (int i = 0; i < kColdRounds; ++i) {
    add_dsd(dsd[2 * i]);
    add_dsd(dsd[2 * i + 1]);
    plan.queries.push_back(
        {"SELECT DEDUP ppl.given_name, ppl.surname, ppl.suburb, oao.name, "
         "oao.country FROM ppl INNER JOIN oao ON ppl.org = oao.name "
         "WHERE MOD(ppl.id, 200) = " + std::to_string(ppl[i]),
         "ppl_oao_spj"});
    plan.slices.push_back(ppl[i]);
  }
  return plan;
}

WarmPlan MakeWarmPlan(std::uint64_t seed) {
  Draws draws(seed ^ 0x3A43ULL);
  WarmPlan plan;
  // Working set: MOD(dsd.id, 200) in [s0, s0 + 8).
  const int s0 = static_cast<int>(draws.Below(192));
  auto add = [&](std::string sql, const char* kind) {
    plan.reads.push_back({std::move(sql), kind});
    return plan.reads.size() - 1;
  };
  std::vector<std::size_t> dedup_sp, dedup_spj, dedup_wide, sp, spj, sp_filter;
  for (int k = s0; k < s0 + 8; ++k) {
    dedup_sp.push_back(add(
        "SELECT DEDUP dsd.title, dsd.authors, dsd.venue FROM dsd "
        "WHERE MOD(dsd.id, 200) = " + std::to_string(k),
        "dedup_sp"));
  }
  for (int k = s0; k < s0 + 6; ++k) {
    dedup_spj.push_back(add(
        "SELECT DEDUP dsd.title, oagv.title, oagv.rank FROM dsd "
        "INNER JOIN oagv ON dsd.venue = oagv.title "
        "WHERE MOD(dsd.id, 200) = " + std::to_string(k),
        "dedup_spj"));
  }
  dedup_wide.push_back(add(
      "SELECT DEDUP dsd.title, dsd.authors FROM dsd WHERE MOD(dsd.id, 200) >= " +
          std::to_string(s0) + " AND MOD(dsd.id, 200) < " + std::to_string(s0 + 8),
      "dedup_sp_wide"));
  for (int j = 0; j < 100; ++j) {
    sp.push_back(add(
        "SELECT oagp.title, oagp.year, oagp.venue FROM oagp "
        "WHERE MOD(oagp.id, 100) = " + std::to_string(j),
        "sp"));
  }
  for (int j = 0; j < 40; ++j) {
    spj.push_back(add(
        "SELECT oagp.title, oagv.title, oagv.rank FROM oagp "
        "INNER JOIN oagv ON oagp.venue = oagv.title "
        "WHERE MOD(oagp.id, 40) = " + std::to_string(j),
        "spj"));
  }
  for (int j = 0; j < 20; ++j) {
    sp_filter.push_back(add(
        "SELECT oagp.title, oagp.n_citation FROM oagp WHERE oagp.year >= 2014 "
        "AND MOD(oagp.id, 20) = " + std::to_string(j),
        "sp_filter"));
  }
  for (std::size_t i : dedup_sp) plan.resolve.push_back(plan.reads[i]);
  for (std::size_t i : dedup_spj) plan.resolve.push_back(plan.reads[i]);
  plan.resolve.push_back(plan.reads[dedup_wide[0]]);

  // By latency the classes run dedup_sp (~0.2 ms) < dedup_sp_wide, sp
  // (~1.5 ms) < sp_filter (~3 ms) < spj, dedup_spj (~10 ms). The weights put
  // the median well inside the sp cluster (cumulative 25% to 65%), so it
  // does not jump between clusters from run to run.
  plan.mix_classes = {dedup_sp, dedup_spj, dedup_wide, sp, spj, sp_filter};
  plan.mix_weights = {0.20, 0.10, 0.05, 0.40, 0.10, 0.15};

  for (const auto* cls : {&dedup_sp, &dedup_spj, &dedup_wide, &sp, &spj}) {
    plan.open_pool.insert(plan.open_pool.end(), cls->begin(), cls->end());
  }
  plan.hot_set = {dedup_wide[0], dedup_spj[0], sp_filter[0], sp_filter[1]};

  // The writer's fresh slices: MOD(dsd.id, 400) = k outside the working set
  // (k mod 200 not in [s0, s0 + 8)), in seeded order.
  for (int k : Permutation(400, &draws)) {
    if (k % 200 >= s0 && k % 200 < s0 + 8) continue;
    plan.writes.push_back(
        {"SELECT DEDUP dsd.title, dsd.authors, dsd.venue, dsd.year FROM dsd "
         "WHERE MOD(dsd.id, 400) = " + std::to_string(k),
         "write"});
    plan.write_slices.push_back(k);
  }
  return plan;
}

Datasets MakeDatasets(const std::string& workload, std::uint64_t seed) {
  namespace dg = queryer::datagen;
  Datasets d;
  d.tables.push_back(dg::MakeDsdLike(kDsdRows, Mix(seed ^ 0xD5D)));
  if (workload == "cold_dedup") {
    dg::GeneratedDataset oao = dg::MakeOrganisations(kOaoRows, Mix(seed ^ 0x0A0));
    std::vector<std::string> pool = dg::OrganisationNamePool(oao);
    d.tables.push_back(dg::MakePeople(kPplRows, pool, Mix(seed ^ 0xFF1)));
    d.tables.push_back(std::move(oao));
  } else {
    std::vector<dg::VenueUniverseEntry> universe =
        dg::MakeVenueUniverse(400, Mix(seed ^ 0xBEEF));
    d.tables.push_back(dg::MakeOagpLike(kOagpRows, universe, Mix(seed ^ 0xA6F)));
    d.tables.push_back(dg::MakeOagvLike(kOagvRows, universe, Mix(seed ^ 0xA61)));
  }
  return d;
}

namespace {

int PrepareCold(const Args& args, const Datasets& data) {
  // Inputs: one CSV file per dirty table.
  queryer::QueryEngine reference(BaseOptions(1, 1));
  for (const auto& ds : data.tables) {
    const std::string& name = ds.table->name();
    Check(queryer::WriteCsvFile(*ds.table, args.dir + "/" + name + ".csv"),
          "WriteCsvFile " + name);
    WriteTruth(ds.ground_truth, args.dir + "/" + name + ".truth");
    Check(reference.RegisterTable(ds.table), "RegisterTable " + name);
    Check(reference.WarmIndices(name), "WarmIndices " + name);
  }
  // Reference answers: one serial, sequential pass of the epoch over the
  // in-memory tables (the run ingests CSV and resolves with two workers).
  References refs;
  SpanRecorder off(false, 0);
  for (const Statement& q : MakeColdPlan(args.seed).queries) {
    OpResult r = RunQuery(&reference, q.sql, &off, 0);
    if (!r.ok) {
      std::fprintf(stderr, "reference query failed: %s\n  %s\n", q.sql.c_str(),
                   r.error.c_str());
      return 2;
    }
    refs[q.sql] = r.digest;
  }
  for (const auto& ds : data.tables) {
    auto runtime = reference.GetRuntime(ds.table->name());
    Check(runtime.status(), "GetRuntime");
    refs["#links " + ds.table->name()] = PartitionDigest((*runtime)->link_index());
  }
  WriteReferences(refs, args.dir + "/reference.tsv");
  return 0;
}

int PrepareWarm(const Args& args, const Datasets& data) {
  const WarmPlan plan = MakeWarmPlan(args.seed);
  const std::string state = args.dir + "/state";
  std::filesystem::create_directories(state);
  queryer::EngineOptions options = BaseOptions(2, 1);
  options.data_dir = state;
  queryer::QueryEngine engine(options);
  for (const auto& ds : data.tables) {
    const std::string& name = ds.table->name();
    WriteTruth(ds.ground_truth, args.dir + "/" + name + ".truth");
    Check(engine.RegisterTable(ds.table), "RegisterTable " + name);
    Check(engine.WarmIndices(name), "WarmIndices " + name);
  }
  // Resolve the working set until a pass executes no comparison (a plan may
  // touch entities the previous pass did not resolve).
  SpanRecorder off(false, 0);
  for (int pass = 0;; ++pass) {
    std::size_t comparisons = 0;
    for (const Statement& q : plan.resolve) {
      OpResult r = RunQuery(&engine, q.sql, &off, 0);
      if (!r.ok) {
        std::fprintf(stderr, "resolve failed: %s\n  %s\n", q.sql.c_str(),
                     r.error.c_str());
        return 2;
      }
      comparisons += r.stats.comparisons_executed;
    }
    if (comparisons == 0) break;
    if (pass == 4) {
      std::fprintf(stderr, "working set still resolving after 5 passes\n");
      return 2;
    }
  }
  References refs;
  for (const Statement& q : plan.reads) {
    OpResult r = RunQuery(&engine, q.sql, &off, 0);
    if (!r.ok || r.stats.comparisons_executed != 0) {
      std::fprintf(stderr, "reference read failed: %s\n  %s\n", q.sql.c_str(),
                   r.error.c_str());
      return 2;
    }
    refs[q.sql] = r.digest;
  }
  WriteReferences(refs, args.dir + "/reference.tsv");
  Check(engine.SaveSnapshots(), "SaveSnapshots");
  return 0;
}

}  // namespace

int Prepare(const Args& args) {
  std::filesystem::create_directories(args.dir);
  const Datasets data = MakeDatasets(args.workload, args.seed);
  return args.workload == "cold_dedup" ? PrepareCold(args, data)
                                       : PrepareWarm(args, data);
}

}  // namespace perfbench
