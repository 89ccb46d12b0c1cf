// Access-path statistics (obs/stats.h): the stats-off contract (no
// `stats.*` metric families ever materialize in a disabled process), the
// "stats" section of the JSON run report, determinism of the rendered
// `explain analyze` operator tree across thread counts, and the basic
// accounting invariants (matched <= scanned, index-ordered covers,
// selectivity in [0, 1]).
//
// Test order matters: the zero-families test MUST run first, because
// registry families are process-global and never disappear once an
// enabled run creates them. gtest runs same-suite tests in definition
// order, so every test here shares the ObsStats suite.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/engine.h"
#include "datagen/scenarios.h"
#include "logic/parser.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/stats.h"

namespace dxrec {
namespace {

DependencySet WarehouseSigma() {
  Result<DependencySet> sigma = ParseTgdSet(
      "Order(id, cust, item) -> Ledger(cust, id), Shipment(id, item); "
      "Stock(item, wh) -> Available(item)");
  EXPECT_TRUE(sigma.ok()) << sigma.status().ToString();
  return std::move(*sigma);
}

Instance WarehouseTarget() {
  Result<Instance> j = ParseInstance(
      "{Ledger(ann, o1), Shipment(o1, tea), Ledger(bob, o2), "
      "Shipment(o2, mugs), Available(tea)}");
  EXPECT_TRUE(j.ok()) << j.status().ToString();
  return std::move(*j);
}

// Flips the stats gate for one test body and restores it after (the
// global is process-wide and, through obs::Apply, never self-disables).
class ScopedStats {
 public:
  ScopedStats() : was_enabled_(obs::stats::Enabled()) {
    obs::stats::SetEnabled(true);
  }
  ~ScopedStats() { obs::stats::SetEnabled(was_enabled_); }

 private:
  bool was_enabled_;
};

bool AnyStatsInstrument(const obs::MetricsSnapshot& snapshot) {
  for (const auto& [name, value] : snapshot.counters) {
    if (name.rfind("stats.", 0) == 0) return true;
  }
  for (const auto& [name, value] : snapshot.gauges) {
    if (name.rfind("stats.", 0) == 0) return true;
  }
  for (const obs::HistogramSnapshot& h : snapshot.histograms) {
    if (h.name.rfind("stats.", 0) == 0) return true;
  }
  return false;
}

uint64_t StatsCounter(const std::string& name) {
  obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Global().Read();
  for (const auto& [n, v] : snapshot.counters) {
    if (n == name) return v;
  }
  return 0;
}

// MUST BE FIRST (see file comment): a run with stats disabled creates no
// stats.* instruments, exports no dxrec_stats_* families, and leaves the
// last-run snapshot empty.
TEST(ObsStats, DisabledRunCreatesNoFamilies) {
  ASSERT_FALSE(obs::stats::Enabled());
  Engine engine(WarehouseSigma());
  Result<InverseChaseResult> result = engine.Recover(WarehouseTarget());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->recoveries.empty());

  obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Global().Read();
  EXPECT_FALSE(AnyStatsInstrument(snapshot))
      << "stats-off run materialized a stats.* instrument";
  std::string text = obs::OpenMetricsText(snapshot, nullptr, 0);
  EXPECT_EQ(text.find("dxrec_stats_"), std::string::npos);

  obs::stats::RunStats run;
  EXPECT_FALSE(obs::stats::LastRun(&run));
  EXPECT_NE(obs::stats::StatsJson().find("\"enabled\":false"),
            std::string::npos);
}

// Unit-level accounting: Merge sums fields, Selectivity stays in [0, 1],
// Totals folds the per-relation map.
TEST(ObsStats, AccessAccountingPrimitives) {
  obs::stats::RelationAccess a;
  a.lists = 2;
  a.indexed_lists = 1;
  a.tuples_scanned = 10;
  a.tuples_matched = 4;
  obs::stats::RelationAccess b;
  b.lists = 1;
  b.tuples_scanned = 6;
  b.tuples_matched = 6;
  a.Merge(b);
  EXPECT_EQ(a.lists, 3u);
  EXPECT_EQ(a.indexed_lists, 1u);
  EXPECT_EQ(a.tuples_scanned, 16u);
  EXPECT_EQ(a.tuples_matched, 10u);
  EXPECT_DOUBLE_EQ(a.Selectivity(), 10.0 / 16.0);
  EXPECT_DOUBLE_EQ(obs::stats::RelationAccess().Selectivity(), 0.0);

  obs::stats::SearchStats s;
  s.relations[7] = a;
  s.relations[9] = b;
  obs::stats::RelationAccess total = s.Totals();
  EXPECT_EQ(total.tuples_scanned, 22u);
  EXPECT_EQ(total.tuples_matched, 16u);
}

// Scoped sinks install/restore and RecordSearch lands in the innermost.
TEST(ObsStats, ScopedSinksShadowAndRestore) {
  ScopedStats stats;
  obs::stats::SearchStats outer;
  obs::stats::SearchStats inner;
  {
    obs::stats::ScopedSearch outer_scope(&outer);
    EXPECT_EQ(obs::stats::CurrentSearchSink(), &outer);
    {
      obs::stats::ScopedSearch inner_scope(&inner);
      EXPECT_EQ(obs::stats::CurrentSearchSink(), &inner);
      obs::stats::SearchStats one;
      one.searches = 1;
      one.candidates_tried = 5;
      one.results = 2;
      obs::stats::RecordSearch(one);
    }
    EXPECT_EQ(obs::stats::CurrentSearchSink(), &outer);
    // nullptr construction keeps the current sink installed.
    obs::stats::ScopedSearch noop(nullptr);
    EXPECT_EQ(obs::stats::CurrentSearchSink(), &outer);
  }
  EXPECT_EQ(inner.searches, 1u);
  EXPECT_EQ(inner.candidates_tried, 5u);
  EXPECT_EQ(outer.searches, 0u);
}

// Golden schema for the "stats" report section: an enabled run produces
// enabled:true plus the documented run/cover/search keys, and the run
// report embeds the same section.
TEST(ObsStats, RunReportStatsSectionSchema) {
  ScopedStats stats;
  Engine engine(WarehouseSigma());
  Result<InverseChaseResult> result = engine.Recover(WarehouseTarget());
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  std::string json = obs::stats::StatsJson();
  // Documented key skeleton (docs/OBSERVABILITY.md, "Access-path
  // statistics"): field order is part of the schema, like the event
  // lines, so prefix/substring checks are exact.
  for (const char* key :
       {"\"enabled\":true", "\"have_run\":true", "\"run\":{",
        "\"target_atoms\":", "\"sub_constraints\":", "\"num_homs\":",
        "\"num_covers\":",
        "\"num_covers_passing_sub\":", "\"recoveries\":",
        "\"seconds_total\":", "\"hom_enum\":{", "\"searches\":",
        "\"candidates_tried\":", "\"backtracks\":", "\"results\":",
        "\"relations\":[", "\"relation\":", "\"lists\":",
        "\"indexed_lists\":", "\"tuples_scanned\":",
        "\"tuples_matched\":", "\"selectivity\":", "\"covers\":[",
        "\"index\":", "\"size\":", "\"passed_sub\":",
        "\"reverse_chase\":{", "\"forward_chase\":{", "\"rounds\":",
        "\"round_deltas\":[", "\"deps\":[", "\"tgd\":",
        "\"triggers_tested\":", "\"triggers_fired\":",
        "\"tuples_added\":", "\"g_hom\":{", "\"verify\":{",
        "\"source_atoms\":", "\"chased_atoms\":", "\"g_homs\":",
        "\"emitted\":", "\"rejected\":", "\"seconds\":{",
        "\"alloc_bytes\":"}) {
    EXPECT_NE(json.find(key), std::string::npos)
        << "missing key " << key << " in: " << json;
  }
  EXPECT_NE(obs::RunReportJson().find("\"stats\":{\"enabled\":true"),
            std::string::npos);

  // The run also flushed stats.* registry families (counters exist now).
  EXPECT_GT(StatsCounter("stats.search.searches"), 0u);
  EXPECT_GT(StatsCounter("stats.runs"), 0u);
  obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Global().Read();
  EXPECT_NE(obs::OpenMetricsText(snapshot, nullptr, 0).find("dxrec_stats_"),
            std::string::npos);
}

// Accounting invariants of a real run.
TEST(ObsStats, RunInvariants) {
  ScopedStats stats;
  Instance target = WarehouseTarget();
  Engine engine(WarehouseSigma());
  Result<InverseChaseResult> result = engine.Recover(target);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  obs::stats::RunStats run;
  ASSERT_TRUE(obs::stats::LastRun(&run));
  EXPECT_TRUE(run.valid);
  EXPECT_EQ(run.target_atoms, target.size());
  EXPECT_EQ(run.num_homs, result->stats.num_homs);
  EXPECT_EQ(run.num_covers, result->stats.num_covers);
  EXPECT_EQ(run.num_covers_passing_sub,
            result->stats.num_covers_passing_sub);
  EXPECT_EQ(run.recoveries, result->recoveries.size());
  EXPECT_EQ(run.covers.size(), run.num_covers);
  EXPECT_GT(run.hom_enum.searches, 0u);
  EXPECT_GT(run.hom_enum.candidates_tried, 0u);

  for (size_t i = 0; i < run.covers.size(); ++i) {
    const obs::stats::CoverStats& cover = run.covers[i];
    EXPECT_EQ(cover.cover_index, i) << "covers not index-ordered";
    EXPECT_GT(cover.cover_size, 0u);
    if (!cover.passed_sub) continue;
    EXPECT_GT(cover.source_atoms, 0u);
    EXPECT_GE(cover.chased_atoms, cover.source_atoms);
    EXPECT_EQ(cover.reverse_chase.rounds, 1u);
    EXPECT_GE(cover.g_homs, cover.emitted);
    for (const obs::stats::DependencyStats& dep :
         cover.forward_chase.deps) {
      EXPECT_GE(dep.triggers_tested, dep.triggers_fired);
    }
  }

  for (const auto& [relation, access] : run.AggregateRelations()) {
    EXPECT_GE(access.tuples_scanned, access.tuples_matched);
    EXPECT_GE(access.lists, access.indexed_lists);
    EXPECT_GE(access.Selectivity(), 0.0);
    EXPECT_LE(access.Selectivity(), 1.0);
  }
}

// A run over a target with an uncoverable tuple still replaces the last
// run's tree, so `explain analyze` never shows the previous target's.
TEST(ObsStats, InvalidTargetRecordsItsOwnRun) {
  ScopedStats stats;
  Engine engine(WarehouseSigma());
  ASSERT_TRUE(engine.Recover(WarehouseTarget()).ok());

  // Available(tea) has one hom; Ledger(ann, o1) alone has none.
  Result<Instance> invalid = ParseInstance("{Available(tea), Ledger(ann, o1)}");
  ASSERT_TRUE(invalid.ok()) << invalid.status().ToString();
  Result<InverseChaseResult> result = engine.Recover(*invalid);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->recoveries.empty());

  obs::stats::RunStats run;
  ASSERT_TRUE(obs::stats::LastRun(&run));
  EXPECT_EQ(run.target_atoms, 2u);
  EXPECT_EQ(run.num_homs, 1u);
  EXPECT_EQ(run.num_covers, 0u);
  EXPECT_EQ(run.recoveries, 0u);
  EXPECT_TRUE(run.covers.empty());
  EXPECT_GT(run.seconds_total, 0.0);
}

// A run that trips a budget still replaces the last run's tree with its
// own, partial as it is.
TEST(ObsStats, TrippedRunRecordsItsOwnRun) {
  ScopedStats stats;
  ASSERT_TRUE(Engine(WarehouseSigma()).Recover(WarehouseTarget()).ok());

  EngineOptions options;
  options.budgets.max_cover_nodes = 2;
  Engine engine(WarehouseSigma(), options);
  Result<Instance> target =
      ParseInstance("{Ledger(ann, o1), Shipment(o1, tea), Available(tea)}");
  ASSERT_TRUE(target.ok()) << target.status().ToString();
  Result<InverseChaseResult> result = engine.Recover(*target);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);

  obs::stats::RunStats run;
  ASSERT_TRUE(obs::stats::LastRun(&run));
  EXPECT_EQ(run.target_atoms, 3u);
  EXPECT_EQ(run.recoveries, 0u);
  EXPECT_GT(run.seconds_total, 0.0);
}

// The rendered tree (without timing) is byte-identical at any thread
// count — the PARALLELISM.md determinism contract extended to stats.
std::string RenderAt(const DependencySet& sigma, const Instance& target,
                     size_t threads) {
  EngineOptions options;
  options.parallel.threads = threads;
  Engine engine(DependencySet(sigma), options);
  Result<InverseChaseResult> result = engine.Recover(target);
  EXPECT_TRUE(result.ok()) << "threads=" << threads << ": "
                           << result.status().ToString();
  obs::stats::RunStats run;
  EXPECT_TRUE(obs::stats::LastRun(&run));
  return obs::stats::RenderExplainAnalyze(run, /*include_timing=*/false);
}

void ExpectRenderThreadInvariant(const DependencySet& sigma,
                                 const Instance& target) {
  ScopedStats stats;
  std::string sequential = RenderAt(sigma, target, 1);
  EXPECT_NE(sequential.find("operator tree:"), std::string::npos);
  EXPECT_NE(sequential.find("access paths"), std::string::npos);
  for (size_t threads : {2u, 4u}) {
    EXPECT_EQ(sequential, RenderAt(sigma, target, threads))
        << "explain analyze diverged at threads=" << threads;
  }
}

TEST(ObsStats, ExplainAnalyzeWarehouseByteIdenticalAcrossThreads) {
  ExpectRenderThreadInvariant(WarehouseSigma(), WarehouseTarget());
}

TEST(ObsStats, ExplainAnalyzeTriangleByteIdenticalAcrossThreads) {
  ExpectRenderThreadInvariant(TriangleScenario::Sigma(),
                              TriangleScenario::Target(2, 3));
}

TEST(ObsStats, ExplainAnalyzeEmployeeByteIdenticalAcrossThreads) {
  ExpectRenderThreadInvariant(EmployeeScenario::Sigma(),
                              EmployeeScenario::Target(2, 2, 2));
}

// Timing mode adds the ms/alloc columns (contents not asserted — wall
// times are not byte-stable, which is exactly why timing is opt-in).
TEST(ObsStats, TimingModeAddsColumns) {
  ScopedStats stats;
  Engine engine(WarehouseSigma());
  ASSERT_TRUE(engine.Recover(WarehouseTarget()).ok());
  obs::stats::RunStats run;
  ASSERT_TRUE(obs::stats::LastRun(&run));
  std::string plain = obs::stats::RenderExplainAnalyze(run, false);
  std::string timed = obs::stats::RenderExplainAnalyze(run, true);
  EXPECT_EQ(plain.find(" total_ms="), std::string::npos);
  EXPECT_EQ(plain.find(" alloc="), std::string::npos);
  EXPECT_NE(timed.find(" total_ms="), std::string::npos);
  EXPECT_NE(timed.find(" alloc="), std::string::npos);
  EXPECT_GT(timed.size(), plain.size());
}

}  // namespace
}  // namespace dxrec
