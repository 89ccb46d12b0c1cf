#include "obs/stats.h"

#include <cinttypes>
#include <cstdio>
#include <mutex>
#include <utility>

#include "obs/metrics.h"
#include "obs/report.h"
#include "relational/schema.h"
#include "util/table.h"

namespace dxrec {
namespace obs {
namespace stats {

namespace {

thread_local SearchStats* t_search_sink = nullptr;
thread_local ChaseStats* t_chase_sink = nullptr;

std::mutex g_last_run_mu;
RunStats g_last_run;  // valid == false until the first recorded run

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

// Percentage with one decimal: the deterministic selectivity rendering.
std::string FormatPct(double ratio) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", ratio * 100.0);
  return buf;
}

std::string FormatMs(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", seconds * 1000.0);
  return buf;
}

std::string U64(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  return buf;
}

}  // namespace

void SetEnabled(bool enabled) {
  internal::g_stats_enabled.store(enabled, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Merging.

void RelationAccess::Merge(const RelationAccess& other) {
  lists += other.lists;
  indexed_lists += other.indexed_lists;
  tuples_scanned += other.tuples_scanned;
  tuples_matched += other.tuples_matched;
}

double RelationAccess::Selectivity() const {
  if (tuples_scanned == 0) return 0;
  return static_cast<double>(tuples_matched) /
         static_cast<double>(tuples_scanned);
}

void SearchStats::Merge(const SearchStats& other) {
  searches += other.searches;
  candidates_tried += other.candidates_tried;
  backtracks += other.backtracks;
  results += other.results;
  truncated += other.truncated;
  for (const auto& [rel, access] : other.relations) {
    relations[rel].Merge(access);
  }
}

RelationAccess SearchStats::Totals() const {
  RelationAccess total;
  for (const auto& [rel, access] : relations) total.Merge(access);
  return total;
}

void DependencyStats::Merge(const DependencyStats& other) {
  triggers_tested += other.triggers_tested;
  triggers_fired += other.triggers_fired;
  tuples_added += other.tuples_added;
  match.Merge(other.match);
}

void ChaseStats::EnsureDeps(size_t n) {
  if (deps.size() < n) deps.resize(n);
}

void ChaseStats::Merge(const ChaseStats& other) {
  rounds += other.rounds;
  tuples_added += other.tuples_added;
  round_deltas.insert(round_deltas.end(), other.round_deltas.begin(),
                      other.round_deltas.end());
  EnsureDeps(other.deps.size());
  for (size_t i = 0; i < other.deps.size(); ++i) deps[i].Merge(other.deps[i]);
}

std::map<uint32_t, RelationAccess> RunStats::AggregateRelations() const {
  std::map<uint32_t, RelationAccess> out = hom_enum.relations;
  auto add = [&out](const SearchStats& s) {
    for (const auto& [rel, access] : s.relations) out[rel].Merge(access);
  };
  for (const CoverStats& cover : covers) {
    for (const DependencyStats& dep : cover.forward_chase.deps) {
      add(dep.match);
    }
    add(cover.g_hom);
    add(cover.verify);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Sinks.

SearchStats* CurrentSearchSink() { return t_search_sink; }
ChaseStats* CurrentChaseSink() { return t_chase_sink; }

ScopedSearch::ScopedSearch(SearchStats* target) {
  if (target == nullptr) return;
  installed_ = true;
  prev_ = t_search_sink;
  t_search_sink = target;
}

ScopedSearch::~ScopedSearch() {
  if (installed_) t_search_sink = prev_;
}

ScopedChase::ScopedChase(ChaseStats* target) {
  if (target == nullptr) return;
  installed_ = true;
  prev_ = t_chase_sink;
  t_chase_sink = target;
}

ScopedChase::~ScopedChase() {
  if (installed_) t_chase_sink = prev_;
}

// ---------------------------------------------------------------------------
// Recording.

void RecordSearch(const SearchStats& search) {
  if (!Enabled()) return;
  if (t_search_sink != nullptr) t_search_sink->Merge(search);
  auto& registry = MetricsRegistry::Global();
  static Counter* searches = registry.GetCounter("stats.search.searches");
  static Counter* candidates = registry.GetCounter("stats.search.candidates");
  static Counter* backtracks = registry.GetCounter("stats.search.backtracks");
  static Counter* results = registry.GetCounter("stats.search.results");
  static Counter* scanned =
      registry.GetCounter("stats.search.tuples_scanned");
  static Counter* matched =
      registry.GetCounter("stats.search.tuples_matched");
  static Histogram* fanout =
      registry.GetHistogram("stats.search.fanout_per_search");
  RelationAccess totals = search.Totals();
  searches->Add(search.searches);
  candidates->Add(search.candidates_tried);
  backtracks->Add(search.backtracks);
  results->Add(search.results);
  scanned->Add(totals.tuples_scanned);
  matched->Add(totals.tuples_matched);
  fanout->Record(totals.tuples_scanned);
}

void NoteFullScan() {
  if (!Enabled()) return;
  static Counter* scans =
      MetricsRegistry::Global().GetCounter("stats.instance.full_scans");
  scans->Add(1);
}

void NoteIndexProbe() {
  if (!Enabled()) return;
  static Counter* probes =
      MetricsRegistry::Global().GetCounter("stats.instance.index_probes");
  probes->Add(1);
}

void NoteChaseRound(uint64_t triggers_tested, uint64_t triggers_fired,
                    uint64_t tuples_added) {
  if (!Enabled()) return;
  auto& registry = MetricsRegistry::Global();
  static Counter* rounds = registry.GetCounter("stats.chase.rounds");
  static Counter* tested = registry.GetCounter("stats.chase.triggers_tested");
  static Counter* fired = registry.GetCounter("stats.chase.triggers_fired");
  static Counter* added = registry.GetCounter("stats.chase.tuples_added");
  static Histogram* delta =
      registry.GetHistogram("stats.chase.round_tuples");
  rounds->Add(1);
  tested->Add(triggers_tested);
  fired->Add(triggers_fired);
  added->Add(tuples_added);
  delta->Record(tuples_added);
}

void NoteEvaluation(uint64_t answers) {
  if (!Enabled()) return;
  auto& registry = MetricsRegistry::Global();
  static Counter* queries = registry.GetCounter("stats.eval.queries");
  static Counter* answer_count = registry.GetCounter("stats.eval.answers");
  queries->Add(1);
  answer_count->Add(answers);
}

// ---------------------------------------------------------------------------
// Last-run snapshot.

void SetLastRun(RunStats run) {
  std::lock_guard<std::mutex> lock(g_last_run_mu);
  g_last_run = std::move(run);
}

bool LastRun(RunStats* out) {
  std::lock_guard<std::mutex> lock(g_last_run_mu);
  if (!g_last_run.valid) return false;
  *out = g_last_run;
  return true;
}

void FlushRunToMetrics(const RunStats& run) {
  if (!Enabled()) return;
  auto& registry = MetricsRegistry::Global();
  // Not "stats.run.count": `_count` is a reserved OpenMetrics sample
  // suffix, and scripts/validate_openmetrics.py rejects family names
  // that end in one.
  static Counter* runs = registry.GetCounter("stats.runs");
  static Counter* covers = registry.GetCounter("stats.run.covers");
  static Counter* recoveries = registry.GetCounter("stats.run.recoveries");
  static Gauge* last_scanned =
      registry.GetGauge("stats.run.last_tuples_scanned");
  static Gauge* last_selectivity =
      registry.GetGauge("stats.run.last_selectivity_permille");
  runs->Add(1);
  covers->Add(run.num_covers);
  recoveries->Add(run.recoveries);
  RelationAccess totals;
  for (const auto& [rel, access] : run.AggregateRelations()) {
    (void)rel;
    totals.Merge(access);
  }
  last_scanned->Set(static_cast<int64_t>(totals.tuples_scanned));
  last_selectivity->Set(
      static_cast<int64_t>(totals.Selectivity() * 1000.0 + 0.5));
}

// ---------------------------------------------------------------------------
// JSON.

namespace {

void AppendRelationAccessJson(std::string* out, uint32_t rel,
                              const RelationAccess& access) {
  out->append("{\"relation\":\"");
  out->append(JsonEscape(RelationName(rel)));
  out->append("\",\"lists\":");
  out->append(U64(access.lists));
  out->append(",\"indexed_lists\":");
  out->append(U64(access.indexed_lists));
  out->append(",\"tuples_scanned\":");
  out->append(U64(access.tuples_scanned));
  out->append(",\"tuples_matched\":");
  out->append(U64(access.tuples_matched));
  out->append(",\"selectivity\":");
  out->append(FormatDouble(access.Selectivity()));
  out->append("}");
}

void AppendSearchJson(std::string* out, const SearchStats& search) {
  out->append("{\"searches\":");
  out->append(U64(search.searches));
  out->append(",\"candidates_tried\":");
  out->append(U64(search.candidates_tried));
  out->append(",\"backtracks\":");
  out->append(U64(search.backtracks));
  out->append(",\"results\":");
  out->append(U64(search.results));
  out->append(",\"truncated\":");
  out->append(U64(search.truncated));
  out->append(",\"relations\":[");
  bool first = true;
  for (const auto& [rel, access] : search.relations) {
    if (!first) out->append(",");
    first = false;
    AppendRelationAccessJson(out, rel, access);
  }
  out->append("]}");
}

void AppendChaseJson(std::string* out, const ChaseStats& chase) {
  out->append("{\"rounds\":");
  out->append(U64(chase.rounds));
  out->append(",\"tuples_added\":");
  out->append(U64(chase.tuples_added));
  out->append(",\"round_deltas\":[");
  for (size_t i = 0; i < chase.round_deltas.size(); ++i) {
    if (i > 0) out->append(",");
    out->append(U64(chase.round_deltas[i]));
  }
  out->append("],\"deps\":[");
  for (size_t i = 0; i < chase.deps.size(); ++i) {
    const DependencyStats& dep = chase.deps[i];
    if (i > 0) out->append(",");
    out->append("{\"tgd\":");
    out->append(U64(i));
    out->append(",\"triggers_tested\":");
    out->append(U64(dep.triggers_tested));
    out->append(",\"triggers_fired\":");
    out->append(U64(dep.triggers_fired));
    out->append(",\"tuples_added\":");
    out->append(U64(dep.tuples_added));
    out->append(",\"match\":");
    AppendSearchJson(out, dep.match);
    out->append("}");
  }
  out->append("]}");
}

void AppendCoverJson(std::string* out, const CoverStats& cover) {
  out->append("{\"index\":");
  out->append(U64(cover.cover_index));
  out->append(",\"size\":");
  out->append(U64(cover.cover_size));
  out->append(",\"passed_sub\":");
  out->append(cover.passed_sub ? "true" : "false");
  out->append(",\"reverse_chase\":");
  AppendChaseJson(out, cover.reverse_chase);
  out->append(",\"forward_chase\":");
  AppendChaseJson(out, cover.forward_chase);
  out->append(",\"g_hom\":");
  AppendSearchJson(out, cover.g_hom);
  out->append(",\"verify\":");
  AppendSearchJson(out, cover.verify);
  out->append(",\"source_atoms\":");
  out->append(U64(cover.source_atoms));
  out->append(",\"chased_atoms\":");
  out->append(U64(cover.chased_atoms));
  out->append(",\"g_homs\":");
  out->append(U64(cover.g_homs));
  out->append(",\"emitted\":");
  out->append(U64(cover.emitted));
  out->append(",\"rejected\":");
  out->append(U64(cover.rejected));
  out->append(",\"seconds\":{\"reverse\":");
  out->append(FormatDouble(cover.seconds_reverse));
  out->append(",\"forward\":");
  out->append(FormatDouble(cover.seconds_forward));
  out->append(",\"g_hom\":");
  out->append(FormatDouble(cover.seconds_ghom));
  out->append(",\"verify\":");
  out->append(FormatDouble(cover.seconds_verify));
  out->append("},\"alloc_bytes\":");
  out->append(U64(cover.alloc_bytes));
  out->append("}");
}

}  // namespace

std::string StatsJson() {
  std::string out = "{\"enabled\":";
  out.append(Enabled() ? "true" : "false");
  RunStats run;
  if (!LastRun(&run)) {
    out.append(",\"have_run\":false}");
    return out;
  }
  out.append(",\"have_run\":true,\"run\":{\"target_atoms\":");
  out.append(U64(run.target_atoms));
  out.append(",\"sub_constraints\":");
  out.append(U64(run.sub_constraints));
  out.append(",\"num_homs\":");
  out.append(U64(run.num_homs));
  out.append(",\"num_covers\":");
  out.append(U64(run.num_covers));
  out.append(",\"num_covers_passing_sub\":");
  out.append(U64(run.num_covers_passing_sub));
  out.append(",\"recoveries\":");
  out.append(U64(run.recoveries));
  out.append(",\"seconds_total\":");
  out.append(FormatDouble(run.seconds_total));
  out.append(",\"hom_enum\":");
  AppendSearchJson(&out, run.hom_enum);
  out.append(",\"relations\":[");
  bool first = true;
  for (const auto& [rel, access] : run.AggregateRelations()) {
    if (!first) out.append(",");
    first = false;
    AppendRelationAccessJson(&out, rel, access);
  }
  out.append("],\"covers\":[");
  for (size_t i = 0; i < run.covers.size(); ++i) {
    if (i > 0) out.append(",");
    AppendCoverJson(&out, run.covers[i]);
  }
  out.append("]}}");
  return out;
}

// ---------------------------------------------------------------------------
// Text rendering.

namespace {

// One row of the operator-tree table. `ms` is only consulted when the
// table was built with timing columns.
void AddTreeRow(TextTable* table, bool timing, const std::string& node,
                const std::string& work, const RelationAccess& access,
                const std::string& out, const std::string& ms) {
  std::vector<std::string> cells;
  cells.push_back(node);
  cells.push_back(work);
  if (access.tuples_scanned == 0 && access.tuples_matched == 0) {
    cells.push_back("");
    cells.push_back("");
    cells.push_back("");
  } else {
    cells.push_back(U64(access.tuples_scanned));
    cells.push_back(U64(access.tuples_matched));
    cells.push_back(FormatPct(access.Selectivity()));
  }
  cells.push_back(out);
  if (timing) cells.push_back(ms);
  table->AddRow(std::move(cells));
}

std::string SearchWork(const SearchStats& s) {
  std::string work = "searches=" + U64(s.searches) +
                     " cand=" + U64(s.candidates_tried) +
                     " bt=" + U64(s.backtracks);
  if (s.truncated > 0) work += " trunc=" + U64(s.truncated);
  return work;
}

void AddSearchRelationRows(TextTable* table, bool timing,
                           const std::string& indent,
                           const SearchStats& search) {
  for (const auto& [rel, access] : search.relations) {
    AddTreeRow(table, timing, indent + RelationName(rel),
               "lists=" + U64(access.lists) +
                   " idx=" + U64(access.indexed_lists),
               access, "", "");
  }
}

void AddChaseRows(TextTable* table, bool timing, const std::string& node,
                  const ChaseStats& chase, const std::string& out,
                  const std::string& ms, const std::string& indent) {
  RelationAccess totals;
  uint64_t tested = 0;
  uint64_t fired = 0;
  for (const DependencyStats& dep : chase.deps) {
    totals.Merge(dep.match.Totals());
    tested += dep.triggers_tested;
    fired += dep.triggers_fired;
  }
  AddTreeRow(table, timing, node,
             "rounds=" + U64(chase.rounds) + " tested=" + U64(tested) +
                 " fired=" + U64(fired),
             totals, out, ms);
  for (size_t r = 0; r < chase.round_deltas.size(); ++r) {
    AddTreeRow(table, timing, indent + "round " + U64(r + 1), "",
               RelationAccess(), "atoms=" + U64(chase.round_deltas[r]), "");
  }
  for (size_t i = 0; i < chase.deps.size(); ++i) {
    const DependencyStats& dep = chase.deps[i];
    if (dep.triggers_tested == 0 && dep.triggers_fired == 0) continue;
    AddTreeRow(table, timing, indent + "tgd " + U64(i),
               "tested=" + U64(dep.triggers_tested) +
                   " fired=" + U64(dep.triggers_fired),
               dep.match.Totals(), "atoms=" + U64(dep.tuples_added), "");
  }
}

}  // namespace

std::string RenderExplainAnalyze(const RunStats& run, bool include_timing) {
  std::string out;
  out.append("run: target_atoms=" + U64(run.target_atoms) +
             " homs=" + U64(run.num_homs) + " covers=" + U64(run.num_covers) +
             " passing_sub=" + U64(run.num_covers_passing_sub) +
             " sub_constraints=" + U64(run.sub_constraints) +
             " recoveries=" + U64(run.recoveries));
  if (include_timing) {
    out.append(" total_ms=" + FormatMs(run.seconds_total));
  }
  out.append("\n\naccess paths (whole run, per relation):\n");
  {
    TextTable table({"relation", "lists", "indexed", "scanned", "matched",
                     "sel%"});
    for (const auto& [rel, access] : run.AggregateRelations()) {
      table.AddRow({RelationName(rel), U64(access.lists),
                    U64(access.indexed_lists), U64(access.tuples_scanned),
                    U64(access.tuples_matched),
                    FormatPct(access.Selectivity())});
    }
    out.append(table.ToString());
  }

  out.append("\noperator tree:\n");
  std::vector<std::string> headers = {"node",    "work", "scanned",
                                      "matched", "sel%", "out"};
  if (include_timing) headers.push_back("ms");
  TextTable table(headers);
  AddTreeRow(&table, include_timing, "step1 hom_enum", SearchWork(run.hom_enum),
             run.hom_enum.Totals(), "homs=" + U64(run.num_homs), "");
  AddSearchRelationRows(&table, include_timing, "  ", run.hom_enum);
  for (const CoverStats& cover : run.covers) {
    double cover_ms = cover.seconds_reverse + cover.seconds_forward +
                      cover.seconds_ghom + cover.seconds_verify;
    std::string work = "size=" + U64(cover.cover_size) +
                       (cover.passed_sub ? " sub=pass" : " sub=fail");
    if (include_timing) work += " alloc=" + U64(cover.alloc_bytes);
    AddTreeRow(&table, include_timing, "cover " + U64(cover.cover_index), work,
               RelationAccess(), "emitted=" + U64(cover.emitted),
               FormatMs(cover_ms));
    if (!cover.passed_sub) continue;
    AddChaseRows(&table, include_timing, "  step4 reverse_chase",
                 cover.reverse_chase, "atoms=" + U64(cover.source_atoms),
                 include_timing ? FormatMs(cover.seconds_reverse) : "", "    ");
    AddChaseRows(&table, include_timing, "  step5 forward_chase",
                 cover.forward_chase, "atoms=" + U64(cover.chased_atoms),
                 include_timing ? FormatMs(cover.seconds_forward) : "", "    ");
    AddTreeRow(&table, include_timing, "  step6 g_hom", SearchWork(cover.g_hom),
               cover.g_hom.Totals(), "g_homs=" + U64(cover.g_homs),
               include_timing ? FormatMs(cover.seconds_ghom) : "");
    AddSearchRelationRows(&table, include_timing, "    ", cover.g_hom);
    AddTreeRow(&table, include_timing, "  step7 verify",
               SearchWork(cover.verify), cover.verify.Totals(),
               "emitted=" + U64(cover.emitted) +
                   " rejected=" + U64(cover.rejected),
               include_timing ? FormatMs(cover.seconds_verify) : "");
  }
  out.append(table.ToString());
  return out;
}

}  // namespace stats
}  // namespace obs
}  // namespace dxrec
