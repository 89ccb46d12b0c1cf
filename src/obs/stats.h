// Access-path statistics: per-relation / per-phase work attribution over
// the inverse chase (EXPLAIN ANALYZE for pipeline steps 1-7).
//
// Where the span tree (obs/trace.h) says *where time goes*, this subsystem
// says *why*: how many tuples each relation scan touched, how wide
// hom-search candidate fan-out got, how selective chase-trigger matching
// was. Those are exactly the numbers that justify — and then score — the
// columnar/indexed evaluation refactor (ROADMAP item 1).
//
// Collection contract mirrors obs::Enabled(): one relaxed atomic load on
// the disabled path. Hot paths (the hom-search matcher) sample the gate
// once per search and thereafter pay plain integer increments into
// search-local structs, which are merged into a thread-local sink at
// search end. Per-cover rollups are merged index-ordered by the engine so
// `threads=N` output is byte-identical to sequential (the determinism
// contract of docs/PARALLELISM.md extends to these counters on complete,
// non-truncated searches).
//
// The aggregated result of one engine run is a RunStats operator tree:
//
//   run
//   ├── step 1  hom enumeration        (SearchStats, per-relation access)
//   └── cover k                        (CoverStats, index-ordered)
//       ├── step 4  reverse chase      (ChaseStats: per-dependency firings)
//       ├── step 5  forward chase      (ChaseStats: tested vs fired, deltas)
//       ├── step 6  g-hom search       (SearchStats: candidate fan-out)
//       └── step 7  verify             (SearchStats, slice-merged)
//
// exposed three ways: a "stats" section in the JSON run report
// (obs/report.h), `stats.*` OpenMetrics families through the exporter
// registry (lazily created, so a stats-off process exports none), and the
// CLI's `explain analyze` rendering (RenderExplainAnalyze).
#ifndef DXREC_OBS_STATS_H_
#define DXREC_OBS_STATS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace dxrec {
namespace obs {
namespace stats {

namespace internal {
inline std::atomic<bool> g_stats_enabled{false};
}  // namespace internal

// Gate for all access-path accounting. Independent of obs::Enabled():
// stats can run without spans and vice versa. Reading is one relaxed
// load, cheap enough for inner loops.
inline bool Enabled() {
  return internal::g_stats_enabled.load(std::memory_order_relaxed);
}
void SetEnabled(bool enabled);

// Work done against one relation's tuple lists during matching.
//   lists          candidate lists acquired (Rows / Probe calls)
//   indexed_lists  how many of those came from a position index probe
//   tuples_scanned candidates pulled from those lists (fan-out)
//   tuples_matched candidates that unified with the pattern atom
struct RelationAccess {
  uint64_t lists = 0;
  uint64_t indexed_lists = 0;
  uint64_t tuples_scanned = 0;
  uint64_t tuples_matched = 0;

  void Merge(const RelationAccess& other);
  // matched / scanned in [0, 1]; 0 when nothing was scanned.
  double Selectivity() const;
};

// One (or several merged) homomorphism searches. Relation keys are the
// globally interned RelationId values (relational/schema.h), kept as
// uint32_t here so obs/ stays header-independent of relational/.
struct SearchStats {
  uint64_t searches = 0;
  uint64_t candidates_tried = 0;
  uint64_t backtracks = 0;
  uint64_t results = 0;
  uint64_t truncated = 0;  // searches cut off by max_results
  std::map<uint32_t, RelationAccess> relations;

  void Merge(const SearchStats& other);
  // Sum of all per-relation access rows.
  RelationAccess Totals() const;
};

// Trigger work attributed to one dependency (tgd) of a chase.
struct DependencyStats {
  uint64_t triggers_tested = 0;  // body homomorphisms found
  uint64_t triggers_fired = 0;   // of those, fired (head not yet satisfied)
  uint64_t tuples_added = 0;     // atoms the firings appended
  SearchStats match;             // the body-matching searches themselves

  void Merge(const DependencyStats& other);
};

// One chase run: per-dependency trigger attribution plus per-round
// semi-naive-readiness deltas (tuples added per round — the `delta`
// a semi-naive evaluator would match against; see ROADMAP item 1).
struct ChaseStats {
  uint64_t rounds = 0;
  uint64_t tuples_added = 0;
  std::vector<uint64_t> round_deltas;
  std::vector<DependencyStats> deps;  // indexed by TgdId

  void EnsureDeps(size_t n);
  void Merge(const ChaseStats& other);
};

// Rollup for one cover (pipeline steps 4-7). Produced on whatever pool
// thread processed the cover; merged into RunStats in cover-index order.
struct CoverStats {
  uint64_t cover_index = 0;
  uint64_t cover_size = 0;    // homs in the cover
  bool passed_sub = false;    // survived the SUB(Sigma) filter (step 3')
  ChaseStats reverse_chase;   // step 4
  ChaseStats forward_chase;   // step 5
  SearchStats g_hom;          // step 6
  SearchStats verify;         // step 7, merged in slice order
  uint64_t source_atoms = 0;  // |K| after the reverse chase
  uint64_t chased_atoms = 0;  // |chase(K)|
  uint64_t g_homs = 0;        // candidate g's found in step 6
  uint64_t emitted = 0;       // recoveries emitted by this cover
  uint64_t rejected = 0;      // candidates rejected in step 7
  // Wall time per phase (from the cover's phase stopwatches, which also
  // feed the span tree). Excluded from the deterministic rendering.
  double seconds_reverse = 0;
  double seconds_forward = 0;
  double seconds_ghom = 0;
  double seconds_verify = 0;
  // Bytes allocated on the cover's thread while processing it (0 unless
  // obs::alloc is enabled). Excluded from the deterministic rendering.
  uint64_t alloc_bytes = 0;
};

// The per-run operator tree.
struct RunStats {
  bool valid = false;  // false: stats were disabled during the run
  uint64_t target_atoms = 0;
  uint64_t sub_constraints = 0;
  SearchStats hom_enum;  // step 1: ComputeHomSet
  uint64_t num_homs = 0;
  uint64_t num_covers = 0;
  uint64_t num_covers_passing_sub = 0;
  std::vector<CoverStats> covers;  // cover-index order
  uint64_t recoveries = 0;
  double seconds_total = 0;

  // Whole-run per-relation access rows: hom_enum + every cover's chase
  // matching, g-hom and verify searches, merged per relation.
  std::map<uint32_t, RelationAccess> AggregateRelations() const;
};

// ---------------------------------------------------------------------------
// Thread-local sinks. Instrumented code records into whatever sink is
// installed on its thread; RAII installers scope attribution to a phase.
// An inner scope shadows the outer one (a chase's per-dependency match
// stats are not double-counted into the enclosing cover phase).
// Constructing with nullptr is a no-op (keeps the current sink).

SearchStats* CurrentSearchSink();
ChaseStats* CurrentChaseSink();

class ScopedSearch {
 public:
  explicit ScopedSearch(SearchStats* target);
  ~ScopedSearch();
  ScopedSearch(const ScopedSearch&) = delete;
  ScopedSearch& operator=(const ScopedSearch&) = delete;

 private:
  bool installed_ = false;
  SearchStats* prev_ = nullptr;
};

class ScopedChase {
 public:
  explicit ScopedChase(ChaseStats* target);
  ~ScopedChase();
  ScopedChase(const ScopedChase&) = delete;
  ScopedChase& operator=(const ScopedChase&) = delete;

 private:
  bool installed_ = false;
  ChaseStats* prev_ = nullptr;
};

// ---------------------------------------------------------------------------
// Recording entry points (all no-ops unless Enabled()).

// Called once per finished logical search (sequential run, or the merged
// aggregate of a chunked parallel search): merges into the thread's
// search sink and flushes `stats.search.*` registry counters.
void RecordSearch(const SearchStats& search);

// Instance access-path counters (`stats.instance.*`). Out-of-line so the
// hot path pays only the Enabled() branch when disabled.
void NoteFullScan();
void NoteIndexProbe();

// Chase round flush (`stats.chase.*` registry counters).
void NoteChaseRound(uint64_t triggers_tested, uint64_t triggers_fired,
                    uint64_t tuples_added);

// CQ evaluation counters (`stats.eval.*`).
void NoteEvaluation(uint64_t answers);

// ---------------------------------------------------------------------------
// Last-run snapshot (set by RunInverseChase when Enabled()).

void SetLastRun(RunStats run);
// Copies the most recent run's stats into *out. False if no run has been
// recorded since process start (or since stats were enabled).
bool LastRun(RunStats* out);

// Flushes run-level rollups (`stats.run.*`) to the metrics registry.
void FlushRunToMetrics(const RunStats& run);

// ---------------------------------------------------------------------------
// Rendering.

// JSON object for the run report's "stats" section: {"enabled":...} plus
// the full operator tree of the last run when one exists.
std::string StatsJson();

// Deterministic text rendering of the operator tree (util/table.h):
// run summary, whole-run per-relation selectivity table, and the
// cover -> chase rounds -> dependency triggers / per-search fan-out tree.
// With include_timing, phase rows gain wall-time ms and covers gain
// alloc bytes — timing output is *not* byte-stable across runs, which is
// why it is opt-in (`explain analyze timing`), mirroring EXPLAIN
// (ANALYZE, TIMING OFF) practice.
std::string RenderExplainAnalyze(const RunStats& run, bool include_timing);

}  // namespace stats
}  // namespace obs
}  // namespace dxrec

#endif  // DXREC_OBS_STATS_H_
