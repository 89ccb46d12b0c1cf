// dxrec::Engine: the single public entry point tying the pipeline
// together.
//
// Typical use:
//
//   auto sigma = ParseTgdSet("R(x,x,y) -> exists z: S(x,z); "
//                            "R(u,v,w) -> T(w); D(k,p) -> T(p)");
//   auto j = ParseInstance("{S(a,b), T(c), T(d)}");
//   Engine engine(std::move(*sigma),
//                 EngineOptions().WithThreads(4).WithDeadline(5.0));
//   auto recoveries = engine.Recover(*j);          // Chase^{-1}(Sigma, J)
//   auto q = ParseUnionQuery("Q(x) :- R(x,x,y)");
//   auto cert = engine.CertainAnswers(*q, *j);     // CERT(Q, Sigma, J)
//
// EngineOptions is layered: `budgets` caps every exponential search,
// `algorithms` picks variants/extensions, `parallel` sizes the worker
// pool, `obs` controls tracing/metrics, `resilience` wires deadlines,
// cancellation and the degradation ladder. The engine lowers these into
// the per-phase option structs (InverseChaseOptions & co.), which remain
// the internal plumbing API; the ToXxxOptions methods expose that
// lowering for callers who drive a phase directly.
//
// All exponential paths honor `budgets` and fail with ResourceExhausted
// rather than hanging.
#ifndef DXREC_CORE_ENGINE_H_
#define DXREC_CORE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "base/status.h"
#include "chase/evaluation.h"
#include "core/certain.h"
#include "core/compiled_mapping.h"
#include "core/cq_subuniversal.h"
#include "core/inverse_chase.h"
#include "core/max_recovery.h"
#include "core/repair.h"
#include "core/tractable.h"
#include "logic/dependency_set.h"
#include "logic/query.h"
#include "obs/trace.h"
#include "relational/instance.h"
#include "resilience/degraded.h"
#include "resilience/execution_context.h"
#include "util/store_once.h"
#include "util/thread_pool.h"

namespace dxrec {

// Deadline / cancellation / degradation policy for engine calls
// (docs/ROBUSTNESS.md). With everything unset the engine takes the exact
// same code paths as before: no ExecutionContext is constructed and the
// budgeted loops pay only their existing costs.
struct ResilienceOptions {
  // Wall-clock deadline per engine call, in seconds; <= 0 means none.
  // Expiry surfaces as a structured ResourceExhausted whose BudgetInfo
  // names the "resilience.deadline" budget (limit/consumed in micros).
  double deadline_seconds = 0;
  // Optional external cancel switch shared across calls; Cancel() makes
  // in-flight engine calls return ResourceExhausted at the next
  // checkpoint ("resilience.cancelled").
  std::shared_ptr<resilience::CancelToken> cancel;
  // Whether the *Degraded entry points fall back to sound
  // under-approximations when the exact path trips a budget, deadline or
  // cancellation. When false they behave like the exact entry points.
  bool degrade = true;
};

// Every budget the pipeline honors, in one flat section. Trips surface
// as structured ResourceExhausted errors naming the budget.
struct BudgetOptions {
  // Covering enumeration COV(Sigma, J) (core/cover.h).
  size_t max_covers = 1u << 16;
  size_t max_cover_nodes = 1u << 22;
  // Subsumption SUB(Sigma) (core/subsumption.h). max_sub_premises == 0
  // means |Sigma| - 1 (full subsumption).
  size_t max_sub_premises = 0;
  size_t max_sub_constraints = 4096;
  size_t max_sub_nodes = 1u << 22;
  // Inverse-chase emission (core/inverse_chase.h).
  size_t max_recoveries = 1u << 20;
  size_t max_g_homs_per_cover = 1u << 14;
  // Step 7's justification search per candidate over a target with
  // nulls (core/recovery.h). Like the g-hom cap, a trip fails the exact
  // calls and sends the degraded ones down the ladder.
  size_t max_justification_assignments = 200000;
  // Cross-cover shared work pool for g-homomorphism search; 0 = off.
  // Scheduling-dependent under threads > 1 (docs/PARALLELISM.md).
  uint64_t max_cover_work = 0;
  // Baseline maximum-recovery mapping (core/max_recovery.h).
  // max_recovery_subset_size == 0 means the max premise body size.
  size_t max_recovery_subset_size = 0;
  size_t max_recovery_nodes = 1u << 22;
  // Target repair (core/repair.h).
  size_t max_validity_checks = 512;
  size_t max_repairs = 64;
};

// Algorithm variants and extensions; defaults reproduce the paper's
// exact pipeline.
struct AlgorithmOptions {
  // Skip coverings violating SUB(Sigma) before the forward-chase check
  // (pure optimization; soundness is unaffected).
  bool use_subsumption_filter = true;
  // Approximation: enumerate only minimal covers. Faster, but certain
  // answers become upper bounds (see Example 7 in the paper).
  bool minimal_covers_only = false;
  // Collapse isomorphic recoveries (safe for certain answers).
  bool dedup_isomorphic = true;
  // Replace each recovery by its core before dedup.
  bool core_recoveries = false;
  // Record per-recovery provenance (InverseChaseResult::explanations).
  bool explain = false;
  // Extension: filter covers by SUB(Sigma) inside the sub-universal
  // instance construction (Sec. 6.2 open problem).
  bool subuniversal_sub_filter = false;
};

// Worker-pool sizing (util/thread_pool.h). The engine owns one pool for
// its lifetime and threads it into every parallelizable phase. Results
// are deterministic across thread counts (docs/PARALLELISM.md).
struct ParallelOptions {
  // 1 = sequential (no pool at all), 0 = hardware concurrency, else the
  // exact worker count.
  size_t threads = 1;
  // Per-worker bounded queue depth; full queues fall back to
  // caller-runs, so this only shapes scheduling, never drops work.
  size_t queue_capacity = 256;
  // Minimum root-candidate count before a single homomorphism search
  // fans out across the pool (below it, per-cover parallelism alone).
  size_t min_root_candidates = 1024;
};

// Layered engine configuration. Plain aggregate: set fields directly or
// chain the With* builders —
//   EngineOptions().WithThreads(4).WithMaxCovers(4096).WithExplain()
struct EngineOptions {
  BudgetOptions budgets;
  AlgorithmOptions algorithms;
  ParallelOptions parallel;
  // Observability (src/obs/): off by default; when enabled, pipeline
  // phases emit spans into obs::Tracer and counters into the global
  // metrics registry. Disabled instrumentation costs one relaxed atomic
  // load per site.
  obs::ObsOptions obs;
  // Deadlines, cancellation and the degradation ladder.
  ResilienceOptions resilience;

  // --- Fluent builder ------------------------------------------------
  EngineOptions& WithThreads(size_t threads) {
    parallel.threads = threads;
    return *this;
  }
  EngineOptions& WithDeadline(double seconds) {
    resilience.deadline_seconds = seconds;
    return *this;
  }
  EngineOptions& WithCancel(std::shared_ptr<resilience::CancelToken> token) {
    resilience.cancel = std::move(token);
    return *this;
  }
  EngineOptions& WithDegrade(bool on) {
    resilience.degrade = on;
    return *this;
  }
  EngineOptions& WithMaxCovers(size_t n) {
    budgets.max_covers = n;
    return *this;
  }
  EngineOptions& WithMaxRecoveries(size_t n) {
    budgets.max_recoveries = n;
    return *this;
  }
  EngineOptions& WithMaxGHomsPerCover(size_t n) {
    budgets.max_g_homs_per_cover = n;
    return *this;
  }
  EngineOptions& WithMaxCoverWork(uint64_t units) {
    budgets.max_cover_work = units;
    return *this;
  }
  EngineOptions& WithExplain(bool on = true) {
    algorithms.explain = on;
    return *this;
  }
  EngineOptions& WithCoreRecoveries(bool on = true) {
    algorithms.core_recoveries = on;
    return *this;
  }
  EngineOptions& WithMinimalCoversOnly(bool on = true) {
    algorithms.minimal_covers_only = on;
    return *this;
  }
  EngineOptions& WithObs(obs::ObsOptions o) {
    obs = std::move(o);
    return *this;
  }
  EngineOptions& WithEvents(bool on = true) {
    obs.enabled = obs.enabled || on;
    obs.events = on;
    return *this;
  }
  // Access-path statistics (obs/stats.h): per-relation / per-phase work
  // attribution feeding the "stats" report section and `explain analyze`.
  EngineOptions& WithStats(bool on = true) {
    obs.enabled = obs.enabled || on;
    obs.stats = on;
    return *this;
  }

  // --- Lowering to the per-phase option structs ----------------------
  // The engine calls these internally; they are public so callers who
  // drive a phase directly (tests, benches, the CLI's explain path) get
  // the same lowering. `context`/`pool`/`sub_cache` are threaded through
  // un-owned and may be null.
  InverseChaseOptions ToInverseChaseOptions(
      const resilience::ExecutionContext* context = nullptr,
      util::ThreadPool* pool = nullptr,
      SubsumptionCache* sub_cache = nullptr) const;
  SubsumptionOptions ToSubsumptionOptions(
      const resilience::ExecutionContext* context = nullptr,
      SubsumptionCache* sub_cache = nullptr) const;
  SubUniversalOptions ToSubUniversalOptions(
      const resilience::ExecutionContext* context = nullptr,
      SubsumptionCache* sub_cache = nullptr) const;
  MaxRecoveryOptions ToMaxRecoveryOptions(
      const resilience::ExecutionContext* context = nullptr) const;
  RepairOptions ToRepairOptions(
      const resilience::ExecutionContext* context = nullptr,
      util::ThreadPool* pool = nullptr,
      SubsumptionCache* sub_cache = nullptr) const;
};

// One (Sigma, J)'s exact Chase^{-1}(Sigma, J), built lazily and shared
// by every later call that passes the same cache. By Thm. 2 the set is
// query-independent, so one build answers every source UCQ. dxrecd keeps
// one per session (docs/SERVING.md).
//
// The owner must pass a cache only to engines over that same Sigma and
// J with the same budgets and algorithm options; deadline, cancellation
// and thread count may differ per call. Only exact outcomes are stored:
// a deadline, budget or cancel trip depends on the call, so the set is
// recomputed next time. Concurrent first calls may each build; the
// first Put wins (util/store_once.h).
using RecoveryCache = util::StoreOnce<InverseChaseResult>;

class Engine {
 public:
  // An engine over its own private compilation of `sigma`.
  explicit Engine(DependencySet sigma, EngineOptions options = EngineOptions())
      : Engine(std::make_shared<const CompiledMapping>(std::move(sigma)),
               std::move(options)) {}
  // An engine borrowing `mapping`, shared with every other engine over
  // it: SUB(Sigma) is computed at most once across all of them.
  explicit Engine(std::shared_ptr<const CompiledMapping> mapping,
                  EngineOptions options = EngineOptions())
      : mapping_(std::move(mapping)), options_(std::move(options)) {
    obs::Apply(options_.obs);
    const size_t threads = options_.parallel.threads == 0
                               ? util::ThreadPool::HardwareThreads()
                               : options_.parallel.threads;
    if (threads > 1) {
      util::ThreadPoolOptions pool_options;
      pool_options.queue_capacity = options_.parallel.queue_capacity;
      pool_ = std::make_unique<util::ThreadPool>(threads, pool_options);
    }
  }

  const DependencySet& sigma() const { return mapping_->sigma(); }
  const std::shared_ptr<const CompiledMapping>& mapping() const {
    return mapping_;
  }
  const EngineOptions& options() const { return options_; }
  // The engine's worker pool; null when parallel.threads == 1.
  util::ThreadPool* pool() const { return pool_.get(); }

  // Checks the mapping is well-formed: schemas inferable and disjoint.
  Status Validate() const;

  // --- Exact (exponential) path -------------------------------------
  // Chase^{-1}(Sigma, J) (Def. 9, Thms. 1-2).
  Result<InverseChaseResult> Recover(const Instance& target) const;
  // J-validity (Thm. 3).
  Result<bool> IsValid(const Instance& target) const;
  // CERT(Q, Sigma, J) for UCQs (Thm. 2 / Thm. 4).
  Result<AnswerSet> CertainAnswers(const UnionQuery& query,
                                   const Instance& target) const;

  // --- Degradation ladder (docs/ROBUSTNESS.md) ----------------------
  // Like CertainAnswers, but on a budget / deadline / cancellation trip
  // (and options.resilience.degrade) falls back down the ladder instead
  // of failing:
  //   rung "exact"               CERT(Q, Sigma, J)          kExact
  //   rung "sound_ucq"           Thm. 7 sound UCQ answers   kSoundUnderApprox
  //   rung "sound_ucq+sound_cq"  + Thms. 8-9 per-disjunct   kSoundUnderApprox
  // Fallback rungs are PTIME-ish and run without the tripped context.
  // Every degraded answer is certain (soundness per rung); completeness
  // is what is given up. Non-exhaustion errors still propagate.
  //
  // With a `cache`, the exact rung reads Chase^{-1}(Sigma, J) from it
  // when stored, and otherwise stores the set it computed if the build
  // completed. A null cache computes the set afresh on every call.
  Result<resilience::Degraded<AnswerSet>> CertainAnswersDegraded(
      const UnionQuery& query, const Instance& target,
      RecoveryCache* cache = nullptr) const;
  // Like Recover, but a trip returns the recoveries verified before the
  // interrupt (rung "partial", kPartial): each is a genuine recovery, the
  // set may be incomplete, so answer intersections over it are upper
  // bounds on CERT. `cache` as for CertainAnswersDegraded.
  Result<resilience::Degraded<InverseChaseResult>> RecoverDegraded(
      const Instance& target, RecoveryCache* cache = nullptr) const;

  // --- Tractable paths (Sec. 6) -------------------------------------
  Result<TractabilityReport> Analyze(const Instance& target) const;
  // Thm. 5.
  Result<Instance> CompleteUcqRecovery(const Instance& target) const;
  // Thm. 7: sound UCQ answers via the maximal uniquely covered subset.
  AnswerSet SoundUcqAnswers(const UnionQuery& query,
                            const Instance& target) const;
  // Sec. 6.2: I_{Sigma,J} and sound CQ answers (Thms. 8-9).
  Result<SubUniversalResult> SubUniversal(const Instance& target) const;
  Result<AnswerSet> SoundCqAnswers(const ConjunctiveQuery& query,
                                   const Instance& target) const;

  // --- Baseline (mapping-based inversion, [6, 8]) -------------------
  Result<DependencySet> MaximumRecoveryMapping() const;
  Result<Instance> BaselineRecoveredSource(const Instance& target) const;

  // --- Target repair (extension; see core/repair.h) ------------------
  Result<RepairResult> Repair(const Instance& target) const;
  Result<Instance> RepairGreedy(const Instance& target) const;

 private:
  // The prologue each entry point runs (engine.cc).
  class Call;

  std::shared_ptr<const CompiledMapping> mapping_;
  EngineOptions options_;
  // Long-lived worker pool shared by all calls on this engine. Created
  // once so repeated calls don't pay thread spin-up.
  std::unique_ptr<util::ThreadPool> pool_;
};

}  // namespace dxrec

#endif  // DXREC_CORE_ENGINE_H_
