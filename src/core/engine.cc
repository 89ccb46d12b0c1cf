#include "core/engine.h"

#include <utility>

#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/report.h"
#include "resilience/degraded.h"
#include "resilience/execution_context.h"

namespace dxrec {

namespace {

// Re-baselines the per-run metrics delta (obs/report.h) so each engine
// call reports its own numbers, then starts the call's progress heartbeat.
obs::ProgressScope MarkRun(const obs::ObsOptions& options) {
  if (obs::Enabled()) obs::MarkRunStart();
  return obs::ProgressScope(options.progress_seconds, options.progress_stderr);
}

// Arms `ctx` from the engine's resilience options and returns the pointer
// to thread into per-call options — null when neither a deadline nor a
// cancel token is set, so unconfigured calls take the exact pre-existing
// code paths (options.context stays null everywhere).
const resilience::ExecutionContext* Arm(const ResilienceOptions& r,
                                        resilience::ExecutionContext* ctx) {
  if (r.deadline_seconds > 0) ctx->SetDeadlineAfter(r.deadline_seconds);
  if (r.cancel != nullptr) ctx->SetCancelToken(r.cancel);
  return ctx->active() ? ctx : nullptr;
}

// RecoveryCache accounting. dxrecd is the only owner of a cache, so the
// counters carry its serve. prefix (docs/SERVING.md).
void CountRecoverySetHit() {
  if (obs::Enabled()) {
    static obs::Counter* hits =
        obs::MetricsRegistry::Global().GetCounter("serve.recovery_set_hits");
    hits->Add(1);
  }
}

// Stores a completed build in `cache` and returns the stored set, which
// is a racing caller's when that caller stored first. Every recovery's
// columnar snapshot is built first: the lazy build is the one mutation a
// const read can make, and the published set is read from many threads.
std::shared_ptr<const InverseChaseResult> StoreRecoverySet(
    RecoveryCache* cache, InverseChaseResult built) {
  if (obs::Enabled()) {
    static obs::Counter* builds = obs::MetricsRegistry::Global().GetCounter(
        "serve.recovery_set_builds");
    builds->Add(1);
  }
  for (const Instance& recovery : built.recoveries) recovery.WarmColumnar();
  return cache->Put(
      std::make_shared<const InverseChaseResult>(std::move(built)));
}

// The exact rung of CertainAnswersDegraded.
Result<AnswerSet> ExactCertainAnswers(const UnionQuery& query,
                                      const DependencySet& sigma,
                                      const Instance& target,
                                      const InverseChaseOptions& options,
                                      RecoveryCache* cache) {
  if (cache == nullptr) {
    return internal::CertainAnswers(query, sigma, target, options);
  }
  std::shared_ptr<const InverseChaseResult> set = cache->Get();
  if (set != nullptr) {
    CountRecoverySetHit();
  } else {
    Result<InverseChaseResult> built =
        internal::InverseChase(sigma, target, options);
    if (!built.ok()) return built.status();
    set = StoreRecoverySet(cache, std::move(*built));
  }
  return internal::CertainAnswersFrom(query, *set);
}

}  // namespace

// The prologue every entry point runs, as one stack object: MarkRun's
// metrics re-baseline and heartbeat, then the armed context, which the
// accessors lower into per-phase options. Held for the whole call, so the
// heartbeat is joined on every return path before the result is returned.
class Engine::Call {
 public:
  explicit Call(const Engine& engine)
      : engine_(engine),
        progress_(MarkRun(engine.options_.obs)),
        context_(Arm(engine.options_.resilience, &ctx_)) {}

  const resilience::ExecutionContext* context() const { return context_; }
  // The armed context at entry, for entry points whose phases may reach
  // no checkpoint on a small input.
  Status CheckPoint(const char* site, const char* phase) const {
    return resilience::CheckPoint(context_, site, phase);
  }
  InverseChaseOptions Inverse() const {
    return engine_.options_.ToInverseChaseOptions(context_, engine_.pool_.get(),
                                                  sub_cache());
  }
  RepairOptions Repair() const {
    return engine_.options_.ToRepairOptions(context_, engine_.pool_.get(),
                                            sub_cache());
  }
  SubsumptionOptions Subsumption() const {
    return engine_.options_.ToSubsumptionOptions(context_, sub_cache());
  }
  SubUniversalOptions SubUniversal() const {
    return engine_.options_.ToSubUniversalOptions(context_, sub_cache());
  }

 private:
  SubsumptionCache* sub_cache() const {
    return engine_.mapping_->subsumption();
  }

  const Engine& engine_;
  obs::ProgressScope progress_;
  resilience::ExecutionContext ctx_;
  const resilience::ExecutionContext* context_;
};

InverseChaseOptions EngineOptions::ToInverseChaseOptions(
    const resilience::ExecutionContext* context, util::ThreadPool* pool,
    SubsumptionCache* sub_cache) const {
  InverseChaseOptions o;
  o.cover.max_covers = budgets.max_covers;
  o.cover.max_nodes = budgets.max_cover_nodes;
  o.cover.context = context;
  o.subsumption = ToSubsumptionOptions(context, sub_cache);
  o.use_subsumption_filter = algorithms.use_subsumption_filter;
  o.minimal_covers_only = algorithms.minimal_covers_only;
  o.max_recoveries = budgets.max_recoveries;
  o.max_g_homs_per_cover = budgets.max_g_homs_per_cover;
  o.max_justification_assignments = budgets.max_justification_assignments;
  o.max_cover_work = budgets.max_cover_work;
  o.dedup_isomorphic = algorithms.dedup_isomorphic;
  o.core_recoveries = algorithms.core_recoveries;
  o.explain = algorithms.explain;
  o.num_threads = parallel.threads;
  o.pool = pool;
  o.parallel_min_candidates = parallel.min_root_candidates;
  o.context = context;
  return o;
}

SubsumptionOptions EngineOptions::ToSubsumptionOptions(
    const resilience::ExecutionContext* context,
    SubsumptionCache* sub_cache) const {
  SubsumptionOptions o;
  o.max_premises = budgets.max_sub_premises;
  o.max_constraints = budgets.max_sub_constraints;
  o.max_nodes = budgets.max_sub_nodes;
  o.context = context;
  o.cache = sub_cache;
  return o;
}

SubUniversalOptions EngineOptions::ToSubUniversalOptions(
    const resilience::ExecutionContext* context,
    SubsumptionCache* sub_cache) const {
  SubUniversalOptions o;
  o.cover.max_covers = budgets.max_covers;
  o.cover.max_nodes = budgets.max_cover_nodes;
  o.cover.context = context;
  o.filter_covers_by_subsumption = algorithms.subuniversal_sub_filter;
  o.subsumption = ToSubsumptionOptions(context, sub_cache);
  return o;
}

MaxRecoveryOptions EngineOptions::ToMaxRecoveryOptions(
    const resilience::ExecutionContext* context) const {
  MaxRecoveryOptions o;
  o.max_subset_size = budgets.max_recovery_subset_size;
  o.max_nodes = budgets.max_recovery_nodes;
  o.context = context;
  return o;
}

RepairOptions EngineOptions::ToRepairOptions(
    const resilience::ExecutionContext* context, util::ThreadPool* pool,
    SubsumptionCache* sub_cache) const {
  RepairOptions o;
  o.max_validity_checks = budgets.max_validity_checks;
  o.max_repairs = budgets.max_repairs;
  o.inverse = ToInverseChaseOptions(context, pool, sub_cache);
  return o;
}

Status Engine::Validate() const {
  Result<MappingSchema> schema = sigma().InferSchema();
  if (!schema.ok()) return schema.status();
  return schema->Validate();
}

Result<InverseChaseResult> Engine::Recover(const Instance& target) const {
  Call call(*this);
  // Pass-through keeps the full Status — in particular the BudgetInfo
  // payload of ResourceExhausted trips (see EngineBudget* tests).
  return internal::InverseChase(sigma(), target, call.Inverse());
}

Result<bool> Engine::IsValid(const Instance& target) const {
  Call call(*this);
  return internal::IsValidForRecovery(sigma(), target, call.Inverse());
}

Result<AnswerSet> Engine::CertainAnswers(const UnionQuery& query,
                                         const Instance& target) const {
  Call call(*this);
  return internal::CertainAnswers(query, sigma(), target, call.Inverse());
}

Result<resilience::Degraded<AnswerSet>> Engine::CertainAnswersDegraded(
    const UnionQuery& query, const Instance& target,
    RecoveryCache* cache) const {
  Call call(*this);
  Result<AnswerSet> exact =
      ExactCertainAnswers(query, sigma(), target, call.Inverse(), cache);
  resilience::Degraded<AnswerSet> out;
  if (exact.ok()) {
    out.value = std::move(*exact);
    return out;  // info defaults to kExact / "exact".
  }
  Status cause = exact.status();
  if (!options_.resilience.degrade ||
      cause.code() != StatusCode::kResourceExhausted) {
    return cause;
  }
  // Rung 2 — Thm. 7: answers over the source reverse-chased from the
  // maximal uniquely covered subset. Quadratic; runs without the tripped
  // context (it would trip again immediately).
  out.value = internal::SoundUcqAnswers(query, sigma(), target);
  out.info.completeness = resilience::Completeness::kSoundUnderApprox;
  out.info.rung = "sound_ucq";
  out.info.cause = std::move(cause);
  // Rung 3 — Thms. 8-9: per-disjunct answers over I_{Sigma,J}. Sound for
  // the UCQ (a null-free answer of one disjunct over I_{Sigma,J} is an
  // answer of that disjunct, hence of Q, over every recovery). This rung
  // is budgeted on its own; a trip here just leaves the rung-2 answers.
  Result<SubUniversalResult> sub_universal = internal::ComputeCqSubUniversal(
      sigma(), target,
      options_.ToSubUniversalOptions(nullptr, mapping_->subsumption()));
  if (sub_universal.ok()) {
    size_t before = out.value.size();
    AnswerSet cq_answers = EvaluateNullFree(query, sub_universal->instance);
    out.value.insert(cq_answers.begin(), cq_answers.end());
    if (out.value.size() > before) out.info.rung = "sound_ucq+sound_cq";
  }
  resilience::RecordDegradation("certain_answers", out.info);
  return out;
}

Result<resilience::Degraded<InverseChaseResult>> Engine::RecoverDegraded(
    const Instance& target, RecoveryCache* cache) const {
  Call call(*this);
  resilience::Degraded<InverseChaseResult> out;
  if (cache != nullptr) {
    if (std::shared_ptr<const InverseChaseResult> set = cache->Get()) {
      CountRecoverySetHit();
      out.value = *set;
      return out;
    }
  }
  Status interrupt;
  out.value = internal::InverseChasePartial(sigma(), target, call.Inverse(),
                                           &interrupt);
  if (interrupt.ok()) {
    if (cache != nullptr) {
      out.value = *StoreRecoverySet(cache, std::move(out.value));
    }
    return out;
  }
  if (!options_.resilience.degrade ||
      interrupt.code() != StatusCode::kResourceExhausted) {
    return interrupt;
  }
  out.info.completeness = resilience::Completeness::kPartial;
  out.info.rung = "partial";
  out.info.cause = std::move(interrupt);
  resilience::RecordDegradation("recover", out.info);
  return out;
}

Result<TractabilityReport> Engine::Analyze(const Instance& target) const {
  Call call(*this);
  Status entry = call.CheckPoint("engine.analyze", "analyze");
  if (!entry.ok()) return entry;
  return internal::AnalyzeTractability(sigma(), target, call.Subsumption());
}

Result<Instance> Engine::CompleteUcqRecovery(const Instance& target) const {
  Call call(*this);
  Status entry =
      call.CheckPoint("engine.complete_ucq_recovery", "complete_ucq");
  if (!entry.ok()) return entry;
  return internal::CompleteUcqRecovery(sigma(), target, call.Subsumption());
}

AnswerSet Engine::SoundUcqAnswers(const UnionQuery& query,
                                  const Instance& target) const {
  Call call(*this);
  return internal::SoundUcqAnswers(query, sigma(), target);
}

Result<SubUniversalResult> Engine::SubUniversal(const Instance& target) const {
  Call call(*this);
  Status entry = call.CheckPoint("engine.sub_universal", "sub_universal");
  if (!entry.ok()) return entry;
  return internal::ComputeCqSubUniversal(sigma(), target,
                                         call.SubUniversal());
}

Result<AnswerSet> Engine::SoundCqAnswers(const ConjunctiveQuery& query,
                                         const Instance& target) const {
  Call call(*this);
  Status entry = call.CheckPoint("engine.sound_cq_answers", "sound_cq");
  if (!entry.ok()) return entry;
  return internal::SoundCqAnswers(query, sigma(), target,
                                  call.SubUniversal());
}

Result<DependencySet> Engine::MaximumRecoveryMapping() const {
  Call call(*this);
  return internal::CqMaximumRecoveryMapping(
      sigma(), options_.ToMaxRecoveryOptions(call.context()));
}

Result<Instance> Engine::BaselineRecoveredSource(const Instance& target) const {
  Call call(*this);
  return internal::MaxRecoveryChase(
      sigma(), target, options_.ToMaxRecoveryOptions(call.context()));
}

Result<RepairResult> Engine::Repair(const Instance& target) const {
  Call call(*this);
  return internal::RepairTarget(sigma(), target, call.Repair());
}

Result<Instance> Engine::RepairGreedy(const Instance& target) const {
  Call call(*this);
  return internal::GreedyRepair(sigma(), target, call.Repair());
}

}  // namespace dxrec
