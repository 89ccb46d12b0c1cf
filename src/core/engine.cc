#include "core/engine.h"

#include <utility>

#include "obs/progress.h"
#include "obs/report.h"
#include "resilience/degraded.h"
#include "resilience/execution_context.h"

namespace dxrec {

namespace {

// Re-baselines the per-run metrics delta (obs/report.h) so each engine
// call reports its own numbers, not the process lifetime's.
void MarkRun() {
  if (obs::Enabled()) obs::MarkRunStart();
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

}  // namespace

InverseChaseOptions EngineOptions::ToInverseChaseOptions(
    const resilience::ExecutionContext* context,
    util::ThreadPool* pool) const {
  InverseChaseOptions o;
  o.cover.max_covers = budgets.max_covers;
  o.cover.max_nodes = budgets.max_cover_nodes;
  o.cover.context = context;
  o.subsumption = ToSubsumptionOptions(context);
  o.use_subsumption_filter = algorithms.use_subsumption_filter;
  o.minimal_covers_only = algorithms.minimal_covers_only;
  o.max_recoveries = budgets.max_recoveries;
  o.max_g_homs_per_cover = budgets.max_g_homs_per_cover;
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
    const resilience::ExecutionContext* context) const {
  SubsumptionOptions o;
  o.max_premises = budgets.max_sub_premises;
  o.max_constraints = budgets.max_sub_constraints;
  o.max_nodes = budgets.max_sub_nodes;
  o.context = context;
  return o;
}

SubUniversalOptions EngineOptions::ToSubUniversalOptions(
    const resilience::ExecutionContext* context) const {
  SubUniversalOptions o;
  o.cover.max_covers = budgets.max_covers;
  o.cover.max_nodes = budgets.max_cover_nodes;
  o.cover.context = context;
  o.filter_covers_by_subsumption = algorithms.subuniversal_sub_filter;
  o.subsumption = ToSubsumptionOptions(context);
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
    const resilience::ExecutionContext* context,
    util::ThreadPool* pool) const {
  RepairOptions o;
  o.max_validity_checks = budgets.max_validity_checks;
  o.max_repairs = budgets.max_repairs;
  o.inverse = ToInverseChaseOptions(context, pool);
  return o;
}

Status Engine::Validate() const {
  Result<MappingSchema> schema = sigma_.InferSchema();
  if (!schema.ok()) return schema.status();
  return schema->Validate();
}

Result<InverseChaseResult> Engine::Recover(const Instance& target) const {
  MarkRun();
  obs::ProgressScope progress(options_.obs.progress_seconds,
                              options_.obs.progress_stderr);
  resilience::ExecutionContext ctx;
  InverseChaseOptions options = options_.ToInverseChaseOptions(
      Arm(options_.resilience, &ctx), pool_.get());
  // Pass-through keeps the full Status — in particular the BudgetInfo
  // payload of ResourceExhausted trips (see EngineBudget* tests).
  return internal::InverseChase(sigma_, target, options);
}

Result<bool> Engine::IsValid(const Instance& target) const {
  MarkRun();
  obs::ProgressScope progress(options_.obs.progress_seconds,
                              options_.obs.progress_stderr);
  resilience::ExecutionContext ctx;
  InverseChaseOptions options = options_.ToInverseChaseOptions(
      Arm(options_.resilience, &ctx), pool_.get());
  return internal::IsValidForRecovery(sigma_, target, options);
}

Result<bool> Engine::IsUniversalForSomeSource(const Instance& target) const {
  MarkRun();
  obs::ProgressScope progress(options_.obs.progress_seconds,
                              options_.obs.progress_stderr);
  resilience::ExecutionContext ctx;
  InverseChaseOptions options = options_.ToInverseChaseOptions(
      Arm(options_.resilience, &ctx), pool_.get());
  return internal::IsUniversalSolutionForSomeSource(sigma_, target, options);
}

Result<bool> Engine::IsCanonicalForSomeSource(const Instance& target) const {
  MarkRun();
  obs::ProgressScope progress(options_.obs.progress_seconds,
                              options_.obs.progress_stderr);
  resilience::ExecutionContext ctx;
  InverseChaseOptions options = options_.ToInverseChaseOptions(
      Arm(options_.resilience, &ctx), pool_.get());
  return internal::IsCanonicalSolutionForSomeSource(sigma_, target, options);
}

Result<AnswerSet> Engine::CertainAnswers(const UnionQuery& query,
                                         const Instance& target) const {
  MarkRun();
  obs::ProgressScope progress(options_.obs.progress_seconds,
                              options_.obs.progress_stderr);
  resilience::ExecutionContext ctx;
  InverseChaseOptions options = options_.ToInverseChaseOptions(
      Arm(options_.resilience, &ctx), pool_.get());
  return internal::CertainAnswers(query, sigma_, target, options);
}

Result<resilience::Degraded<AnswerSet>> Engine::CertainAnswersDegraded(
    const UnionQuery& query, const Instance& target) const {
  MarkRun();
  obs::ProgressScope progress(options_.obs.progress_seconds,
                              options_.obs.progress_stderr);
  resilience::ExecutionContext ctx;
  InverseChaseOptions options = options_.ToInverseChaseOptions(
      Arm(options_.resilience, &ctx), pool_.get());
  Result<AnswerSet> exact =
      internal::CertainAnswers(query, sigma_, target, options);
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
  out.value = internal::SoundUcqAnswers(query, sigma_, target);
  out.info.completeness = resilience::Completeness::kSoundUnderApprox;
  out.info.rung = "sound_ucq";
  out.info.cause = std::move(cause);
  // Rung 3 — Thms. 8-9: per-disjunct answers over I_{Sigma,J}. Sound for
  // the UCQ (a null-free answer of one disjunct over I_{Sigma,J} is an
  // answer of that disjunct, hence of Q, over every recovery). This rung
  // is budgeted on its own; a trip here just leaves the rung-2 answers.
  Result<SubUniversalResult> sub_universal = internal::ComputeCqSubUniversal(
      sigma_, target, options_.ToSubUniversalOptions(nullptr));
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
    const Instance& target) const {
  MarkRun();
  obs::ProgressScope progress(options_.obs.progress_seconds,
                              options_.obs.progress_stderr);
  resilience::ExecutionContext ctx;
  InverseChaseOptions options = options_.ToInverseChaseOptions(
      Arm(options_.resilience, &ctx), pool_.get());
  resilience::Degraded<InverseChaseResult> out;
  Status interrupt;
  out.value = internal::InverseChasePartial(sigma_, target, options, &interrupt);
  if (interrupt.ok()) return out;
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
  MarkRun();
  resilience::ExecutionContext ctx;
  return internal::AnalyzeTractability(
      sigma_, target,
      options_.ToSubsumptionOptions(Arm(options_.resilience, &ctx)));
}

Result<Instance> Engine::CompleteUcqRecovery(const Instance& target) const {
  MarkRun();
  resilience::ExecutionContext ctx;
  return internal::CompleteUcqRecovery(
      sigma_, target,
      options_.ToSubsumptionOptions(Arm(options_.resilience, &ctx)));
}

AnswerSet Engine::SoundUcqAnswers(const UnionQuery& query,
                                  const Instance& target) const {
  MarkRun();
  return internal::SoundUcqAnswers(query, sigma_, target);
}

Result<SubUniversalResult> Engine::SubUniversal(const Instance& target) const {
  MarkRun();
  obs::ProgressScope progress(options_.obs.progress_seconds,
                              options_.obs.progress_stderr);
  resilience::ExecutionContext ctx;
  return internal::ComputeCqSubUniversal(
      sigma_, target,
      options_.ToSubUniversalOptions(Arm(options_.resilience, &ctx)));
}

Result<AnswerSet> Engine::SoundCqAnswers(const ConjunctiveQuery& query,
                                         const Instance& target) const {
  MarkRun();
  obs::ProgressScope progress(options_.obs.progress_seconds,
                              options_.obs.progress_stderr);
  resilience::ExecutionContext ctx;
  return internal::SoundCqAnswers(
      query, sigma_, target,
      options_.ToSubUniversalOptions(Arm(options_.resilience, &ctx)));
}

Result<DependencySet> Engine::MaximumRecoveryMapping() const {
  MarkRun();
  obs::ProgressScope progress(options_.obs.progress_seconds,
                              options_.obs.progress_stderr);
  resilience::ExecutionContext ctx;
  return internal::CqMaximumRecoveryMapping(
      sigma_, options_.ToMaxRecoveryOptions(Arm(options_.resilience, &ctx)));
}

Result<Instance> Engine::BaselineRecoveredSource(const Instance& target) const {
  MarkRun();
  obs::ProgressScope progress(options_.obs.progress_seconds,
                              options_.obs.progress_stderr);
  resilience::ExecutionContext ctx;
  return internal::MaxRecoveryChase(
      sigma_, target,
      options_.ToMaxRecoveryOptions(Arm(options_.resilience, &ctx)));
}

Result<RepairResult> Engine::Repair(const Instance& target) const {
  MarkRun();
  obs::ProgressScope progress(options_.obs.progress_seconds,
                              options_.obs.progress_stderr);
  resilience::ExecutionContext ctx;
  return internal::RepairTarget(sigma_, target,
                      options_.ToRepairOptions(Arm(options_.resilience, &ctx),
                                               pool_.get()));
}

Result<Instance> Engine::RepairGreedy(const Instance& target) const {
  MarkRun();
  obs::ProgressScope progress(options_.obs.progress_seconds,
                              options_.obs.progress_stderr);
  resilience::ExecutionContext ctx;
  return internal::GreedyRepair(sigma_, target,
                      options_.ToRepairOptions(Arm(options_.resilience, &ctx),
                                               pool_.get()));
}

}  // namespace dxrec
