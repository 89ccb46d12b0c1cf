#include "core/certain.h"

#include "obs/metrics.h"
#include "obs/trace.h"

namespace dxrec {
namespace internal {

Result<AnswerSet> CertainAnswers(const UnionQuery& query,
                                 const DependencySet& sigma,
                                 const Instance& target,
                                 const InverseChaseOptions& options) {
  obs::Span span("certain_answers");
  if (obs::Enabled()) {
    static obs::Counter* queries =
        obs::MetricsRegistry::Global().GetCounter("certain.queries");
    queries->Add(1);
  }
  Result<InverseChaseResult> inverse = InverseChase(sigma, target, options);
  if (!inverse.ok()) return inverse.status();
  return CertainAnswersFrom(query, *inverse);
}

Result<AnswerSet> CertainAnswersFrom(const UnionQuery& query,
                                     const InverseChaseResult& inverse) {
  if (!inverse.valid_for_recovery()) {
    return Status::FailedPrecondition(
        "target instance is not valid for recovery under Sigma");
  }
  obs::Span span("certain_intersect");
  span.AddArg("recoveries", static_cast<int64_t>(inverse.recoveries.size()));
  return CertainAnswersOver(query, inverse.recoveries);
}

Result<AnswerSet> CertainAnswers(const ConjunctiveQuery& query,
                                 const DependencySet& sigma,
                                 const Instance& target,
                                 const InverseChaseOptions& options) {
  return CertainAnswers(UnionQuery::Of(query), sigma, target, options);
}

Result<bool> IsCertain(const AnswerTuple& tuple, const UnionQuery& query,
                       const DependencySet& sigma, const Instance& target,
                       const InverseChaseOptions& options) {
  Result<AnswerSet> answers = CertainAnswers(query, sigma, target, options);
  if (!answers.ok()) return answers.status();
  return answers->count(tuple) > 0;
}

}  // namespace internal
}  // namespace dxrec
