#include "chase/evaluation.h"

#include <algorithm>

#include "chase/homomorphism.h"
#include "obs/stats.h"

namespace dxrec {

namespace {

bool NullFree(const AnswerTuple& tuple) {
  for (Term t : tuple) {
    if (t.is_null()) return false;
  }
  return true;
}

}  // namespace

AnswerSet Evaluate(const ConjunctiveQuery& query, const Instance& instance) {
  AnswerSet out;
  ForEachHomomorphism(query.body(), instance, HomSearchOptions(),
                      [&](const Substitution& h) {
                        out.insert(h.Apply(query.free_vars()));
                        return true;
                      });
  // Access-path accounting: the body-match search above already lands in
  // whatever search sink is installed; here we only tally the query.
  obs::stats::NoteEvaluation(out.size());
  return out;
}

AnswerSet Evaluate(const UnionQuery& query, const Instance& instance) {
  AnswerSet out;
  for (const ConjunctiveQuery& cq : query.disjuncts()) {
    AnswerSet part = Evaluate(cq, instance);
    out.insert(part.begin(), part.end());
  }
  return out;
}

AnswerSet EvaluateNullFree(const ConjunctiveQuery& query,
                           const Instance& instance) {
  AnswerSet all = Evaluate(query, instance);
  AnswerSet out;
  for (const AnswerTuple& t : all) {
    if (NullFree(t)) out.insert(t);
  }
  return out;
}

AnswerSet EvaluateNullFree(const UnionQuery& query, const Instance& instance,
                           InstanceLayout) {
  AnswerSet all = Evaluate(query, instance);
  AnswerSet out;
  for (const AnswerTuple& t : all) {
    if (NullFree(t)) out.insert(t);
  }
  return out;
}

AnswerSet CertainAnswersOver(const UnionQuery& query,
                             const std::vector<Instance>& instances) {
  AnswerSet out;
  bool first = true;
  for (const Instance& instance : instances) {
    AnswerSet answers = EvaluateNullFree(query, instance);
    if (first) {
      out = std::move(answers);
      first = false;
    } else {
      AnswerSet intersection;
      std::set_intersection(
          out.begin(), out.end(), answers.begin(), answers.end(),
          std::inserter(intersection, intersection.begin()));
      out = std::move(intersection);
    }
    if (out.empty()) break;
  }
  return out;
}

bool Holds(const UnionQuery& query, const Instance& instance) {
  for (const ConjunctiveQuery& cq : query.disjuncts()) {
    if (FindHomomorphism(cq.body(), instance).has_value()) {
      return true;
    }
  }
  return false;
}

}  // namespace dxrec
