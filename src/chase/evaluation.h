// Query evaluation and certain answers (paper, Secs. 2-3).
//
// Q(I)  : all answer tuples h(x) over homomorphisms h from the body to I
//         (answers may contain nulls).
// Q(I)| : the null-free answers (the paper's "Q(I) down-arrow").
// CERT  : intersection of null-free answers across a set of instances --
//         with REC(Sigma, J) replaced by a representative finite set such
//         as Chase^{-1}(Sigma, J) (Thm. 2).
#ifndef DXREC_CHASE_EVALUATION_H_
#define DXREC_CHASE_EVALUATION_H_

#include <vector>

#include "logic/printer.h"
#include "logic/query.h"
#include "relational/columnar.h"
#include "relational/instance.h"

namespace dxrec {

// Q(I) for a CQ. Answers may contain nulls.
AnswerSet Evaluate(const ConjunctiveQuery& query, const Instance& instance);

// Q(I) for a UCQ (union of the disjunct results).
AnswerSet Evaluate(const UnionQuery& query, const Instance& instance);

// Null-free answers only. The UCQ overload's trailing InstanceLayout is
// ignored; it stays only until dxrec-bench/layers.cc stops passing it.
AnswerSet EvaluateNullFree(const ConjunctiveQuery& query,
                           const Instance& instance);
AnswerSet EvaluateNullFree(const UnionQuery& query, const Instance& instance,
                           InstanceLayout = InstanceLayout::kColumnar);

// Intersection of null-free answers over `instances`. An empty list yields
// an empty answer set (there is nothing to be certain about).
AnswerSet CertainAnswersOver(const UnionQuery& query,
                             const std::vector<Instance>& instances);

// True iff the Boolean query holds (some homomorphism exists).
bool Holds(const UnionQuery& query, const Instance& instance);

}  // namespace dxrec

#endif  // DXREC_CHASE_EVALUATION_H_
