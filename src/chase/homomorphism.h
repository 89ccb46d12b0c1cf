// Homomorphism search (paper, Sec. 2): mappings h, identity on constants,
// with h(pattern) contained in a target instance. This single backtracking
// engine, running in dictionary-code space over the target's columnar
// snapshot (relational/columnar.h), drives chase triggers, HOM(Sigma, J),
// query evaluation, the recovery checks, and instance-level homomorphism /
// isomorphism tests.
#ifndef DXREC_CHASE_HOMOMORPHISM_H_
#define DXREC_CHASE_HOMOMORPHISM_H_

#include <cstddef>
#include <functional>
#include <optional>
#include <vector>

#include "base/substitution.h"
#include "relational/columnar.h"
#include "relational/instance.h"
#include "relational/tuple.h"

namespace dxrec {

namespace resilience {
class ExecutionContext;
}  // namespace resilience

namespace obs {
class SharedBudget;
}  // namespace obs

namespace util {
class ThreadPool;
}  // namespace util

struct HomSearchOptions {
  // Treat nulls in the pattern as mappable placeholders (used when the
  // pattern is itself an instance). Variables are always placeholders;
  // constants are always fixed.
  bool map_nulls = false;
  // Require placeholder images to be pairwise distinct (isomorphism-style
  // search).
  bool injective = false;
  // Require nulls to map to nulls (isomorphism between instances).
  bool nulls_to_nulls = false;
  // Stop after this many results.
  size_t max_results = static_cast<size_t>(-1);
  // Pre-bound placeholder images, e.g. "identity on dom(J)" constraints.
  Substitution fixed;
  // Optional deadline/cancellation, evaluated at the matcher's pulse
  // cadence (every 2^16 candidates). A trip stops the search as a
  // truncation (the partial result set is still sound). Not owned.
  const resilience::ExecutionContext* context = nullptr;
  // Optional pool for FindHomomorphismsChecked/FindHomomorphisms: when
  // the root atom has at least `parallel_min_candidates` candidate
  // tuples, the search fans out over contiguous root slices and merges
  // in slice order, reproducing the sequential result list exactly
  // (docs/PARALLELISM.md). Not owned; null keeps the search sequential.
  util::ThreadPool* pool = nullptr;
  size_t parallel_min_candidates = 1024;
  // Optional cross-search work budget, drawn in kBatch units at the
  // pulse cadence; running dry truncates the search. Not owned.
  obs::SharedBudget* shared_budget = nullptr;
  // Ignored; every search runs on the columnar snapshot. Stays only until
  // the benchmark harness (dxrec-bench/layers.cc) stops setting it.
  InstanceLayout layout = InstanceLayout::kColumnar;
};

// Result set plus an honest completeness bit: `truncated` is set when
// the search stopped at max_results, a context trip, or a dry shared
// budget — i.e. whenever `homs` may be a strict subset of all results.
struct HomSearchResult {
  std::vector<Substitution> homs;
  bool truncated = false;
};

// All homomorphisms from the pattern atoms into `target`. Each result binds
// exactly the placeholders occurring in the pattern (pre-bindings from
// `options.fixed` included when the placeholder occurs).
std::vector<Substitution> FindHomomorphisms(
    const std::vector<Atom>& pattern, const Instance& target,
    const HomSearchOptions& options = HomSearchOptions());

// FindHomomorphisms with the truncated-vs-complete status exposed, so a
// caller capping via max_results can tell "that's all" from "that's the
// cap". This is the entry point that honors options.pool.
HomSearchResult FindHomomorphismsChecked(
    const std::vector<Atom>& pattern, const Instance& target,
    const HomSearchOptions& options = HomSearchOptions());

// First homomorphism if any.
std::optional<Substitution> FindHomomorphism(
    const std::vector<Atom>& pattern, const Instance& target,
    const HomSearchOptions& options = HomSearchOptions());

// Streaming variant: invokes `callback` per homomorphism; return false from
// the callback to stop the search early.
void ForEachHomomorphism(
    const std::vector<Atom>& pattern, const Instance& target,
    const HomSearchOptions& options,
    const std::function<bool(const Substitution&)>& callback);

// Instance-level homomorphism I -> J (nulls of I as placeholders,
// constants fixed). The paper's notation I "arrow" J.
bool HasInstanceHomomorphism(const Instance& from, const Instance& to);
std::optional<Substitution> FindInstanceHomomorphism(const Instance& from,
                                                     const Instance& to);

// Instance isomorphism: a bijective null renaming taking `a` onto `b`.
std::optional<Substitution> FindIsomorphism(const Instance& a,
                                            const Instance& b);
bool AreIsomorphic(const Instance& a, const Instance& b);

}  // namespace dxrec

#endif  // DXREC_CHASE_HOMOMORPHISM_H_
