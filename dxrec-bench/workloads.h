// Workload inputs of dxrec-bench, generated from the run's seed as the
// text the program receives, plus the in-process references every output
// is checked against.
#ifndef DXREC_BENCH_WORKLOADS_H_
#define DXREC_BENCH_WORKLOADS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common.h"
#include "core/engine.h"
#include "logic/dependency_set.h"
#include "logic/query.h"
#include "relational/instance.h"
#include "serve/wire.h"

namespace dxbench {

using dxrec::AnswerSet;
using dxrec::DependencySet;
using dxrec::Engine;
using dxrec::EngineOptions;
using dxrec::Instance;
using dxrec::InverseChaseResult;
using dxrec::TractabilityReport;
using dxrec::UnionQuery;

// One (Sigma, J) as text, with the source queries posed over it.
struct Scenario {
  std::string name;
  std::string sigma;
  std::string target;
  std::vector<std::string> queries;
  // Per query: the canonical answer set the paper states, or "" where the
  // paper states none (then the threads=1 reference is the oracle).
  std::vector<std::string> paper_answers;
};

// The in-process parse of a Scenario.
struct Parsed {
  DependencySet sigma;
  Instance target;
  std::vector<UnionQuery> queries;
};
std::optional<Parsed> Parse(const Scenario& scenario, std::string* error);

// serve-hot's six paper scenarios: Projection at |J| in {96, 384, 1536},
// Triangle (Examples 2/7), Employee (Example 8) and Blowup p=2, q=4.
std::vector<Scenario> HotScenarios(uint64_t seed);

// Paper scenarios as text.
Scenario ProjectionScenario(size_t n, uint64_t seed);
Scenario TriangleScenario();
Scenario EmployeeScenario();
Scenario BlowupScenario(size_t p, size_t q);
// Example 12/13's overlap mapping. Under a max_covers cap of 4 its first
// query ends on the sound_ucq rung and its second on sound_ucq+sound_cq.
Scenario OverlapScenario();

// serve-churn's template `index`: a datagen random mapping with a ground
// target of at most 8 atoms (the spec columnar_diff_test uses) and two
// source queries. Every relation, variable and constant name starts with
// kChurnTag, which each cycle replaces by a fresh tag. nullopt when the
// drawn mapping is unusable (empty or oversized target).
inline constexpr const char* kChurnTag = "tmplq_";
std::optional<Scenario> ChurnTemplate(uint64_t seed, size_t index);

// Canonical engine outputs (see common.h), in-process...
std::string Canonical(const AnswerSet& answers);
std::string Canonical(const InverseChaseResult& result);
std::string Canonical(const TractabilityReport& report);
// ...and from a dxrecd reply, with `tag` (a churn cycle's tag) renamed
// back to kChurnTag so the reply compares with its template's reference.
std::string WireAnswers(const serve::JsonValue& reply,
                        const std::string& tag = "");
std::string WireRecoveries(const serve::JsonValue& reply,
                           const std::string& tag = "");
std::string WireAnalyze(const serve::JsonValue& reply);
std::string WireRung(const serve::JsonValue& reply);

// Threads=1 engine with default options: the reference every timed output
// is compared with.
EngineOptions ReferenceOptions();

}  // namespace dxbench

#endif  // DXREC_BENCH_WORKLOADS_H_
