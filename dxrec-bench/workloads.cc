#include "workloads.h"

#include <cstdio>

#include "common.h"
#include "datagen/generators.h"
#include "datagen/random.h"
#include "logic/io.h"
#include "logic/parser.h"
#include "base/symbol_table.h"
#include "logic/printer.h"

namespace dxbench {

namespace {

std::string Atoms(const std::vector<std::string>& atoms) {
  std::string out = "{";
  for (size_t i = 0; i < atoms.size(); ++i) {
    if (i > 0) out += ", ";
    out += atoms[i];
  }
  return out + "}";
}

// "Q(v<k>) :- R(v0, ..., vn)" for the relation of `atom`.
std::string ProjectionQuery(const dxrec::Atom& atom, size_t k) {
  std::string text = "Q(v" + std::to_string(k) + ") :- " +
                     dxrec::Symbols().relations.Name(atom.relation()) + "(";
  for (size_t i = 0; i < atom.args().size(); ++i) {
    text += (i > 0 ? ", v" : "v") + std::to_string(i);
  }
  return text + ")";
}

}  // namespace

std::optional<Parsed> Parse(const Scenario& scenario, std::string* error) {
  dxrec::Result<DependencySet> sigma = dxrec::ParseTgdSet(scenario.sigma);
  if (!sigma.ok()) {
    *error = scenario.name + " sigma: " + sigma.status().ToString();
    return std::nullopt;
  }
  dxrec::Result<Instance> target = dxrec::ParseInstance(scenario.target);
  if (!target.ok()) {
    *error = scenario.name + " target: " + target.status().ToString();
    return std::nullopt;
  }
  Parsed parsed{std::move(*sigma), std::move(*target), {}};
  for (const std::string& text : scenario.queries) {
    dxrec::Result<UnionQuery> query = dxrec::ParseUnionQuery(text);
    if (!query.ok()) {
      *error = scenario.name + " query: " + query.status().ToString();
      return std::nullopt;
    }
    parsed.queries.push_back(std::move(*query));
  }
  return parsed;
}

// Intro eq. (1): every recovery holds R(a, b_i) for all i, so the probe
// Q(x) :- R(x, 'b_k') has the certain answer {(a)} for any k.
Scenario ProjectionScenario(size_t n, uint64_t seed) {
  std::vector<std::string> atoms = {"Sp(a)"};
  for (size_t i = 1; i <= n; ++i) {
    atoms.push_back("Pp(b" + std::to_string(i) + ")");
  }
  const size_t probe = 1 + Mix(seed, n) % n;
  return {"projection" + std::to_string(n),
          "Rp(x, y) -> Sp(x), Pp(y)",
          Atoms(atoms),
          {"Q(x) :- Rp(x, 'b" + std::to_string(probe) + "')",
           "Q(y) :- Rp(x, y)", "Q(x) :- Rp(x, y)"},
          {"{(a)}", "", ""}};
}

// Examples 2/7: many coverings, some ruled out by SUB(Sigma).
Scenario TriangleScenario() {
  return {"triangle",
          "Rt(x, x, y) -> exists z: St(x, z); Rt(u, v, w) -> Tt(w); "
          "Dt(k, p) -> Tt(p)",
          "{St(a0, b0), St(a1, b1), Tt(c0), Tt(c1)}",
          {"Q(x) :- Rt(x, x, y)", "Q(w) :- Rt(u, v, w)", "Q(p) :- Dt(k, p)"},
          {"", "", ""}};
}

// Example 8's exact target: one covering, Q = Bnf(hr, x) answers
// {medical, pension}.
Scenario EmployeeScenario() {
  return {"employee",
          "Emp(n, d), Bnf(d, b) -> EmpDept(n, d), EmpBnf(n, b)",
          "{EmpDept(joe, hr), EmpDept(bill, sales), EmpDept(sue, hr), "
          "EmpBnf(joe, medical), EmpBnf(joe, pension), "
          "EmpBnf(bill, medical), EmpBnf(bill, profit), "
          "EmpBnf(sue, medical), EmpBnf(sue, pension)}",
          {"Q(x) :- Bnf('hr', x)", "Q(n) :- Emp(n, 'hr')"},
          {"{(medical) (pension)}", ""}};
}

// Post-Lemma-1 example: one covering, exponentially many recoveries.
Scenario BlowupScenario(size_t p, size_t q) {
  std::vector<std::string> atoms;
  for (size_t i = 0; i < p; ++i) {
    atoms.push_back("Sb(a" + std::to_string(i) + ")");
  }
  for (size_t j = 0; j < q; ++j) {
    atoms.push_back("Tb(c" + std::to_string(j) + ")");
  }
  return {"blowup" + std::to_string(p) + "x" + std::to_string(q),
          "Rb(x, y) -> Sb(x); Rb(u, v) -> Tb(v)",
          Atoms(atoms),
          {"Q(x) :- Rb(x, y)", "Q(y) :- Rb(x, y)"},
          {"", ""}};
}

Scenario OverlapScenario() {
  return {"overlap",
          "Ro(x, y) -> To(x); Uo(z) -> So(z); Ro(v, v) -> To(v), So(v)",
          "{To(a0), So(a0), To(a1), So(a1), So(b0)}",
          {"Q(x) :- Uo(x)", "Q(x) :- Ro(x, y)"},
          {"", ""}};
}

std::vector<Scenario> HotScenarios(uint64_t seed) {
  return {ProjectionScenario(96, seed), ProjectionScenario(384, seed),
          ProjectionScenario(1536, seed), TriangleScenario(),
          EmployeeScenario(), BlowupScenario(2, 4)};
}

std::optional<Scenario> ChurnTemplate(uint64_t seed, size_t index) {
  dxrec::Rng rng(Mix(seed, index));
  dxrec::MappingSpec spec;
  spec.num_tgds = 2 + rng.Index(2);
  spec.num_source_relations = 2;
  spec.num_target_relations = 2;
  spec.max_body_atoms = 2;
  spec.max_head_atoms = 2;
  DependencySet sigma = dxrec::RandomMapping(spec, kChurnTag, &rng);
  dxrec::SourceSpec source_spec;
  source_spec.num_tuples = 3 + rng.Index(3);
  source_spec.num_constants = 4;
  Instance source = dxrec::RandomSource(sigma, source_spec, kChurnTag, &rng);
  Instance target = dxrec::ChaseTarget(sigma, source, /*ground=*/true);
  if (target.empty() || target.size() > 8) return std::nullopt;

  // Two source queries: the first position of the first tgd's first body
  // atom, and the last position of the last tgd's last body atom.
  const dxrec::Atom& first = sigma.tgds().front().body().front();
  const dxrec::Atom& last = sigma.tgds().back().body().back();
  std::vector<std::string> queries = {
      ProjectionQuery(first, 0), ProjectionQuery(last, last.args().size() - 1)};
  std::string sigma_text = sigma.ToString();
  for (char& c : sigma_text) {
    if (c == '\n') c = ';';
  }
  return Scenario{"churn" + std::to_string(index), sigma_text,
                  target.ToString(), queries, {"", ""}};
}

std::string Canonical(const AnswerSet& answers) {
  std::vector<std::string> tuples;
  for (const dxrec::AnswerTuple& tuple : answers) {
    tuples.push_back(dxrec::ToString(tuple));
  }
  return CanonicalAnswers(std::move(tuples));
}

std::string Canonical(const InverseChaseResult& result) {
  std::vector<std::string> recoveries;
  for (const Instance& recovery : result.recoveries) {
    recoveries.push_back(dxrec::SerializeInstance(recovery));
  }
  return CanonicalRecoveries(recoveries);
}

std::string Canonical(const TractabilityReport& report) {
  char text[64];
  std::snprintf(text, sizeof(text), "coverable=%d unique=%d safe=%d",
                report.all_coverable, report.unique_cover,
                report.quasi_guarded_safe);
  return text;
}

std::string WireAnswers(const serve::JsonValue& reply,
                        const std::string& tag) {
  std::vector<std::string> tuples;
  if (const serve::JsonValue* answers = reply.Find("answers")) {
    for (const serve::JsonValue& tuple : answers->AsArray()) {
      tuples.push_back(ReplaceAll(tuple.AsString(), tag, kChurnTag));
    }
  }
  return CanonicalAnswers(std::move(tuples));
}

std::string WireRecoveries(const serve::JsonValue& reply,
                           const std::string& tag) {
  std::vector<std::string> recoveries;
  if (const serve::JsonValue* list = reply.Find("recoveries")) {
    for (const serve::JsonValue& recovery : list->AsArray()) {
      recoveries.push_back(ReplaceAll(recovery.AsString(), tag, kChurnTag));
    }
  }
  return CanonicalRecoveries(recoveries);
}

std::string WireAnalyze(const serve::JsonValue& reply) {
  auto flag = [&reply](const char* key) {
    const serve::JsonValue* v = reply.Find(key);
    return v != nullptr && v->is_bool() && v->AsBool() ? 1 : 0;
  };
  char text[64];
  std::snprintf(text, sizeof(text), "coverable=%d unique=%d safe=%d",
                flag("all_coverable"), flag("unique_cover"),
                flag("quasi_guarded_safe"));
  return text;
}

std::string WireRung(const serve::JsonValue& reply) {
  const serve::JsonValue* rung = reply.Find("rung");
  return rung != nullptr && rung->is_string() ? rung->AsString() : "";
}

EngineOptions ReferenceOptions() { return EngineOptions().WithThreads(1); }

}  // namespace dxbench
