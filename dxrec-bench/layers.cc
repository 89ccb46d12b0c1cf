#include "layers.h"

#include <algorithm>

#include "base/fresh.h"
#include "base/symbol_table.h"
#include "chase/chase.h"
#include "chase/evaluation.h"
#include "chase/homomorphism.h"
#include "core/cover.h"
#include "core/hom_set.h"
#include "core/recovery.h"
#include "core/subsumption.h"
#include "logic/parser.h"

namespace dxbench {

namespace {

constexpr dxrec::InstanceLayout kColumnar = dxrec::InstanceLayout::kColumnar;

}  // namespace

SymbolGrowth::SymbolGrowth(LayerCounts* counts)
    : counts_(counts),
      variables_(dxrec::Symbols().variables.size()),
      constants_(dxrec::Symbols().constants.size()) {}

SymbolGrowth::~SymbolGrowth() {
  counts_->variables +=
      static_cast<double>(dxrec::Symbols().variables.size() - variables_);
  counts_->constants +=
      static_cast<double>(dxrec::Symbols().constants.size() - constants_);
}

std::optional<Parsed> TimeOpen(const Scenario& scenario, const SpanContext& at,
                               LayerCounts* counts, std::string* error) {
  SymbolGrowth growth(counts);
  dxrec::Result<DependencySet> sigma = [&] {
    Span span(at.tracer, "logic.parse_sigma", at.op, at.parent);
    return dxrec::ParseTgdSet(scenario.sigma);
  }();
  dxrec::Result<Instance> target = [&] {
    Span span(at.tracer, "logic.parse_target", at.op, at.parent);
    return dxrec::ParseInstance(scenario.target);
  }();
  if (!sigma.ok() || !target.ok()) {
    *error = scenario.name + ": " +
             (sigma.ok() ? target.status() : sigma.status()).ToString();
    return std::nullopt;
  }
  {
    Span span(at.tracer, "relational.warm_columnar", at.op, at.parent);
    target->WarmColumnar();
  }
  Parsed parsed{std::move(*sigma), std::move(*target), {}};
  return parsed;
}

void TimePipeline(const Engine& engine, const Parsed& input,
                  const UnionQuery* query, bool recover_is_the_op,
                  const SpanContext& at, LayerCounts* counts) {
  const dxrec::BudgetOptions& budgets = engine.options().budgets;
  std::vector<dxrec::HeadHom> homs;
  {
    Span span(at.tracer, "core.hom_set", at.op, at.parent);
    homs = dxrec::ComputeHomSet(input.sigma, input.target, kColumnar);
  }
  {
    Span span(at.tracer, "core.cover", at.op, at.parent);
    dxrec::CoverProblem problem(input.sigma, input.target, homs);
    dxrec::CoverOptions options;
    options.max_covers = budgets.max_covers;
    options.max_nodes = budgets.max_cover_nodes;
    (void)problem.AllCovers(options);
  }
  {
    Span span(at.tracer, "core.sub", at.op, at.parent);
    (void)dxrec::ComputeSubsumption(input.sigma,
                                    engine.options().ToSubsumptionOptions());
  }
  dxrec::Result<InverseChaseResult> result = [&] {
    std::optional<SymbolGrowth> growth;
    if (recover_is_the_op) growth.emplace(counts);
    Span span(at.tracer, "core.recover", at.op, at.parent);
    return engine.Recover(input.target);
  }();
  if (!result.ok()) return;
  const dxrec::InverseChaseStats& stats = result->stats;
  counts->homs += static_cast<double>(stats.num_homs);
  counts->covers += static_cast<double>(stats.num_covers);
  counts->covers_passing_sub +=
      static_cast<double>(stats.num_covers_passing_sub);
  counts->recoveries += static_cast<double>(result->recoveries.size());
  counts->g_homs += static_cast<double>(stats.num_g_homs);
  counts->before_dedup +=
      static_cast<double>(stats.num_recoveries_before_dedup);
  counts->rejected += static_cast<double>(stats.num_candidates_rejected);

  // A private null range, so the forward chase cannot collide with the
  // labels of the recoveries it starts from.
  dxrec::NullSource nulls(1u << 30);
  for (const Instance& recovery : result->recoveries) {
    {
      Span span(at.tracer, "core.verify", at.op, at.parent);
      (void)dxrec::IsMinimalSolution(input.sigma, recovery, input.target,
                                     kColumnar);
    }
    Instance forward;
    {
      Span span(at.tracer, "chase.forward", at.op, at.parent);
      forward = dxrec::Chase(input.sigma, recovery, &nulls, nullptr, kColumnar);
    }
    {
      Span span(at.tracer, "chase.hom_search", at.op, at.parent);
      dxrec::HomSearchOptions options;
      options.map_nulls = true;
      options.layout = kColumnar;
      options.max_results = budgets.max_g_homs_per_cover;
      dxrec::ForEachHomomorphism(forward.atoms(), input.target, options,
                                 [](const dxrec::Substitution&) {
                                   return true;
                                 });
    }
  }
  if (query != nullptr) {
    Span span(at.tracer, "chase.eval", at.op, at.parent);
    for (const Instance& recovery : result->recoveries) {
      (void)dxrec::EvaluateNullFree(*query, recovery, kColumnar);
    }
  }
}

const std::vector<LayerMetric>& LayerMetrics() {
  static const std::vector<LayerMetric> metrics = {
      {"failed_frac", "ratio"},
      {"degraded_frac", "ratio"},
      {"serve.queue_wait_us.p50", "us"},
      {"serve.queue_wait_us.p99", "us"},
      {"serve.exec_us.p50", "us"},
      {"serve.overhead_us.p50", "us"},
      {"serve.open_session_us.p50", "us"},
      {"serve.close_session_us.p50", "us"},
      {"serve.sessions_open", "count"},
      {"logic.parse_sigma_us", "us"},
      {"logic.parse_target_us", "us"},
      {"logic.parse_query_us", "us"},
      {"relational.warm_columnar_us", "us"},
      {"base.variables_per_op", "count"},
      {"base.constants_per_op", "count"},
      {"core.engine_new_us", "us"},
      {"core.hom_set_ms", "ms"},
      {"core.homs", "count"},
      {"core.cover_ms", "ms"},
      {"core.covers", "count"},
      {"core.sub_ms", "ms"},
      {"core.sub_pass_ratio", "ratio"},
      {"core.recover_ms", "ms"},
      {"core.steps4to7_ms", "ms"},
      {"core.verify_ms", "ms"},
      {"core.verify_yield", "ratio"},
      {"core.recoveries", "count"},
      {"core.g_homs", "count"},
      {"core.certain_ms", "ms"},
      {"core.analyze_ms", "ms"},
      {"chase.forward_ms", "ms"},
      {"chase.hom_search_ms", "ms"},
      {"chase.eval_ms", "ms"},
      {"resilience.degraded_ms", "ms"},
      {"core.sound_ucq_ms", "ms"},
      {"core.subuniversal_ms", "ms"},
      {"pool.speedup", "ratio"},
      {"pool.cpu_util", "ratio"},
      {"obs.trace_overhead_frac", "ratio"},
  };
  return metrics;
}

void AddReplayMetrics(const Tracer& tracer, const LayerCounts& counts,
                      std::map<std::string, double>* out) {
  if (counts.ops == 0) return;
  const double ops = static_cast<double>(counts.ops);
  auto per_op = [&](const char* span, double scale) {
    return tracer.TotalSeconds(span) * scale / ops;
  };
  (*out)["logic.parse_sigma_us"] = per_op("logic.parse_sigma", 1e6);
  (*out)["logic.parse_target_us"] = per_op("logic.parse_target", 1e6);
  (*out)["logic.parse_query_us"] = per_op("logic.parse_query", 1e6);
  (*out)["relational.warm_columnar_us"] =
      per_op("relational.warm_columnar", 1e6);
  (*out)["base.variables_per_op"] = counts.variables / ops;
  (*out)["base.constants_per_op"] = counts.constants / ops;
  (*out)["core.engine_new_us"] = per_op("core.engine_new", 1e6);
  const double hom = per_op("core.hom_set", 1e3);
  const double cover = per_op("core.cover", 1e3);
  const double sub = per_op("core.sub", 1e3);
  const double recover = per_op("core.recover", 1e3);
  (*out)["core.hom_set_ms"] = hom;
  (*out)["core.homs"] = counts.homs / ops;
  (*out)["core.cover_ms"] = cover;
  (*out)["core.covers"] = counts.covers / ops;
  (*out)["core.sub_ms"] = sub;
  (*out)["core.sub_pass_ratio"] =
      counts.covers > 0 ? counts.covers_passing_sub / counts.covers : 0;
  (*out)["core.recover_ms"] = recover;
  (*out)["core.steps4to7_ms"] = std::max(0.0, recover - hom - cover - sub);
  (*out)["core.verify_ms"] = per_op("core.verify", 1e3);
  const double candidates = counts.before_dedup + counts.rejected;
  (*out)["core.verify_yield"] =
      candidates > 0 ? counts.before_dedup / candidates : 0;
  (*out)["core.recoveries"] = counts.recoveries / ops;
  (*out)["core.g_homs"] = counts.g_homs / ops;
  (*out)["core.certain_ms"] = per_op("core.certain", 1e3);
  (*out)["core.analyze_ms"] = per_op("core.analyze", 1e3);
  (*out)["chase.forward_ms"] = per_op("chase.forward", 1e3);
  (*out)["chase.hom_search_ms"] = per_op("chase.hom_search", 1e3);
  (*out)["chase.eval_ms"] = per_op("chase.eval", 1e3);
  (*out)["resilience.degraded_ms"] = per_op("resilience.degraded", 1e3);
  (*out)["core.sound_ucq_ms"] = per_op("core.sound_ucq", 1e3);
  (*out)["core.subuniversal_ms"] = per_op("core.subuniversal", 1e3);
}

}  // namespace dxbench
