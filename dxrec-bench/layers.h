// Per-layer timing from outside: each call into a layer's public entry
// point becomes a span, and the pipeline's counters are summed per
// operation. Used by the traced run's replay phase only.
#ifndef DXREC_BENCH_LAYERS_H_
#define DXREC_BENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "common.h"
#include "workloads.h"

namespace dxbench {

// Counters summed over the replayed operations.
struct LayerCounts {
  uint64_t ops = 0;
  double homs = 0;
  double covers = 0;
  double covers_passing_sub = 0;
  double recoveries = 0;
  double g_homs = 0;
  double before_dedup = 0;
  double rejected = 0;
  // Growth of the process-wide symbol tables across the calls the
  // program itself makes for an operation (not the breakdown calls).
  double variables = 0;
  double constants = 0;
};

// Where replay spans go: the tracer, the operation id and its root span.
struct SpanContext {
  Tracer* tracer;
  uint64_t op;
  uint64_t parent;
};

// Counts symbol-table growth while alive.
class SymbolGrowth {
 public:
  explicit SymbolGrowth(LayerCounts* counts);
  ~SymbolGrowth();
  SymbolGrowth(const SymbolGrowth&) = delete;
  SymbolGrowth& operator=(const SymbolGrowth&) = delete;

 private:
  LayerCounts* counts_;
  size_t variables_;
  size_t constants_;
};

// What a session open costs the program: ParseTgdSet, ParseInstance and
// Instance::WarmColumnar, each as a span.
std::optional<Parsed> TimeOpen(const Scenario& scenario, const SpanContext& at,
                               LayerCounts* counts, std::string* error);

// The exact pipeline on (Sigma, J), layer by layer: ComputeHomSet,
// CoverProblem::AllCovers, ComputeSubsumption, Engine::Recover, then per
// recovery IsMinimalSolution, Chase and the J_H -> J homomorphism search,
// and EvaluateNullFree of `query` (when non-null) over the recoveries.
// `recover_is_the_op` counts Recover's symbol growth as the operation's
// own (a `recover` request), not as breakdown work.
void TimePipeline(const Engine& engine, const Parsed& input,
                  const UnionQuery* query, bool recover_is_the_op,
                  const SpanContext& at, LayerCounts* counts);

// Every per-layer metric, with its unit, in BENCHMARK.json order. Values
// a workload does not produce stay 0.
struct LayerMetric {
  const char* name;
  const char* unit;
};
const std::vector<LayerMetric>& LayerMetrics();

// Fills the metrics derived from spans and counters: per-operation means
// of the replayed layer calls.
void AddReplayMetrics(const Tracer& tracer, const LayerCounts& counts,
                      std::map<std::string, double>* out);

}  // namespace dxbench

#endif  // DXREC_BENCH_LAYERS_H_
