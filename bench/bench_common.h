// Shared helpers for the experiment harness (E1-E13, see DESIGN.md and
// EXPERIMENTS.md). Each binary prints the experiment's table(s); several
// additionally register google-benchmark timings. JsonReporter mirrors the
// text tables into a machine-readable BENCH_<id>.json so perf trajectories
// can be compared across commits (schema: docs/OBSERVABILITY.md).
#ifndef DXREC_BENCH_BENCH_COMMON_H_
#define DXREC_BENCH_BENCH_COMMON_H_

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "obs/report.h"
#include "util/stopwatch.h"
#include "util/table.h"

namespace dxrec {

inline void PrintHeader(const char* id, const char* title,
                        const char* paper_ref) {
  std::printf("\n=== %s: %s ===\n(paper artifact: %s)\n\n", id, title,
              paper_ref);
}

// Milliseconds with three digits.
inline std::string Ms(double seconds) {
  return TextTable::Cell(seconds * 1e3, 3);
}

// Accumulates rows of key/value pairs and writes BENCH_<id>.json into
// $DXREC_BENCH_JSON_DIR (or the working directory). Values are typed JSON
// (strings escaped, numbers raw), one row per measured configuration:
//
//   JsonReporter json("E1");
//   json.NewRow().Put("n", n).Put("valid", true).Put("time_ms", ms);
//   ...
//   json.Write();
class JsonReporter {
 public:
  class Row {
   public:
    Row& Put(const char* key, const std::string& value) {
      return PutRaw(key, "\"" + obs::JsonEscape(value) + "\"");
    }
    Row& Put(const char* key, const char* value) {
      return Put(key, std::string(value));
    }
    Row& Put(const char* key, double value) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.6g", value);
      return PutRaw(key, buf);
    }
    Row& Put(const char* key, size_t value) {
      return PutRaw(key, std::to_string(value));
    }
    Row& Put(const char* key, int value) {
      return PutRaw(key, std::to_string(value));
    }
    Row& Put(const char* key, bool value) {
      return PutRaw(key, value ? "true" : "false");
    }
    // Pre-serialized JSON payload (e.g. a nested counters object).
    Row& PutJson(const char* key, const std::string& json_value) {
      return PutRaw(key, json_value);
    }

   private:
    friend class JsonReporter;
    Row& PutRaw(const char* key, const std::string& json_value) {
      fields_.emplace_back(key, json_value);
      return *this;
    }
    std::vector<std::pair<std::string, std::string>> fields_;
  };

  explicit JsonReporter(std::string id) : id_(std::move(id)) {}

  // References stay valid across later NewRow calls (deque storage).
  Row& NewRow() {
    rows_.emplace_back();
    return rows_.back();
  }

  std::string ToJson() const {
    std::string out = "{\"experiment\":\"" + obs::JsonEscape(id_) + "\",";
    out += "\"rows\":[";
    for (size_t i = 0; i < rows_.size(); ++i) {
      if (i > 0) out += ",";
      out += "\n{";
      const auto& fields = rows_[i].fields_;
      for (size_t k = 0; k < fields.size(); ++k) {
        if (k > 0) out += ",";
        out += "\"" + obs::JsonEscape(fields[k].first) +
               "\":" + fields[k].second;
      }
      out += "}";
    }
    out += "\n],\"metrics\":";
    out += obs::MetricsJson(obs::MetricsRegistry::Global().Read());
    out += "}\n";
    return out;
  }

  // Writes BENCH_<id>.json; returns the path ("" on failure).
  std::string Write() const {
    const char* dir = std::getenv("DXREC_BENCH_JSON_DIR");
    std::string path = dir == nullptr || dir[0] == '\0'
                           ? "BENCH_" + id_ + ".json"
                           : std::string(dir) + "/BENCH_" + id_ + ".json";
    std::string json = ToJson();
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return "";
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    return path;
  }

 private:
  std::string id_;
  std::deque<Row> rows_;
};

// Console reporter that also tees every google-benchmark run into a
// JsonReporter row, for the BENCHMARK()-based binaries.
//
// Under --benchmark_repetitions=N a benchmark's N runs become one row:
// real_time and cpu_time are their medians, `real_time_iqr` the distance
// between the quartiles of real_time (same unit), `repetitions` is N, and
// the counters are the last run's. google-benchmark's own aggregate rows
// (`<name>_median`, `_mean`, ...) are teed only when the single runs were
// not seen (--benchmark_report_aggregates_only).
class JsonTeeReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonTeeReporter(JsonReporter* json) : json_(json) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type == Run::RT_Aggregate) {
        if (repeated_.count(run.run_name.str()) == 0) {
          AddRow(run, run.GetAdjustedRealTime(), run.GetAdjustedCPUTime());
        }
      } else if (run.repetitions <= 1) {
        AddRow(run, run.GetAdjustedRealTime(), run.GetAdjustedCPUTime());
      } else {
        Repeated& seen = repeated_[run.run_name.str()];
        seen.real_times.push_back(run.GetAdjustedRealTime());
        seen.cpu_times.push_back(run.GetAdjustedCPUTime());
        if (static_cast<int64_t>(seen.real_times.size()) ==
            run.repetitions) {
          AddRow(run, Quantile(seen.real_times, 0.5),
                 Quantile(seen.cpu_times, 0.5))
              .Put("repetitions", seen.real_times.size())
              .Put("real_time_iqr", Quantile(seen.real_times, 0.75) -
                                        Quantile(seen.real_times, 0.25));
        }
      }
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  struct Repeated {
    std::vector<double> real_times;
    std::vector<double> cpu_times;
  };

  // The p-quantile of `values`, interpolated linearly between ranks.
  static double Quantile(std::vector<double> values, double p) {
    std::sort(values.begin(), values.end());
    const double rank = p * static_cast<double>(values.size() - 1);
    const size_t lo = static_cast<size_t>(rank);
    const size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (rank - static_cast<double>(lo)) *
                            (values[hi] - values[lo]);
  }

  JsonReporter::Row& AddRow(const Run& run, double real_time,
                            double cpu_time) {
    JsonReporter::Row& row =
        json_->NewRow()
            .Put("name", run.benchmark_name())
            .Put("iterations", static_cast<size_t>(run.iterations))
            .Put("real_time", real_time)
            .Put("cpu_time", cpu_time)
            .Put("time_unit", benchmark::GetTimeUnitString(run.time_unit));
    if (!run.counters.empty()) {
      // User counters (state.counters[...]) as a nested object, so
      // access-path numbers ride the same history as the timings.
      std::string counters = "{";
      bool first = true;
      for (const auto& [name, counter] : run.counters) {
        if (!first) counters += ",";
        first = false;
        char value[32];
        std::snprintf(value, sizeof(value), "%.6g", counter.value);
        counters += "\"" + obs::JsonEscape(name) + "\":" + value;
      }
      counters += "}";
      row.PutJson("counters", counters);
    }
    return row;
  }

  JsonReporter* json_;
  std::map<std::string, Repeated> repeated_;
};

}  // namespace dxrec

#endif  // DXREC_BENCH_BENCH_COMMON_H_
