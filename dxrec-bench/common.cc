#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <unordered_map>

namespace dxbench {

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t x = a * 0x9E3779B97F4A7C15ull + b + 0x632BE59BD9B4E019ull;
  x ^= x >> 31;
  x *= 0xBF58476D1CE4E5B9ull;
  return x ^ (x >> 29);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

std::string ReplaceAll(std::string text, std::string_view from,
                       std::string_view to) {
  if (from.empty()) return text;
  size_t pos = 0;
  while ((pos = text.find(from, pos)) != std::string::npos) {
    text.replace(pos, from.size(), to);
    pos += to.size();
  }
  return text;
}

namespace {

// "_N123" -> "_".
std::string EraseNullLabels(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (size_t i = 0; i < text.size(); ++i) {
    out.push_back(text[i]);
    if (text[i] == '_' && i + 1 < text.size() && text[i + 1] == 'N' &&
        (i == 0 || text[i - 1] == '(' || text[i - 1] == ' ')) {
      size_t j = i + 2;
      while (j < text.size() && text[j] >= '0' && text[j] <= '9') ++j;
      if (j > i + 2) i = j - 1;
    }
  }
  return out;
}

// "{" + parts joined by `sep` + "}".
std::string Braced(const std::vector<std::string>& parts, const char* sep) {
  std::string out = "{";
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  out += '}';
  return out;
}

}  // namespace

std::string CanonicalAnswers(std::vector<std::string> tuples) {
  std::sort(tuples.begin(), tuples.end());
  return Braced(tuples, " ");
}

std::string CanonicalRecoveries(const std::vector<std::string>& recoveries) {
  std::vector<std::string> canonical;
  canonical.reserve(recoveries.size());
  for (const std::string& recovery : recoveries) {
    // Split "{A(..), B(..)}" into atoms, erase null labels, sort.
    std::vector<std::string> atoms;
    std::string atom;
    int depth = 0;
    for (char c : recovery) {
      if (c == '{' || c == '}' || c == '\n') continue;
      if (c == '(') ++depth;
      if (c == ')') --depth;
      if (c == ',' && depth == 0) {
        atoms.push_back(EraseNullLabels(atom));
        atom.clear();
        continue;
      }
      if (c == ' ' && (atom.empty() || depth == 0)) continue;
      atom.push_back(c);
    }
    if (!atom.empty()) atoms.push_back(EraseNullLabels(atom));
    std::sort(atoms.begin(), atoms.end());
    canonical.push_back(Braced(atoms, ", "));
  }
  std::sort(canonical.begin(), canonical.end());
  return std::to_string(recoveries.size()) + ":" + Braced(canonical, ";");
}

double PeakRssMb(int pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

void Tracer::Record(const SpanRecord& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

double Tracer::TotalSeconds(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  double total = 0;
  for (const SpanRecord& span : spans_) {
    if (name == span.name) total += SecondsBetween(span.start, span.end);
  }
  return total;
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const SpanRecord& span : spans_) {
    if (name == span.name) out.push_back(SecondsBetween(span.start, span.end));
  }
  return out;
}

bool Tracer::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.empty()) return true;
  Clock::time_point origin = spans_.front().start;
  std::unordered_map<uint64_t, double> child_seconds;
  for (const SpanRecord& span : spans_) {
    origin = std::min(origin, span.start);
    if (span.parent != 0) {
      child_seconds[span.parent] += SecondsBetween(span.start, span.end);
    }
  }
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    const double duration = SecondsBetween(span.start, span.end);
    auto children = child_seconds.find(span.id);
    const double self =
        duration - (children == child_seconds.end() ? 0 : children->second);
    std::fprintf(out,
                 "{\"id\":%llu,\"parent\":%llu,\"op\":%llu,\"name\":\"%s\","
                 "\"start_us\":%.3f,\"end_us\":%.3f,\"self_us\":%.3f}%s\n",
                 static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent),
                 static_cast<unsigned long long>(span.op), span.name,
                 SecondsBetween(origin, span.start) * 1e6,
                 SecondsBetween(origin, span.end) * 1e6, self * 1e6,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(out, "]\n");
  return std::fclose(out) == 0;
}

}  // namespace dxbench
