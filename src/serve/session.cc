#include "serve/session.h"

#include <utility>

#include "logic/parser.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "resilience/execution_context.h"

namespace dxrec {
namespace serve {

Result<std::shared_ptr<const Session>> SessionRegistry::Open(
    const std::string& name, const std::string& sigma_text,
    const std::string& target_text) {
  Status injected =
      resilience::CheckPoint(nullptr, "serve.session", "serve");
  if (!injected.ok()) return injected;
  if (name.empty()) {
    return Status::InvalidArgument("session name must be non-empty");
  }
  auto taken = [&name] {
    return Status::FailedPrecondition("session \"" + name +
                                      "\" is already open");
  };
  {
    // Parsing interns J's symbols for good; skip it for a taken name.
    // The insert below still catches a racing open of the same name.
    std::lock_guard<std::mutex> lock(mu_);
    if (sessions_.count(name) != 0) return taken();
  }
  Result<DependencySet> sigma = ParseTgdSet(sigma_text);
  if (!sigma.ok()) return sigma.status();
  Result<Instance> target = ParseInstance(target_text);
  if (!target.ok()) return target.status();

  auto session = std::make_shared<Session>();
  session->name = name;
  session->mapping = std::make_shared<const CompiledMapping>(std::move(*sigma));
  session->target = std::move(*target);
  // Build the columnar snapshot before any concurrent reader can probe
  // it; from here the session is immutable.
  session->target.WarmColumnar();

  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = sessions_.emplace(name, std::move(session));
  if (!inserted) return taken();
  if (obs::Enabled()) {
    static obs::Gauge* open_sessions =
        obs::MetricsRegistry::Global().GetGauge("serve.sessions");
    open_sessions->Set(static_cast<int64_t>(sessions_.size()));
  }
  return it->second;
}

Result<std::shared_ptr<const Session>> SessionRegistry::Find(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(name);
  if (it == sessions_.end()) {
    return Status::NotFound("session \"" + name + "\" is not open");
  }
  return it->second;
}

Status SessionRegistry::Close(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(name);
  if (it == sessions_.end()) {
    return Status::NotFound("session \"" + name + "\" is not open");
  }
  sessions_.erase(it);
  if (obs::Enabled()) {
    static obs::Gauge* open_sessions =
        obs::MetricsRegistry::Global().GetGauge("serve.sessions");
    open_sessions->Set(static_cast<int64_t>(sessions_.size()));
  }
  return Status::Ok();
}

size_t SessionRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

std::vector<std::string> SessionRegistry::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(sessions_.size());
  for (const auto& [name, session] : sessions_) out.push_back(name);
  return out;
}

RecoverySetUsage SessionRegistry::RecoverySets() const {
  std::lock_guard<std::mutex> lock(mu_);
  RecoverySetUsage usage;
  for (const auto& [name, session] : sessions_) {
    std::shared_ptr<const InverseChaseResult> set =
        session->recovery_set.Get();
    if (set == nullptr) continue;
    ++usage.sets;
    for (const Instance& recovery : set->recoveries) {
      usage.atoms += recovery.size();
    }
  }
  return usage;
}

void SessionRegistry::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  sessions_.clear();
}

}  // namespace serve
}  // namespace dxrec
