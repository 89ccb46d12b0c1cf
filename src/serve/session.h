// Named (Sigma, J) sessions for dxrecd (docs/SERVING.md).
//
// A session is the server-side cache of a client's recovery setting: the
// tgd set Sigma and the target instance J, parsed once at open and
// reused by every subsequent request that names the session. Sigma is
// held compiled (core/compiled_mapping.h): every request's Engine borrows
// it, so SUB(Sigma) is computed by the session's first request that needs
// it and never again. Opening also pre-warms J's columnar snapshot
// (Instance::WarmColumnar), so the concurrent readers that follow never
// race the lazy build.
//
// Sessions are immutable after open and handed out as
// shared_ptr<const Session>: a close only drops the registry's
// reference, in-flight requests keep theirs, so "close_session racing a
// request on the same session" is safe by construction. The one mutable
// members are the session-resident recovery set Chase^{-1}(Sigma, J) and
// the compiled mapping's SUB(Sigma), each built by the first request that
// needs it and freed with the session.
#ifndef DXREC_SERVE_SESSION_H_
#define DXREC_SERVE_SESSION_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "base/status.h"
#include "core/compiled_mapping.h"
#include "core/engine.h"
#include "relational/instance.h"

namespace dxrec {
namespace serve {

struct Session {
  std::string name;
  std::shared_ptr<const CompiledMapping> mapping;
  Instance target;
  // Lazily built on the first certain/recover request (core/engine.h).
  mutable RecoveryCache recovery_set;
};

// Recovery sets held across the open sessions, for the stats op.
struct RecoverySetUsage {
  size_t sets = 0;   // sessions whose set is built
  size_t atoms = 0;  // atoms across those sets' recoveries
};

class SessionRegistry {
 public:
  // Parses and installs a session. kFailedPrecondition when the name is
  // taken, checked before parsing so a duplicate open does no work;
  // kInvalidArgument (parse_context) when sigma/target don't parse.
  // Passes the "serve.session" fault-injection site.
  Result<std::shared_ptr<const Session>> Open(const std::string& name,
                                              const std::string& sigma_text,
                                              const std::string& target_text);

  // kNotFound when the name is not open.
  Result<std::shared_ptr<const Session>> Find(const std::string& name) const;

  Status Close(const std::string& name);

  size_t size() const;
  std::vector<std::string> Names() const;
  RecoverySetUsage RecoverySets() const;
  void Clear();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<const Session>> sessions_;
};

}  // namespace serve
}  // namespace dxrec

#endif  // DXREC_SERVE_SESSION_H_
