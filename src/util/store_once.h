// A value built at most once per owner and shared with every later
// reader: a mutex-guarded shared_ptr<const T> whose first Put wins.
// Concurrent first callers may each build; nobody waits on another
// caller's build.
#ifndef DXREC_UTIL_STORE_ONCE_H_
#define DXREC_UTIL_STORE_ONCE_H_

#include <memory>
#include <mutex>
#include <utility>

namespace dxrec {
namespace util {

template <typename T>
class StoreOnce {
 public:
  // The stored value, or null before the first Put.
  std::shared_ptr<const T> Get() const {
    std::lock_guard<std::mutex> lock(mu_);
    return value_;
  }
  // Stores `value` unless another caller stored first; returns whichever
  // value is stored.
  std::shared_ptr<const T> Put(std::shared_ptr<const T> value) {
    std::lock_guard<std::mutex> lock(mu_);
    if (value_ == nullptr) value_ = std::move(value);
    return value_;
  }

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const T> value_;
};

}  // namespace util
}  // namespace dxrec

#endif  // DXREC_UTIL_STORE_ONCE_H_
