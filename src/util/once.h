// Run-once initialization that remembers a failure.
//
// std::call_once lets the next caller retry when the callable throws, and
// under g++'s -fsanitize=thread a throwing callable leaves the flag held,
// so every later caller hangs.  OnceState runs its callable at most once,
// under a mutex.  If the callable throws, the exception is stored and
// rethrown to every later caller, so all of them see the same located error
// instead of re-running the work.
#pragma once

#include <exception>
#include <mutex>
#include <utility>

namespace sdpm {

class OnceState {
 public:
  /// Run `fn` if no earlier call has run it; rethrow the exception it threw
  /// if it did.  Concurrent callers wait for the running call to finish.
  template <typename Fn>
  void call(Fn&& fn) {
    std::lock_guard lock(mutex_);
    if (error_) std::rethrow_exception(error_);
    if (done_) return;
    try {
      std::forward<Fn>(fn)();
    } catch (...) {
      error_ = std::current_exception();
      throw;
    }
    done_ = true;
  }

 private:
  std::mutex mutex_;
  bool done_ = false;
  std::exception_ptr error_;
};

}  // namespace sdpm
