#ifndef SNAPDIFF_COMMON_CLEANUP_H_
#define SNAPDIFF_COMMON_CLEANUP_H_

#include <utility>

namespace snapdiff {

/// Runs `f` when the scope ends, on every exit path (error returns
/// included):
///
///   Cleanup heal([&] { channel->Heal(); });
template <typename F>
class Cleanup {
 public:
  explicit Cleanup(F f) : f_(std::move(f)) {}
  ~Cleanup() { f_(); }

  Cleanup(const Cleanup&) = delete;
  Cleanup& operator=(const Cleanup&) = delete;

 private:
  F f_;
};

}  // namespace snapdiff

#endif  // SNAPDIFF_COMMON_CLEANUP_H_
