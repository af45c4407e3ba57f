#ifndef SNAPDIFF_COMMON_SPIN_MUTEX_H_
#define SNAPDIFF_COMMON_SPIN_MUTEX_H_

#include <mutex>

namespace snapdiff {

/// A mutex that spins briefly before it blocks, for latches whose critical
/// sections are shorter than a sleep: a waiter that parks in the kernel
/// pays a wake-up of several microseconds for a latch its holder releases
/// within one or two. Lockable, so std::lock_guard takes it.
class SpinThenBlockMutex {
 public:
  void lock() {
    for (int i = 0; i < kSpins; ++i) {
      if (mu_.try_lock()) return;
      Pause();
    }
    mu_.lock();
  }
  bool try_lock() { return mu_.try_lock(); }
  void unlock() { mu_.unlock(); }

 private:
  /// About ten microseconds of pauses on current x86 cores.
  static constexpr int kSpins = 256;

  static void Pause() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
  }

  std::mutex mu_;
};

}  // namespace snapdiff

#endif  // SNAPDIFF_COMMON_SPIN_MUTEX_H_
