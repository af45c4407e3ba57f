#include "snapshot/refresh_types.h"

#include <algorithm>

namespace snapdiff {

std::string_view RefreshMethodToString(RefreshMethod method) {
  switch (method) {
    case RefreshMethod::kFull:
      return "full";
    case RefreshMethod::kDifferential:
      return "differential";
    case RefreshMethod::kIdeal:
      return "ideal";
    case RefreshMethod::kLogBased:
      return "log-based";
    case RefreshMethod::kAsap:
      return "asap";
  }
  return "unknown";
}

uint64_t RetryPolicy::BackoffTicks(uint64_t k) const {
  uint64_t backoff = initial_backoff_ticks;
  for (uint64_t step = 1; step < k && backoff < max_backoff_ticks; ++step) {
    backoff *= 2;
  }
  return std::min(backoff, max_backoff_ticks);
}

std::string RefreshStats::ToString() const {
  std::string out = "RefreshStats{scanned=" + std::to_string(entries_scanned);
  out += " writes=" + std::to_string(base_writes);
  out += " msgs=" + std::to_string(traffic.messages);
  out += " (entry=" + std::to_string(traffic.entry_messages);
  out += " del=" + std::to_string(traffic.delete_messages);
  out += " ctl=" + std::to_string(traffic.control_messages) + ")";
  out += " frames=" + std::to_string(traffic.frames);
  out += " upserts=" + std::to_string(snap_upserts);
  out += " deletes=" + std::to_string(snap_deletes);
  out += " snaptime=" + std::to_string(new_snap_time);
  if (fell_back_to_full) out += " FELL_BACK_TO_FULL";
  if (served_from_cache) out += " SERVED_FROM_CACHE";
  out += "}";
  return out;
}

}  // namespace snapdiff
