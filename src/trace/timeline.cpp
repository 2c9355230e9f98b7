#include "trace/timeline.hpp"

#include <algorithm>
#include <sstream>

#include "support/check.hpp"

namespace parsyrk::trace {

void ServiceTimeline::add(const TimelineInterval& interval) {
  PARSYRK_REQUIRE(interval.rank_begin >= 0 &&
                      interval.rank_begin < interval.rank_end,
                  "timeline interval needs a non-empty rank range");
  PARSYRK_REQUIRE(interval.end_seconds >= interval.start_seconds,
                  "timeline interval ends before it starts");
  ranks_ = std::max(ranks_, interval.rank_end);
  const auto lanes = static_cast<std::size_t>(interval.rank_end);
  if (busy_.size() < lanes) {
    busy_.resize(lanes, 0.0);
    first_.resize(lanes, -1.0);
  }
  for (int r = interval.rank_begin; r < interval.rank_end; ++r) {
    const auto i = static_cast<std::size_t>(r);
    busy_[i] += interval.end_seconds - interval.start_seconds;
    first_[i] = first_[i] < 0.0 ? interval.start_seconds
                                : std::min(first_[i], interval.start_seconds);
  }
  horizon_ = std::max(horizon_, interval.end_seconds);
  intervals_.push_back(interval);
  if (intervals_.size() > kWindow) intervals_.pop_front();
}

double ServiceTimeline::busy_seconds(int rank) const {
  if (rank < 0 || static_cast<std::size_t>(rank) >= busy_.size()) return 0.0;
  return busy_[static_cast<std::size_t>(rank)];
}

double ServiceTimeline::idle_seconds(int rank) const {
  // Idle counts from the rank's first dispatch (before that it was never
  // needed) to the timeline horizon (after which nothing is scheduled).
  if (rank < 0 || static_cast<std::size_t>(rank) >= first_.size()) return 0.0;
  const double first = first_[static_cast<std::size_t>(rank)];
  if (first < 0.0) return 0.0;
  return std::max(0.0, horizon_ - first - busy_seconds(rank));
}

double ServiceTimeline::total_idle_seconds() const {
  double total = 0.0;
  for (int r = 0; r < ranks_; ++r) total += idle_seconds(r);
  return total;
}

std::string ServiceTimeline::to_chrome_json() const {
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const TimelineInterval& iv : intervals_) {
    for (int r = iv.rank_begin; r < iv.rank_end; ++r) {
      if (!first) os << ",";
      first = false;
      // Microsecond timestamps, the unit trace viewers expect.
      os << "{\"name\":\"job " << iv.job_id << (iv.solo ? " (solo)" : "")
         << "\",\"ph\":\"X\",\"pid\":0,\"tid\":" << r
         << ",\"ts\":" << iv.start_seconds * 1e6
         << ",\"dur\":" << (iv.end_seconds - iv.start_seconds) * 1e6 << "}";
    }
  }
  os << "]}";
  return os.str();
}

}  // namespace parsyrk::trace
