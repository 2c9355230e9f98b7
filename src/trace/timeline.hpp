// Per-rank busy/idle lanes of a streamed service schedule.
//
// The streaming scheduler's whole value is work conservation: ranks should
// be running the next queued job the moment their previous one drains. The
// message-level JobTrace cannot show that — it has no cross-job clock — so
// the service records one TimelineInterval per dispatched job (wall-clock
// start/end against the service's epoch, rank range, solo/streamed) into a
// ServiceTimeline. The timeline answers the observability questions the
// scheduler is judged by: per-rank busy and idle seconds, the total
// work-conservation gap (the wall-clock counterpart of
// ServiceStats::scheduler_gap_seconds), and a chrome://tracing export with
// one lane ("thread") per rank so interleaving is visible in a viewer.
//
// A service runs indefinitely, so the timeline keeps per-rank running sums
// (busy seconds, first dispatch, horizon) that stay exact over the whole
// history, but retains only the most recent kWindow intervals themselves.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

namespace parsyrk::trace {

/// One job's occupancy of its rank subset, in seconds since the timeline's
/// epoch (the service's construction).
struct TimelineInterval {
  std::uint64_t job_id = 0;  // the service job's completion_seq
  int rank_begin = 0;
  int rank_end = 0;
  double start_seconds = 0.0;
  double end_seconds = 0.0;
  bool solo = false;  // ran alone on a quiesced world

  bool operator==(const TimelineInterval&) const = default;
};

/// Record of the jobs the service dispatched, queryable per rank: exact
/// aggregates over every interval ever added, plus the most recent kWindow
/// intervals. Not thread-safe; the service copies it out under its own lock.
class ServiceTimeline {
 public:
  /// Intervals retained for intervals() and to_chrome_json().
  static constexpr std::size_t kWindow = 4096;

  explicit ServiceTimeline(int ranks = 0) : ranks_(ranks) {}

  int ranks() const { return ranks_; }
  void set_ranks(int ranks) { ranks_ = ranks; }

  /// Records one finished job. Intervals arrive in completion order; per
  /// rank they never overlap.
  void add(const TimelineInterval& interval);

  /// The most recent (at most kWindow) intervals, oldest first.
  const std::deque<TimelineInterval>& intervals() const { return intervals_; }

  /// Latest end_seconds over all intervals (0 when empty).
  double horizon_seconds() const { return horizon_; }

  /// Seconds `rank` spent inside job intervals.
  double busy_seconds(int rank) const;

  /// Seconds `rank` sat idle between its first dispatch and the timeline
  /// horizon — the straggler tax the streaming scheduler exists to remove.
  double idle_seconds(int rank) const;

  /// Summed idle rank-seconds over every rank (the timeline-side gap
  /// measure; compare with ServiceStats::scheduler_gap_seconds, which only
  /// counts gaps a queued job could actually have filled).
  double total_idle_seconds() const;

  /// chrome://tracing Trace Event Format: one complete ("X") event per
  /// (job, rank) of the retained window, with tid = rank, so each rank
  /// renders as a busy/idle lane.
  std::string to_chrome_json() const;

 private:
  int ranks_ = 0;
  std::deque<TimelineInterval> intervals_;
  double horizon_ = 0.0;
  std::vector<double> busy_;   // per rank, over every interval
  std::vector<double> first_;  // per rank earliest start; < 0 = never run
};

}  // namespace parsyrk::trace
