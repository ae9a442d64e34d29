// Shared pieces of the perfbench driver: wall-clock helpers, order
// statistics, the in-memory span recorder, and the per-replicate outcome the
// output checks compare.
//
// The driver is a closed loop: one replicate at a time, on the calling
// thread (a sharded campus replicate fans its halls out to a ShardPool and
// joins before the next step). Every timing it reports is built from the
// fastest of interleaved rounds of the same replicates, per replicate step —
// see README.md for why.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linear-interpolation quantile (q in [0, 1]) of `v`; 0 for an empty input.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Per-layer work counts of one replicate, read from public accessors and the
/// obs registry snapshot after the run. Deterministic: a replicate re-run in
/// a later round, or in another process with the same seed, must reproduce
/// every field bit for bit.
enum Count : std::size_t {
  kHallDays = 0,
  kEvents,
  kWakeTicket,
  kWakeTechnician,
  kWakeRobot,
  kWakeTelemetry,
  kWakeStorage,
  kFaults,
  kDetections,
  kFalsePositives,
  kTickets,
  kTechnicianJobs,
  kRobotJobs,
  kRobotBusyHours,
  kControllerDecisions,
  kLinkTransitions,
  kConnectivityRebuilds,
  kStorageReads,
  kStorageBadReads,
  kStorageRepairs,
  kStorageRepairedMb,
  kCampusBarriers,
  kCampusMessages,
  kCountSize,
};
using Counts = std::array<double, kCountSize>;

/// What one replicate produced: the determinism signals plus its counts.
struct Outcome {
  std::uint64_t trace_hash = 0;
  std::uint64_t metrics_hash = 0;
  std::uint64_t frontier_hash = 0;  // 0 when the cell has no frontier
  Counts counts{};

  friend bool operator==(const Outcome&, const Outcome&) = default;
};

/// One recorded span. Times are microseconds since the recorder was made;
/// `parent` indexes the enclosing span (-1 at top level) and `replicate` the
/// replicate the work belongs to (-1 when it belongs to none).
struct Span {
  const char* name = "";
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;
  int replicate = -1;
};

/// Spans kept in memory and written out once at the end, so recording costs
/// two clock reads and a vector append. Single-threaded by design: the
/// driver only opens spans on its own thread, around its own calls.
class SpanRecorder {
 public:
  SpanRecorder() : origin_{Clock::now()} {}

  int open(const char* name, int replicate);
  void close(int id);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Per span name: count, total and self time (duration minus the time its
  /// direct children cover), in first-seen order.
  struct NameTotals {
    std::string name;
    std::size_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  [[nodiscard]] std::vector<NameTotals> totals() const;

  /// Writes every span as one JSON document. Returns false on I/O failure.
  bool write_json(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a null recorder makes it a no-op (the untraced runs).
class SpanScope {
 public:
  SpanScope(SpanRecorder* rec, const char* name, int replicate = -1)
      : rec_{rec}, id_{rec != nullptr ? rec->open(name, replicate) : -1} {}
  ~SpanScope() {
    if (rec_ != nullptr) rec_->close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanRecorder* rec_;
  int id_;
};

}  // namespace perfbench
