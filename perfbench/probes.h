// Fixed-age and cross-layer probes for the traced run.
//
// Calls that only read state are timed on live worlds at fixed ages — day 30
// (the end of a hall-sweep L3 replicate) and day 1,000 (the end of an
// aged-hall replicate) — so a figure never depends on how long a harness
// happened to run. Calls that change state (step_once) are timed only after
// the world's hashes were recorded, and the world is then thrown away.
#pragma once

#include <cstddef>
#include <cstdint>

#include "bench.h"

namespace perfbench {

struct Probes {
  double fault_step_once_us_day30 = 0.0;
  double fault_step_once_us_day1000 = 0.0;
  double telemetry_step_once_us_day30 = 0.0;
  double telemetry_watchlist_day1000 = 0.0;
  double tickets_total_day1000 = 0.0;
  double ticket_check_invariants_us_day30 = 0.0;
  double ticket_check_invariants_us_day1000 = 0.0;
  double history_for_us_day1000 = 0.0;
  double open_ticket_for_ns_day1000 = 0.0;
  double repeat_within_ns_day1000 = 0.0;
  double connected_ns = 0.0;
  double world_check_invariants_us_day30 = 0.0;
  double world_check_invariants_us_day1000 = 0.0;
  double day_ms_age_ratio = 0.0;  // median of days 900-999 ÷ days 0-99
  double campus_busy_share = 0.0;
  double campus_straggler_ms_per_day = 0.0;
  double campus_barrier_ms_per_day = 0.0;
  double shard_speedup = 0.0;
  double jobs_speedup = 0.0;
  double metrics_overhead_frac = 0.0;
  std::size_t attempted = 0;  // output checks made
  std::size_t failed = 0;     // output checks missed
};

/// Runs every probe on worlds built from `seed`; records a span per probe.
[[nodiscard]] Probes run_probes(std::uint64_t seed, SpanRecorder* spans);

}  // namespace perfbench
