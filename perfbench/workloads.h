// The four benchmark workloads and the interleaved-round runner that times
// them. See README.md for why each workload exists and which layer change it
// is predicted to show.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"
#include "runner/sweep.h"

namespace perfbench {

struct Workload {
  std::string name;
  /// Cells × seeds × duration. Replicate i is (cell i % cells, seed i / cells).
  smn::runner::SweepSpec sweep;
};

/// Builds workload `name` from the benchmark seed: the same seed gives the
/// same cells and replicate seeds. Throws std::invalid_argument for an
/// unknown name.
[[nodiscard]] Workload make_workload(const std::string& name, std::uint64_t seed);

/// Timings of one set of rounds. Every replicate step (setup, each day,
/// finish) is reduced to its fastest round first; "best" below means that.
struct Timing {
  double hall_days_per_s = 0.0;  // Σ hall-days ÷ Σ best replicate wall
  double day_ms_p50 = 0.0;       // over per-(replicate, day) bests
  double day_ms_p90 = 0.0;
  double day_ms_p99 = 0.0;
  double setup_s = 0.0;          // median over replicates of the best setup
  double frontier_ms = 0.0;      // median per-replicate best frontier (0: none)
  double frontier_share = 0.0;   // Σ best frontier ÷ Σ best replicate wall
  std::size_t rounds = 0;
  std::size_t day_samples = 0;
  std::size_t setup_samples = 0;
};

struct WorkloadResult {
  Timing untraced;
  Timing traced;       // rounds == 0 unless spans were recorded
  Counts counts{};     // per-layer counts summed over one round's replicates
  std::size_t attempted = 0;  // replicate executions, reference round included
  std::size_t failed = 0;     // executions whose outputs did not reproduce
};

/// Runs the reference round (every replicate once through
/// SweepRunner::run_replicate, untimed) and then timed rounds of the same
/// replicates until `seconds` have passed (at least three). With `spans`
/// non-null, every other round records spans into it, and `traced` holds
/// those rounds' timings. Every timed replicate must reproduce its reference
/// trace hash (and metrics and frontier hashes) and the first timed round's
/// outcome, counts included; any miss counts as failed.
[[nodiscard]] WorkloadResult run_workload(const Workload& w, double seconds,
                                          SpanRecorder* spans);

}  // namespace perfbench
