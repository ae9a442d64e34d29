#include "probes.h"

#include <algorithm>
#include <functional>
#include <thread>
#include <vector>

#include "obs/obs.h"
#include "runner/presets.h"
#include "runner/sweep.h"
#include "scenario/campus.h"
#include "scenario/world.h"

namespace perfbench {
namespace {

using smn::core::AutomationLevel;
namespace net = smn::net;
namespace runner = smn::runner;
namespace scenario = smn::scenario;
namespace sim = smn::sim;

constexpr int kBatches = 21;

/// Threads for the parallel forms (campus shards, sweep jobs): min(4, nproc).
[[nodiscard]] int parallel_width() {
  return static_cast<int>(std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
}

/// Keeps a computed value alive so the timed call is not optimized away.
inline void keep(std::uint64_t v) { asm volatile("" : : "r"(v) : "memory"); }

/// Median over kBatches of the mean seconds per call of `f`.
template <class F>
[[nodiscard]] double per_call_s(int calls_per_batch, F&& f) {
  std::vector<double> batches;
  for (int b = 0; b < kBatches; ++b) {
    const Clock::time_point t0 = Clock::now();
    for (int c = 0; c < calls_per_batch; ++c) f();
    batches.push_back(seconds_between(t0, Clock::now()) / calls_per_batch);
  }
  return median(batches);
}

struct Hashes {
  std::uint64_t trace = 0;
  std::uint64_t metrics = 0;
  friend bool operator==(const Hashes&, const Hashes&) = default;
};

[[nodiscard]] Hashes hashes_of(scenario::World& w) {
  return {w.simulator().trace_hash(), w.obs().metrics_hash()};
}

void check(Probes& p, bool ok) {
  ++p.attempted;
  if (!ok) ++p.failed;
}

[[nodiscard]] scenario::WorldConfig probe_config(std::uint64_t seed) {
  return runner::standard_world(AutomationLevel::kL3_HighAutomation, seed);
}

/// Day-30 world: read-only probes, then step_once probes after its hashes
/// are recorded. Returns the day-30 hashes for the day-1,000 world to meet.
Hashes probe_day30(const smn::topology::Blueprint& bp, std::uint64_t seed, Probes& p,
                   SpanRecorder* spans) {
  SpanScope span{spans, "probe.day30"};
  scenario::World w{bp, probe_config(seed)};
  w.run_for(sim::Duration::days(30));
  const Hashes at30 = hashes_of(w);

  p.ticket_check_invariants_us_day30 =
      per_call_s(50, [&] { w.tickets().check_invariants(); }) * 1e6;
  p.world_check_invariants_us_day30 = per_call_s(20, [&] { w.check_invariants(); }) * 1e6;
  // Server pairs in a fixed stride pattern: same pairs on every run.
  const std::vector<net::DeviceId>& servers = w.network().servers();
  net::ConnectivityEngine& conn = w.network().connectivity();
  p.connected_ns = per_call_s(20, [&] {
                     std::uint64_t hits = 0;
                     for (std::size_t i = 0; i < servers.size(); ++i) {
                       const std::size_t j = (i * 37 + 11) % servers.size();
                       hits += conn.connected(servers[i], servers[j]) ? 1 : 0;
                     }
                     keep(hits);
                   }) /
                   static_cast<double>(servers.size()) * 1e9;
  check(p, hashes_of(w) == at30);  // the read-only probes changed nothing

  // State-changing probes: this world is discarded afterwards.
  p.fault_step_once_us_day30 = per_call_s(5, [&] { w.injector().step_once(); }) * 1e6;
  p.telemetry_step_once_us_day30 = per_call_s(5, [&] { w.detection().step_once(); }) * 1e6;
  return at30;
}

void probe_day1000(const smn::topology::Blueprint& bp, std::uint64_t seed, const Hashes& at30,
                   Probes& p, SpanRecorder* spans) {
  SpanScope span{spans, "probe.day1000"};
  scenario::World w{bp, probe_config(seed)};
  w.start();
  std::vector<double> day_s;
  for (int d = 0; d < 1000; ++d) {
    const Clock::time_point t0 = Clock::now();
    w.run_for(sim::Duration::days(1));
    day_s.push_back(seconds_between(t0, Clock::now()));
    if (d == 29) check(p, hashes_of(w) == at30);  // same seed, same first 30 days
  }
  p.day_ms_age_ratio = median(std::vector<double>(day_s.end() - 100, day_s.end())) /
                       median(std::vector<double>(day_s.begin(), day_s.begin() + 100));
  const Hashes at1000 = hashes_of(w);

  const smn::maintenance::TicketSystem& tickets = w.tickets();
  const std::vector<net::Link>& links = w.network().links();
  const auto per_link = [&](auto&& call) {
    return per_call_s(1, [&] {
             std::uint64_t acc = 0;
             for (const net::Link& l : links) acc += call(l.id);
             keep(acc);
           }) /
           static_cast<double>(links.size());
  };
  p.tickets_total_day1000 = static_cast<double>(tickets.total());
  p.telemetry_watchlist_day1000 = static_cast<double>(w.detection().watchlist_size());
  p.ticket_check_invariants_us_day1000 =
      per_call_s(5, [&] { tickets.check_invariants(); }) * 1e6;
  p.world_check_invariants_us_day1000 = per_call_s(5, [&] { w.check_invariants(); }) * 1e6;
  p.history_for_us_day1000 =
      per_link([&](net::LinkId id) { return tickets.history_for(id).size(); }) * 1e6;
  p.open_ticket_for_ns_day1000 =
      per_link([&](net::LinkId id) { return tickets.open_ticket_for(id).has_value() ? 1u : 0u; }) *
      1e9;
  p.repeat_within_ns_day1000 = per_link([&](net::LinkId id) {
                                 return tickets.repeat_within(id, w.now(), sim::Duration::days(30))
                                            ? 1u
                                            : 0u;
                               }) *
                               1e9;
  check(p, hashes_of(w) == at1000);

  p.fault_step_once_us_day1000 = per_call_s(5, [&] { w.injector().step_once(); }) * 1e6;
}

/// The same hall-sweep L3 replicates with the obs registry on and off, a
/// day of each in turn; metrics must not move the trace.
void probe_obs_overhead(const smn::topology::Blueprint& bp, std::uint64_t seed, Probes& p,
                        SpanRecorder* spans) {
  SpanScope span{spans, "probe.obs_overhead"};
  double on_s = 0.0, off_s = 0.0;
  for (std::uint64_t k = 0; k < 4; ++k) {
    scenario::WorldConfig off_cfg = probe_config(seed + k);
    off_cfg.obs.metrics = false;
    scenario::World on{bp, probe_config(seed + k)};
    scenario::World off{bp, off_cfg};
    on.start();
    off.start();
    for (int d = 0; d < 30; ++d) {
      const Clock::time_point t0 = Clock::now();
      on.run_for(sim::Duration::days(1));
      const Clock::time_point t1 = Clock::now();
      off.run_for(sim::Duration::days(1));
      on_s += seconds_between(t0, t1);
      off_s += seconds_between(t1, Clock::now());
    }
    check(p, on.simulator().trace_hash() == off.simulator().trace_hash());
  }
  p.metrics_overhead_frac = on_s / off_s - 1.0;
}

/// hall-sweep's grid through SweepRunner::run at jobs 1 and jobs N; the
/// reports must agree byte for byte apart from timing.
void probe_jobs(std::uint64_t seed, Probes& p, SpanRecorder* spans) {
  SpanScope span{spans, "probe.jobs"};
  const runner::SweepSpec spec = runner::availability_sweep(sim::Duration::days(30), seed, 4);
  runner::SweepRunner sweeps;
  runner::SweepRunner::Options serial;
  serial.jobs = 1;
  runner::SweepRunner::Options parallel;
  parallel.jobs = parallel_width();
  const runner::SweepReport one = sweeps.run(spec, serial);
  const runner::SweepReport many = sweeps.run(spec, parallel);
  check(p, runner::to_json(one, {false}) == runner::to_json(many, {false}));
  p.jobs_speedup = one.wall_seconds / many.wall_seconds;
}

/// Campus replicates serial vs sharded (hashes must agree), then one serial
/// run through a benchmark-owned executor that times every domain task.
void probe_campus(std::uint64_t seed, Probes& p, SpanRecorder* spans) {
  SpanScope span{spans, "probe.campus"};
  const sim::Duration month = sim::Duration::days(30);
  const runner::SweepSpec spec = runner::campus_sweep(month, seed, 2);
  const runner::CellSpec& cell = spec.cells.front();
  double serial_s = 0.0, sharded_s = 0.0;
  std::uint64_t serial_trace = 0;
  for (std::uint64_t k = 0; k < spec.seeds; ++k) {
    const Clock::time_point t0 = Clock::now();
    const runner::ReplicateResult a =
        runner::SweepRunner::run_replicate(cell, 0, seed + k, month, false, 1);
    const Clock::time_point t1 = Clock::now();
    const runner::ReplicateResult b =
        runner::SweepRunner::run_replicate(cell, 0, seed + k, month, false, parallel_width());
    serial_s += seconds_between(t0, t1);
    sharded_s += seconds_between(t1, Clock::now());
    check(p, a.trace_hash == b.trace_hash && a.metrics_hash == b.metrics_hash);
    if (k == 0) serial_trace = a.trace_hash;
  }
  p.shard_speedup = serial_s / sharded_s;

  double task_s = 0.0, straggler_s = 0.0;
  const scenario::Campus::Executor timed = [&](std::vector<scenario::Campus::Task>& tasks) {
    double sum = 0.0, longest = 0.0;
    for (scenario::Campus::Task& t : tasks) {
      const Clock::time_point t0 = Clock::now();
      t();
      const double dt = seconds_between(t0, Clock::now());
      sum += dt;
      longest = std::max(longest, dt);
    }
    task_s += sum;
    if (!tasks.empty()) straggler_s += longest - sum / static_cast<double>(tasks.size());
  };
  scenario::CampusConfig cfg = cell.campus_config;
  cfg.hall = cell.config;
  cfg.hall.seed = seed;
  scenario::Campus campus{cell.campus, std::move(cfg)};
  const Clock::time_point t0 = Clock::now();
  campus.run_for(month, timed);
  const double wall_s = seconds_between(t0, Clock::now());
  check(p, campus.trace_hash() == serial_trace);
  const double days = month.to_days();
  p.campus_busy_share = task_s / wall_s;
  p.campus_straggler_ms_per_day = straggler_s * 1e3 / days;
  p.campus_barrier_ms_per_day = (wall_s - task_s) * 1e3 / days;
}

}  // namespace

Probes run_probes(std::uint64_t seed, SpanRecorder* spans) {
  SpanScope span{spans, "probes"};
  Probes p;
  const std::uint64_t first = 1 + seed * 1000;
  const smn::topology::Blueprint bp = runner::standard_fabric();
  const Hashes at30 = probe_day30(bp, first, p, spans);
  probe_day1000(bp, first, at30, p, spans);
  probe_obs_overhead(bp, first, p, spans);
  probe_jobs(first, p, spans);
  probe_campus(first, p, spans);
  return p;
}

}  // namespace perfbench
