// perfbench: the simulator's end-to-end and per-layer benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans PATH]
//
// --trace 0 times the workload and prints the five end-to-end metrics;
// --trace 1 is the separate traced run that prints the per-layer metrics,
// records spans (written to --spans) and reports the tracing overhead. Lines
// starting with '#' are for people; the last line is one JSON object. Exit
// status is 0 when every output check passed, 1 when one failed, 2 on a
// usage error. README.md has the metric table and the method.
#include <cstdint>
#include <cstdlib>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.h"
#include "obs/metrics.h"
#include "probes.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = 0;
  std::string spans_path;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spans PATH]\n",
               why);
  std::exit(2);
}

[[nodiscard]] std::uint64_t parse_uint(const std::string& s, const char* flag) {
  std::size_t used = 0;
  unsigned long long v = 0;
  try {
    v = std::stoull(s, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (s.empty() || s[0] == '-' || used != s.size()) {
    usage((std::string{"bad value for "} + flag + ": " + s).c_str());
  }
  return v;
}

[[nodiscard]] Args parse(int argc, char** argv) {
  Args a;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
      have[0] = true;
    } else if (flag == "--seed") {
      a.seed = parse_uint(value, "--seed");
      have[1] = true;
    } else if (flag == "--seconds") {
      const std::uint64_t s = parse_uint(value, "--seconds");
      if (s < 1 || s > 120) usage("--seconds must be 1..120");
      a.seconds = static_cast<double>(s);
      have[2] = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      a.trace = value == "1" ? 1 : 0;
      have[3] = true;
    } else if (flag == "--spans") {
      a.spans_path = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!(have[0] && have[1] && have[2] && have[3])) usage("missing a required flag");
  return a;
}

[[nodiscard]] std::string cpu_model() {
  std::ifstream in{"/proc/cpuinfo"};
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

[[nodiscard]] std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

/// VmHWM, not getrusage: ru_maxrss survives exec, so under a launcher it
/// would report the launcher's peak whenever that is larger.
[[nodiscard]] double peak_rss_mb() {
  std::ifstream in{"/proc/self/status"};
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  return 0.0;
}

struct Metric {
  std::string name;
  double value = 0.0;
  const char* unit = "";
  bool exact = false;  // a deterministic count: must repeat bit for bit
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

[[nodiscard]] std::vector<Metric> end_to_end(const Timing& t) {
  return {
      {"hall_days_per_s", t.hall_days_per_s, "hall-days/s"},
      {"day_ms_p50", t.day_ms_p50, "ms"},
      {"day_ms_p90", t.day_ms_p90, "ms"},
      {"setup_s", t.setup_s, "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

[[nodiscard]] std::vector<Metric> per_layer(const WorkloadResult& r, const Probes& p) {
  const Counts& c = r.counts;
  const double hd = c[kHallDays];
  const auto rate = [&](Count k) { return hd > 0.0 ? c[k] / hd : 0.0; };
  const char* per_day = "1/hall-day";
  const double overhead = r.traced.hall_days_per_s > 0.0
                              ? r.untraced.hall_days_per_s / r.traced.hall_days_per_s - 1.0
                              : 0.0;
  return {
      {"sim.events_per_hall_day", rate(kEvents), per_day, true},
      {"sim.wakeups_per_hall_day.ticket", rate(kWakeTicket), per_day, true},
      {"sim.wakeups_per_hall_day.technician", rate(kWakeTechnician), per_day, true},
      {"sim.wakeups_per_hall_day.robot", rate(kWakeRobot), per_day, true},
      {"sim.wakeups_per_hall_day.telemetry", rate(kWakeTelemetry), per_day, true},
      {"sim.wakeups_per_hall_day.storage", rate(kWakeStorage), per_day, true},
      {"fault.faults_per_hall_day", rate(kFaults), per_day, true},
      {"fault.step_once_us.day30", p.fault_step_once_us_day30, "us"},
      {"fault.step_once_us.day1000", p.fault_step_once_us_day1000, "us"},
      {"telemetry.detections_per_hall_day", rate(kDetections), per_day, true},
      {"telemetry.false_positives_per_hall_day", rate(kFalsePositives), per_day, true},
      {"telemetry.watchlist_size.day1000", p.telemetry_watchlist_day1000, "count", true},
      {"telemetry.step_once_us.day30", p.telemetry_step_once_us_day30, "us"},
      {"maintenance.tickets_per_hall_day", rate(kTickets), per_day, true},
      {"maintenance.tickets_total.day1000", p.tickets_total_day1000, "count", true},
      {"maintenance.check_invariants_us.day30", p.ticket_check_invariants_us_day30, "us"},
      {"maintenance.check_invariants_us.day1000", p.ticket_check_invariants_us_day1000, "us"},
      {"maintenance.history_for_us.day1000", p.history_for_us_day1000, "us"},
      {"maintenance.open_ticket_for_ns.day1000", p.open_ticket_for_ns_day1000, "ns"},
      {"maintenance.repeat_within_ns.day1000", p.repeat_within_ns_day1000, "ns"},
      {"maintenance.technician_jobs_per_hall_day", rate(kTechnicianJobs), per_day, true},
      {"robotics.robot_jobs_per_hall_day", rate(kRobotJobs), per_day, true},
      {"robotics.robot_busy_hours_per_hall_day", rate(kRobotBusyHours), "h/hall-day", true},
      {"core.controller_decisions_per_hall_day", rate(kControllerDecisions), per_day, true},
      {"net.link_transitions_per_hall_day", rate(kLinkTransitions), per_day, true},
      {"net.connectivity_rebuilds_per_hall_day", rate(kConnectivityRebuilds), per_day, true},
      {"net.connected_ns", p.connected_ns, "ns"},
      {"storage.reads_per_hall_day", rate(kStorageReads), per_day, true},
      {"storage.degraded_read_frac",
       c[kStorageReads] > 0.0 ? c[kStorageBadReads] / c[kStorageReads] : 0.0, "ratio", true},
      {"storage.repairs_per_hall_day", rate(kStorageRepairs), per_day, true},
      {"storage.repaired_mb_per_hall_day", rate(kStorageRepairedMb), "MB/hall-day", true},
      {"analysis.frontier_ms", r.untraced.frontier_ms, "ms"},
      {"analysis.frontier_share", r.untraced.frontier_share, "ratio"},
      {"scenario.check_invariants_us.day30", p.world_check_invariants_us_day30, "us"},
      {"scenario.check_invariants_us.day1000", p.world_check_invariants_us_day1000, "us"},
      {"scenario.day_ms_age_ratio", p.day_ms_age_ratio, "ratio"},
      {"scenario.campus_barriers_per_hall_day", rate(kCampusBarriers), per_day, true},
      {"scenario.campus_messages_per_hall_day", rate(kCampusMessages), per_day, true},
      {"scenario.campus_domain_busy_share", p.campus_busy_share, "ratio"},
      {"scenario.campus_straggler_ms_per_day", p.campus_straggler_ms_per_day, "ms/day"},
      {"scenario.campus_barrier_ms_per_day", p.campus_barrier_ms_per_day, "ms/day"},
      {"runner.shard_speedup", p.shard_speedup, "ratio"},
      {"runner.jobs_speedup", p.jobs_speedup, "ratio"},
      {"obs.metrics_overhead_frac", p.metrics_overhead_frac, "ratio"},
      {"bench.trace_overhead_frac", overhead, "ratio"},
  };
}

/// FNV-1a over the exact metrics, so two traced runs of one seed can be
/// compared in one token.
[[nodiscard]] std::uint64_t counts_hash(const std::vector<Metric>& metrics) {
  std::string bytes;
  for (const Metric& m : metrics) {
    if (!m.exact) continue;
    char buf[8];
    std::memcpy(buf, &m.value, sizeof buf);
    bytes += m.name;
    bytes.append(buf, sizeof buf);
  }
  return smn::obs::fnv1a(bytes);
}

void print_timing(const char* label, const Timing& t) {
  std::printf(
      "# %s: %zu rounds; hall_days_per_s %.6g; day_ms p50 %.6g p90 %.6g p99 %.6g (p99 not "
      "gated) over %zu (replicate, day) bests; setup_s %.6g from %zu setups\n",
      label, t.rounds, t.hall_days_per_s, t.day_ms_p50, t.day_ms_p90, t.day_ms_p99,
      t.day_samples, t.setup_s, t.setup_samples);
}

int run(const Args& args) {
  Workload w;
  try {
    w = make_workload(args.workload, args.seed);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }
  std::printf(
      "# perfbench workload=%s seed=%llu seconds=%g trace=%d replicates=%zu days=%g\n",
      w.name.c_str(), static_cast<unsigned long long>(args.seed), args.seconds, args.trace,
      w.sweep.cells.size() * w.sweep.seeds, w.sweep.duration.to_days());
  std::printf(
      "# machine {\"nproc\": %u, \"cpu\": \"%s\", \"compiler\": \"%s\", \"build_type\": \"%s\"}\n",
      std::thread::hardware_concurrency(), json_escape(cpu_model()).c_str(), PERFBENCH_COMPILER,
      PERFBENCH_BUILD_TYPE);
  std::fflush(stdout);

  if (args.trace == 0) {
    const WorkloadResult r = run_workload(w, args.seconds, nullptr);
    print_timing("untraced", r.untraced);
    const bool ok = r.failed == 0;
    print_result(ok, r.attempted, r.failed, end_to_end(r.untraced));
    return ok ? 0 : 1;
  }

  // Traced run: most of the budget on alternating traced/untraced rounds,
  // the rest on the fixed-age probes.
  SpanRecorder spans;
  const WorkloadResult r = run_workload(w, args.seconds * 0.6, &spans);
  const Probes p = run_probes(args.seed, &spans);
  print_timing("untraced rounds", r.untraced);
  print_timing("traced rounds", r.traced);
  for (const SpanRecorder::NameTotals& t : spans.totals()) {
    std::printf("# span %-20s count %8zu total_ms %12.3f self_ms %12.3f\n", t.name.c_str(),
                t.count, t.total_ms, t.self_ms);
  }
  bool ok = r.failed == 0 && p.failed == 0;
  if (!args.spans_path.empty()) {
    const bool written = spans.write_json(args.spans_path);
    std::printf("# spans %zu written to %s: %s\n", spans.spans().size(),
                args.spans_path.c_str(), written ? "ok" : "FAILED");
    ok = ok && written;
  }
  const std::vector<Metric> metrics = per_layer(r, p);
  std::printf("# counts_hash %016llx\n",
              static_cast<unsigned long long>(counts_hash(metrics)));
  print_result(ok, r.attempted + p.attempted, r.failed + p.failed, metrics);
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(perfbench::parse(argc, argv)); }
