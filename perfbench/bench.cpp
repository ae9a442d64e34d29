#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

int SpanRecorder::open(const char* name, int replicate) {
  Span s;
  s.name = name;
  s.start_us = seconds_between(origin_, Clock::now()) * 1e6;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.replicate = replicate;
  spans_.push_back(s);
  const int id = static_cast<int>(spans_.size() - 1);
  stack_.push_back(id);
  return id;
}

void SpanRecorder::close(int id) {
  spans_[static_cast<std::size_t>(id)].end_us = seconds_between(origin_, Clock::now()) * 1e6;
  // Scopes nest, so the span being closed is always the innermost open one.
  stack_.pop_back();
}

std::vector<SpanRecorder::NameTotals> SpanRecorder::totals() const {
  // Children of one parent never overlap (one thread, nested scopes), so the
  // time they cover is the sum of their durations.
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_us[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
  }
  std::vector<NameTotals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto it = std::find_if(out.begin(), out.end(),
                           [&](const NameTotals& t) { return t.name == s.name; });
    if (it == out.end()) {
      out.push_back({s.name, 0, 0.0, 0.0});
      it = out.end() - 1;
    }
    const double dur_us = s.end_us - s.start_us;
    it->count += 1;
    it->total_ms += dur_us / 1e3;
    it->self_ms += (dur_us - child_us[i]) / 1e3;
  }
  return out;
}

bool SpanRecorder::write_json(const std::string& path) const {
  std::ofstream out{path};
  if (!out) return false;
  out << "{\"schema\":\"perfbench-spans-v1\",\"fields\":[\"name\",\"start_us\",\"end_us\","
         "\"parent\",\"replicate\"],\"spans\":[\n";
  char buf[64];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",\n") << "[\"" << s.name << "\",";
    std::snprintf(buf, sizeof buf, "%.3f,%.3f,", s.start_us, s.end_us);
    out << buf << s.parent << ',' << s.replicate << ']';
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
