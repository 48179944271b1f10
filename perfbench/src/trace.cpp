#include "trace.hpp"

#include <cstdio>

namespace perfbench {

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

void Tracer::begin(const std::string& name, std::uint64_t op) {
  Span s;
  s.name = name;
  s.op = op;
  s.parent = open_.empty() ? 0 : open_.back() + 1;
  s.start_us = now_us();
  spans_.push_back(std::move(s));
  open_.push_back(spans_.size() - 1);
}

void Tracer::end() {
  if (open_.empty()) return;
  spans_[open_.back()].end_us = now_us();
  open_.pop_back();
}

std::vector<double> Tracer::self_ms() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].duration_ms();
    if (spans_[i].parent != 0) {
      self[spans_[i].parent - 1] -= spans_[i].duration_ms();
    }
  }
  return self;
}

std::vector<double> Tracer::durations_ms(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.duration_ms());
  }
  return out;
}

std::vector<double> Tracer::self_times_ms(const std::string& name) const {
  const std::vector<double> self = self_ms();
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) out.push_back(self[i]);
  }
  return out;
}

std::string Tracer::chrome_json() const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  out +=
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
      "\"args\":{\"name\":\"perfbench (wall clock)\"}}";
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  ",{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                  "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"op\":%llu,\"span\":%zu,\"parent\":%zu}}",
                  s.name.c_str(), s.start_us, s.end_us - s.start_us,
                  static_cast<unsigned long long>(s.op), i + 1, s.parent);
    out += buf;
  }
  out += "]}\n";
  return out;
}

}  // namespace perfbench
