#include "spans.hpp"

#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace gppm::benchmark {

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled),
      epoch_(Clock::now()),
      slots_(kMaxSlots),
      next_id_(kMaxSlots, 0) {}

std::uint64_t SpanRecorder::new_id(std::size_t slot) {
  // The slot in the high bits keeps ids unique without sharing a counter;
  // ids stay below 2^53 so JSON readers hold them exactly.
  return (static_cast<std::uint64_t>(slot + 1) << 40) | ++next_id_.at(slot);
}

void SpanRecorder::add(std::size_t slot, const Span& span) {
  if (enabled_) slots_.at(slot).push_back(span);
}

std::uint64_t SpanRecorder::add(std::size_t slot, const char* name,
                                Clock::time_point start, Clock::time_point end,
                                std::uint64_t parent, std::uint64_t request) {
  if (!enabled_) return 0;
  Span span{name, start, end, new_id(slot), parent, request};
  slots_.at(slot).push_back(span);
  return span.id;
}

void SpanRecorder::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  char line[512];
  for (std::size_t slot = 0; slot < slots_.size(); ++slot) {
    for (const Span& s : slots_[slot]) {
      const double ts = seconds_between(epoch_, s.start) * 1e6;
      const double dur = seconds_between(s.start, s.end) * 1e6;
      std::snprintf(line, sizeof line,
                    "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                    "\"parent\":%llu,\"request\":%llu}}",
                    first ? "" : ",", s.name, slot, ts, dur,
                    static_cast<unsigned long long>(s.id),
                    static_cast<unsigned long long>(s.parent),
                    static_cast<unsigned long long>(s.request));
      out << line;
      first = false;
    }
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("failed writing trace file " + path);
}

}  // namespace gppm::benchmark
