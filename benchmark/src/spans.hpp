// Benchmark-local span recorder for traced runs.
//
// Spans are recorded from the benchmark's own code around each call it
// makes into a layer of the program (the program itself is not
// instrumented).  Each thread writes only its own slot, so recording takes
// no lock; the spans stay in memory and are written as one Chrome
// trace_event JSON file when the run ends.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "loadgen.hpp"

namespace gppm::benchmark {

struct Span {
  const char* name = "";  ///< a string literal
  Clock::time_point start;
  Clock::time_point end;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 for a root span
  std::uint64_t request = 0;  ///< shared by every span of one request
};

class SpanRecorder {
 public:
  /// Slots 0..kMaxSlots-1; generator threads use their thread index, the
  /// main thread uses kMainSlot.
  static constexpr std::size_t kMaxSlots = 9;
  static constexpr std::size_t kMainSlot = kMaxSlots - 1;

  explicit SpanRecorder(bool enabled);

  bool enabled() const { return enabled_; }
  /// A fresh span id, unique across slots.
  std::uint64_t new_id(std::size_t slot);
  /// Record a finished span.  No-op when disabled.
  void add(std::size_t slot, const Span& span);
  /// Record [start, end] under a fresh id; returns the id (0 when
  /// disabled).
  std::uint64_t add(std::size_t slot, const char* name,
                    Clock::time_point start, Clock::time_point end,
                    std::uint64_t parent, std::uint64_t request);

  /// Write every span as Chrome trace_event JSON ("X" complete events, one
  /// tid per slot, ids in args).
  void write_chrome_trace(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point epoch_;
  std::vector<std::vector<Span>> slots_;
  std::vector<std::uint64_t> next_id_;
};

/// Records [construction, destruction] as one span.  The id is reserved
/// up front so spans opened inside it can name it as their parent.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, std::size_t slot, const char* name,
             std::uint64_t parent = 0, std::uint64_t request = 0)
      : recorder_(recorder),
        slot_(slot),
        span_{name, Clock::now(), {},
              recorder.enabled() ? recorder.new_id(slot) : 0, parent,
              request} {}
  ~ScopedSpan() {
    span_.end = Clock::now();
    recorder_.add(slot_, span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return span_.id; }
  Clock::time_point start() const { return span_.start; }

 private:
  SpanRecorder& recorder_;
  std::size_t slot_;
  Span span_;
};

}  // namespace gppm::benchmark
