// Spans recorded by the benchmark's own code around calls into the
// program's layers (api, core, sim, model). Spans live in memory and are
// written out when the run ends; the spans of one request share a request
// id and name their parent span.
//
// The program itself is not instrumented yet, so the children of a served
// request are *replayed*: the benchmark re-executes the request's spec parse,
// Session::run and rendering in-process and records those durations as
// children laid back to back from the request's start. The request span's
// self time — its duration minus the part of it the children cover — is then
// the named residual: framing, envelope handling and admission inside ppd.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   // 0 = a root span
  std::uint64_t request = 0;  // shared by every span of one request
  std::string name;
  double start_us = 0;  // since the tracer's epoch
  double end_us = 0;

  [[nodiscard]] double duration_us() const { return end_us - start_us; }
};

/// Self time of every span, in input order: its duration minus the union of
/// its children's intervals clipped to its own interval. Never negative.
[[nodiscard]] std::vector<double> self_times_us(const std::vector<Span>& spans);

/// Thread-safe in-memory span store.
class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  Tracer();

  /// Microseconds from the tracer's epoch to `t`.
  [[nodiscard]] double to_us(Clock::time_point t) const;

  /// Record a finished span; returns its id (ids start at 1).
  std::uint64_t record(std::string name, std::uint64_t request, std::uint64_t parent,
                       double start_us, double end_us);

  /// Record `durations_us` as children of `parent`, laid back to back from
  /// the parent's start (replayed children; see the file comment).
  void record_replayed(std::uint64_t parent,
                       const std::vector<std::pair<std::string, double>>& durations_us);

  [[nodiscard]] std::vector<Span> spans() const;

  /// Host time spent inside record() and record_replayed() so far.
  [[nodiscard]] double busy_us() const;

  /// Write every span as one JSON document. Returns false on I/O failure.
  [[nodiscard]] bool write_json(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  double busy_us_ = 0;       // guarded by mu_
};

}  // namespace perfbench
