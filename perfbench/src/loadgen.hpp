// Open-loop load generator: request i of a rung is due at i / rate seconds
// after the rung starts, whether or not earlier requests have returned —
// independent users, not callers waiting on replies. Each request is timed
// from when it was due, so a stall shows as latency on every request it
// delays, and the generator reports its own lateness and backlog so that a
// stalled generator cannot pass for a fast server.
#pragma once

#include <chrono>
#include <cstddef>
#include <functional>
#include <vector>

namespace perfbench {

/// When one request was due, started and finished (seconds since the rung's
/// start), as the generator saw it.
struct Timing {
  double due_s = 0;
  double start_s = 0;
  double end_s = 0;

  [[nodiscard]] double latency_ms() const { return (end_s - due_s) * 1e3; }  // from due time
  [[nodiscard]] double rtt_ms() const { return (end_s - start_s) * 1e3; }    // around the call
  [[nodiscard]] double late_ms() const { return (start_s - due_s) * 1e3; }
};

struct RungResult {
  double rate_rps = 0;
  std::chrono::steady_clock::time_point t0;  // the rung's start; Timing is relative to it
  std::vector<Timing> timing;  // by request index
  /// Most requests ever due but not yet started, sampled at every start.
  std::size_t backlog_max = 0;
  /// Requests due but not started when the last one fell due: a backlog
  /// that grows through the rung ends large here.
  std::size_t backlog_end = 0;
};

/// Sends request `index`; called from one sender thread, blocking.
using SendFn = std::function<void(std::size_t index)>;

/// Builds one sender's SendFn (per-thread state such as its own connection
/// client lives in the returned closure).
using SenderFactory = std::function<SendFn(int sender)>;

/// Run one rung of `count` requests at `rate_rps` over `senders` threads
/// (one connection each at a time). All threads are joined before return.
[[nodiscard]] RungResult run_rung(double rate_rps, std::size_t count, int senders,
                                  const SenderFactory& make_sender);

}  // namespace perfbench
