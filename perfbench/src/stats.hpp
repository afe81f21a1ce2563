// The benchmark's own arithmetic: the percentile reporting rule, error
// accounting and the store hit ratio. Kept free of I/O so
// tests/arith_test.cpp can pin every rule on hand-made inputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/profile_store.hpp"

namespace perfbench {

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; otherwise the summary falls back (visibly) to a lower one.
inline constexpr std::size_t kTailMargin = 10;

/// One timing distribution as the benchmark reports it: the median plus the
/// highest percentile, up to the requested one, that still has kTailMargin
/// samples beyond it. Percentiles use the nearest-rank definition: the value
/// of rank ceil(p * n) in ascending order.
struct Summary {
  std::size_t count = 0;
  double median = 0;
  double tail = 0;
  double tail_pct = 0;      // percentile actually reported (e.g. 99, or 72.2 on fallback)
  bool tail_fallback = false;  // the requested percentile had < kTailMargin samples beyond it
  bool tail_is_max = false;    // too few samples for any tail percentile: the maximum

  /// "n=1000 p99" / "n=36 p72.2 (fallback from p90)" / "n=3 max (fallback from p90)".
  [[nodiscard]] std::string describe(double requested_pct) const;
};

/// Summarize `samples` (any order) with `tail_pct` in (50, 100) as the
/// requested tail. An empty input gives count 0 and zero values.
[[nodiscard]] Summary summarize(std::vector<double> samples, double tail_pct);

/// How one operation ended, for error_rate.
enum class OpResult : std::uint8_t {
  kOk,          // answered correctly on the first attempt
  kRetried,     // answered, but only after a refused or dropped attempt
  kRetriedOut,  // the client gave up: every attempt was refused or dropped
  kFailed,      // answered with a structured error
  kWrong,       // answered, but the answer failed a correctness check
};

/// error_rate = failed / attempted, where every class but kOk counts as
/// failed: a refused or retried request also misses any latency limit.
struct ErrorTally {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t retried = 0;
  std::uint64_t retried_out = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;

  void add(OpResult r);
  /// Turn one already-counted kOk into kWrong (a check that runs after the
  /// answer was tallied found it incorrect).
  void demote_ok_to_wrong();
  [[nodiscard]] std::uint64_t failures() const { return retried + retried_out + failed + wrong; }
  [[nodiscard]] double rate() const;
};

/// Store lookups that avoided simulation — memory, disk and read-only hits
/// plus coalesced waits — over every lookup (those plus `simulated`).
/// 0 when the store saw no lookups.
[[nodiscard]] double hit_ratio(const pp::core::ProfileStore::Stats& delta);

/// The `simulated=N` count in a ProfileStore::stats_line; -1 if absent.
[[nodiscard]] long long simulated_in_store_line(const std::string& line);

/// FNV-1a of a string, continuing from `h` (result digests).
[[nodiscard]] std::uint64_t digest(const std::string& s, std::uint64_t h = 0xcbf29ce484222325ULL);

}  // namespace perfbench
