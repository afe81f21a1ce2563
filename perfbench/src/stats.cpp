#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "base/hash.hpp"

namespace perfbench {

namespace {

/// Nearest-rank index (0-based) of percentile `pct` among `n` sorted values.
[[nodiscard]] std::size_t rank_index(std::size_t n, double pct) {
  // The epsilon keeps 0.99 * 1000 (= 990.0000000000001 in binary) at rank 990.
  auto rank =
      static_cast<std::size_t>(std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return rank - 1;
}

[[nodiscard]] std::string fmt_pct(double pct) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4g", pct);
  return buf;
}

}  // namespace

std::string Summary::describe(double requested_pct) const {
  std::string s = "n=" + std::to_string(count) + " ";
  if (tail_is_max) {
    s += "max";
  } else {
    s += "p" + fmt_pct(tail_pct);
  }
  if (tail_fallback) s += " (fallback from p" + fmt_pct(requested_pct) + ")";
  return s;
}

Summary summarize(std::vector<double> samples, double tail_pct) {
  Summary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  s.median = samples[rank_index(n, 50.0)];

  const std::size_t want = rank_index(n, tail_pct);
  if (n - 1 - want >= kTailMargin) {
    s.tail = samples[want];
    s.tail_pct = tail_pct;
    return s;
  }
  // Fewer than kTailMargin samples beyond the requested rank: take the
  // highest rank that still has kTailMargin beyond it, as long as it sits
  // above the median; otherwise there is no meaningful tail but the max.
  s.tail_fallback = true;
  const std::size_t median_idx = rank_index(n, 50.0);
  if (n > kTailMargin && n - 1 - kTailMargin > median_idx) {
    const std::size_t idx = n - 1 - kTailMargin;
    s.tail = samples[idx];
    s.tail_pct = 100.0 * static_cast<double>(idx + 1) / static_cast<double>(n);
  } else {
    s.tail = samples.back();
    s.tail_pct = 100.0;
    s.tail_is_max = true;
  }
  return s;
}

void ErrorTally::add(OpResult r) {
  ++attempted;
  switch (r) {
    case OpResult::kOk:
      ++ok;
      break;
    case OpResult::kRetried:
      ++retried;
      break;
    case OpResult::kRetriedOut:
      ++retried_out;
      break;
    case OpResult::kFailed:
      ++failed;
      break;
    case OpResult::kWrong:
      ++wrong;
      break;
  }
}

void ErrorTally::demote_ok_to_wrong() {
  if (ok == 0) return;
  --ok;
  ++wrong;
}

double ErrorTally::rate() const {
  return attempted == 0 ? 0.0
                        : static_cast<double>(failures()) / static_cast<double>(attempted);
}

double hit_ratio(const pp::core::ProfileStore::Stats& d) {
  const std::uint64_t hits = d.memory_hits + d.disk_hits + d.ro_hits + d.coalesced;
  const std::uint64_t lookups = hits + d.simulated;
  return lookups == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(lookups);
}

long long simulated_in_store_line(const std::string& line) {
  const std::string key = "simulated=";
  const std::size_t at = line.find(key);
  if (at == std::string::npos) return -1;
  const char* p = line.c_str() + at + key.size();
  char* end = nullptr;
  const long long v = std::strtoll(p, &end, 10);
  return end == p ? -1 : v;
}

std::uint64_t digest(const std::string& s, std::uint64_t h) {
  return pp::fnv1a({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()}, h);
}

}  // namespace perfbench
