// Shared pieces of the three workloads: the run context, the program's
// configuration as the benchmark fixes it, and small timing helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>

#include "api/session.hpp"
#include "report.hpp"
#include "trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Context {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::filesystem::path run_dir;    // scratch for this run; removed at exit
  std::filesystem::path state_dir;  // kept across runs of one build (digests)
  std::filesystem::path exe;        // this benchmark binary
  Report* report = nullptr;
  Tracer* tracer = nullptr;
};

/// Host threads for the program's fan-out: the four CPUs of the reference
/// machine, and the load generator's sender/connection count.
inline constexpr int kThreads = 4;

/// Every workload runs at quick scale; exact fidelity unless a spec asks
/// for another tier. Environment knobs are ignored: the benchmark passes
/// every setting explicitly.
[[nodiscard]] pp::api::SessionOptions session_options(const std::string& cache_dir);

/// A served result's bytes, rendered exactly as ppd renders `format`.
[[nodiscard]] std::string render(const pp::api::Result& r, const std::string& format);

[[nodiscard]] inline double ms_since(Clock::time_point t) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t).count();
}

/// Start a new peak-resident-set window (Linux clear_refs "5" resets the
/// VmHWM high-water mark). Returns false if the kernel refused, in which
/// case peak_rss_mb() reports the peak since process start.
bool reset_peak_rss();

/// Peak resident set (VmHWM) since the last reset_peak_rss(), in MB.
[[nodiscard]] double peak_rss_mb();

/// Trace-only probes of the core/sim/model layers, shared by every
/// workload: per-type scenario run times at exact and streamed fidelity,
/// simulated work counters, store hit/miss/key costs and the streamed
/// tier's speed-up and drift on a fixed scenario subset.
void run_layer_probe(Context& ctx);

void run_serve(Context& ctx, bool mixed);
void run_sweep(Context& ctx);

}  // namespace perfbench
