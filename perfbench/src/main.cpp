// ppbench — the repository benchmark's program (see ../README.md).
//
//   ppbench --workload serve_warm|serve_mixed|sweep_streamed --seed N
//           --seconds S --trace 0|1 --work-dir DIR
//
// Prints every metric by name with its unit and sample count, checks that
// the program's outputs are correct, and ends with one JSON line:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <unistd.h>

#include "base/strings.hpp"
#include "bench.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "ppbench: %s\nusage: ppbench --workload serve_warm|serve_mixed|sweep_streamed "
               "--seed N --seconds S --trace 0|1 --work-dir DIR\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Context ctx;
  std::string work_dir;
  std::int64_t trace = -1;
  std::int64_t seconds = -1;
  std::int64_t seed = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    bool ok = true;
    if (flag == "--workload") {
      ctx.workload = value;
    } else if (flag == "--seed") {
      ok = pp::parse_i64(value, seed) && seed >= 0;
    } else if (flag == "--seconds") {
      ok = pp::parse_i64(value, seconds) && seconds >= 1 && seconds <= 600;
    } else if (flag == "--trace") {
      ok = pp::parse_i64(value, trace) && (trace == 0 || trace == 1);
    } else if (flag == "--work-dir") {
      work_dir = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
    if (!ok) return usage(("bad value for " + flag).c_str());
  }
  if (argc % 2 != 1) return usage("flags take one value each");
  if (ctx.workload != "serve_warm" && ctx.workload != "serve_mixed" &&
      ctx.workload != "sweep_streamed") {
    return usage("unknown or missing --workload");
  }
  if (seed < 0 || seconds < 0 || trace < 0 || work_dir.empty()) return usage("missing flag");
  ctx.seed = static_cast<std::uint64_t>(seed);
  ctx.seconds = static_cast<double>(seconds);
  ctx.trace = trace == 1;
  ctx.state_dir = std::filesystem::path(work_dir) / "state";
  ctx.exe = argv[0];
  ctx.run_dir = std::filesystem::path(work_dir) /
                pp::strformat("run-%s-%lld-%d", ctx.workload.c_str(), static_cast<long long>(seed),
                              static_cast<int>(::getpid()));

  perfbench::Report report(ctx.workload, ctx.trace);
  perfbench::Tracer tracer;
  ctx.report = &report;
  ctx.tracer = &tracer;
  std::error_code ec;
  std::filesystem::remove_all(ctx.run_dir, ec);
  std::filesystem::create_directories(ctx.run_dir, ec);
  std::printf("[%s] seed=%lld seconds=%lld trace=%lld scale=quick threads=%d\n", ctx.workload.c_str(),
              static_cast<long long>(seed), static_cast<long long>(seconds),
              static_cast<long long>(trace), perfbench::kThreads);
  try {
    if (ctx.workload == "sweep_streamed") {
      perfbench::run_sweep(ctx);
    } else {
      perfbench::run_serve(ctx, ctx.workload == "serve_mixed");
    }
  } catch (const std::exception& e) {
    report.fail(std::string("benchmark aborted: ") + e.what());
  }
  if (ctx.trace) {
    const std::string path = (ctx.state_dir / pp::strformat("trace-%s-%lld.json", ctx.workload.c_str(), static_cast<long long>(seed))).string();
    std::filesystem::create_directories(ctx.state_dir, ec);
    if (tracer.write_json(path)) {
      std::printf("[%s] spans written to %s\n", ctx.workload.c_str(), path.c_str());
    } else {
      report.fail("cannot write spans to " + path);
    }
  }
  std::filesystem::remove_all(ctx.run_dir, ec);
  return report.finish();
}
