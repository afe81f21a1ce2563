#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <stdexcept>

#include "core/predictor.hpp"
#include "stats.hpp"

namespace perfbench {

using pp::core::FlowMetrics;
using pp::core::Scenario;

pp::api::SessionOptions session_options(const std::string& cache_dir) {
  pp::api::SessionOptions o;
  o.scale = pp::Scale::kQuick;
  o.fidelity = pp::sim::SimFidelity::kExact;
  o.sample_period_max.reset();
  o.threads = kThreads;
  o.cache_dir = cache_dir;
  o.cache_dir_ro.clear();
  o.run_budget_ms = 0;
  return o;
}

std::string render(const pp::api::Result& r, const std::string& format) {
  if (format == "json") return r.to_json();
  if (format == "csv") return r.to_csv();
  return r.to_text() + "\n";
}

bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

[[nodiscard]] double median_of(std::vector<double> v) { return summarize(std::move(v), 90).median; }

/// The scenario every solo spec of `type` lowers to at `fidelity`.
[[nodiscard]] Scenario solo_scenario(const std::string& type, pp::sim::SimFidelity fidelity) {
  pp::core::FlowType t{};
  if (!pp::api::flow_type_from_string(type, t)) throw std::runtime_error("unknown flow " + type);
  pp::core::ProfileStore scratch;
  const pp::api::ViewStack v(session_options("").with_fidelity(fidelity), 0, scratch);
  return v.solo.plan(pp::core::FlowSpec::of(t))[0];
}

}  // namespace

void run_layer_probe(Context& ctx) {
  Report& rep = *ctx.report;
  using pp::sim::SimFidelity;

  // The fixed subset: each realistic type's solo scenario and its SYN_MAX
  // sweep point (normal placement), all of them scenarios of the
  // sweep_streamed batch, run at exact and at streamed fidelity.
  double exact_ms = 0, streamed_ms = 0, drift_sum = 0;
  int drift_n = 0;
  pp::sim::Counters machine;  // every flow of every exact run
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> per_class;  // instr, packets
  const auto timed_run = [](const Scenario& s, double& ms) {
    const Clock::time_point t0 = Clock::now();
    pp::core::ScenarioResult r = pp::core::run_scenario(s);
    ms = ms_since(t0);
    return r;
  };

  for (const std::string& type : flow_type_names()) {
    pp::core::FlowType ft{};
    (void)pp::api::flow_type_from_string(type, ft);
    std::vector<double> exact_pps;
    for (const SimFidelity fid : {SimFidelity::kExact, SimFidelity::kStreamed}) {
      const bool exact = fid == SimFidelity::kExact;
      pp::core::ProfileStore scratch;
      const pp::api::ViewStack v(session_options("").with_fidelity(fid), 0, scratch);
      const Scenario subset[] = {
          v.solo.plan(pp::core::FlowSpec::of(ft))[0],
          v.sweep.level_scenario(pp::core::FlowSpec::of(ft), pp::core::ContentionMode::kBoth,
                                 pp::core::SweepProfiler::default_levels(pp::Scale::kQuick).back(), 0)};
      for (std::size_t k = 0; k < std::size(subset); ++k) {
        double ms = 0;
        const pp::core::ScenarioResult r = timed_run(subset[k], ms);
        (exact ? exact_ms : streamed_ms) += ms;
        if (k == 0) {
          rep.set("core.scenario.run_ms." + type + (exact ? ".exact" : ".streamed"), ms, "ms",
                  "run_scenario, solo " + type);
        }
        if (exact) {
          exact_pps.push_back(r[0].pps());
          for (const FlowMetrics& m : r) machine += m.delta;
          if (k == 0) {
            for (const pp::core::ElementStat& e : r[0].elements) {
              auto& [instr, packets] = per_class[e.cls];
              instr += e.delta.instructions;
              packets += r[0].delta.packets;
            }
          }
        } else {
          drift_sum += 100.0 * std::abs(r[0].pps() - exact_pps[k]) / std::max(1.0, exact_pps[k]);
          ++drift_n;
        }
      }
    }
  }

  const auto per_packet = [&](double v) {
    return FlowMetrics::ratio(v, static_cast<double>(machine.packets));
  };
  const auto accesses = static_cast<double>(machine.l1_hits + machine.l1_misses);
  rep.set("sim.packets", static_cast<double>(machine.packets), "count", "10 exact runs, all flows");
  rep.set("sim.accesses", accesses, "count", "10 exact runs, all flows");
  rep.set("sim.l3_refs_per_packet", per_packet(static_cast<double>(machine.l3_refs)), "count");
  rep.set("sim.mc_queue_cycles_per_packet", per_packet(static_cast<double>(machine.mc_queue_cycles)), "cycles");
  rep.set("sim.qpi_queue_cycles_per_packet", per_packet(static_cast<double>(machine.qpi_queue_cycles)), "cycles");
  rep.set("sim.host_ns_per_packet", per_packet(exact_ms * 1e6), "ns", "exact host time / packets");
  rep.set("sim.host_ns_per_access", FlowMetrics::ratio(exact_ms * 1e6, accesses), "ns",
          "exact host time / accesses");
  for (const std::string& cls : element_classes()) {
    const auto it = per_class.find(cls);
    const double v = it == per_class.end()
                         ? 0.0
                         : FlowMetrics::ratio(static_cast<double>(it->second.first),
                                              static_cast<double>(it->second.second));
    rep.set("click.instr_per_packet." + cls, v, "instr", "5 exact solo runs");
  }
  rep.set("model.streamed_speedup", FlowMetrics::ratio(exact_ms, streamed_ms), "x",
          "exact / streamed host time, 10 scenarios");
  rep.set("model.pps_drift_pct", drift_sum / std::max(1, drift_n), "%",
          "mean |streamed - exact| target pps, 10 scenarios");

  // Store costs. A miss on an on-disk store minus a miss on an in-memory
  // store of the same scenario is the persistence cost; short windows keep
  // the simulation (and its jitter) small beside it, and the order of the
  // two alternates so neither always runs on the other's warmed caches.
  // Then memory hits and key hashing.
  const std::filesystem::path dir = ctx.run_dir / "probe-store";
  pp::core::ProfileStore disk(dir.string());
  std::vector<double> miss_extra, hit_us, key_us;
  for (const std::string& type : flow_type_names()) {
    for (std::uint64_t rep_seed = 1; rep_seed <= 4; ++rep_seed) {
      Scenario s = solo_scenario(type, SimFidelity::kExact);
      s.warmup_ms = 0.1;
      s.measure_ms = 0.1;
      s.seed = 1000 + rep_seed;
      pp::core::ProfileStore memory;
      const auto miss_ms = [&](pp::core::ProfileStore& store) {
        const Clock::time_point t0 = Clock::now();
        (void)store.get_or_run(s);
        return ms_since(t0);
      };
      const bool disk_first = rep_seed % 2 == 0;
      const double first = miss_ms(disk_first ? disk : memory);
      const double second = miss_ms(disk_first ? memory : disk);
      miss_extra.push_back(disk_first ? first - second : second - first);
      for (int i = 0; i < 100; ++i) {
        const Clock::time_point h = Clock::now();
        (void)disk.get_or_run(s);
        hit_us.push_back(ms_since(h) * 1e3);
        const Clock::time_point k = Clock::now();
        const pp::core::ScenarioKey key = pp::core::scenario_key(s);
        key_us.push_back(ms_since(k) * 1e3);
        if (key.hi == 0 && key.lo == 0) rep.fail("scenario_key returned the zero key");
      }
    }
  }
  rep.set("core.store.miss_persist_ms", median_of(miss_extra), "ms",
          "on-disk miss minus in-memory miss of the same scenario, n=" + std::to_string(miss_extra.size()));
  rep.set("core.store.hit_us", median_of(hit_us), "us", "get_or_run hit, n=" + std::to_string(hit_us.size()));
  rep.set("core.scenario.key_us", median_of(key_us), "us", "n=" + std::to_string(key_us.size()));
  std::filesystem::remove_all(dir);
}

}  // namespace perfbench
