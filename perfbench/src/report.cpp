#include "report.hpp"

#include <cmath>
#include <cstdio>

namespace perfbench {

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},        {"warm_p50_ms", "ms"}, {"cold_p50_ms", "ms"},
      {"predict_err_pp", "pp"}, {"peak_rss_mb", "MB"},
  };
  return defs;
}

const std::vector<std::string>& flow_type_names() {
  static const std::vector<std::string> names = {"IP", "MON", "FW", "RE", "VPN"};
  return names;
}

const std::vector<std::string>& element_classes() {
  static const std::vector<std::string> names = {
      "FromDevice",     "CheckIPHeader", "RadixIPLookup",  "DecIPTTL",
      "FlowStatistics", "SeqFirewall",   "RedundancyElim", "VpnEncrypt",
      "ToDevice",       "Discard",       "BufferPool"};
  return names;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d = {
        {"api.client.rtt_ms", "ms"},
        {"api.client.retries", "count"},
        {"api.serve.residual_ms", "ms"},
        {"api.serve.queued_mean", "count"},
        {"api.serve.queued_max", "count"},
        {"api.serve.shed", "count"},
        {"api.serve.deduped_inflight", "count"},
        {"api.serve.deadline_refused", "count"},
        {"api.spec.parse_us", "us"},
        {"api.session.warm_run_us", "us"},
        {"api.session.cold_run_ms", "ms"},
        {"api.result.render_us", "us"},
        {"api.result.bytes", "B"},
        {"core.store.simulated", "count"},
        {"core.store.memory_hits", "count"},
        {"core.store.disk_hits", "count"},
        {"core.store.coalesced", "count"},
        {"core.store.persist_errors", "count"},
        {"core.store.hit_ratio", "ratio"},
        {"core.store.hit_us", "us"},
        {"core.store.miss_persist_ms", "ms"},
        {"core.scenario.key_us", "us"},
    };
    for (const std::string& t : flow_type_names()) {
      d.push_back({"core.scenario.run_ms." + t + ".exact", "ms"});
      d.push_back({"core.scenario.run_ms." + t + ".streamed", "ms"});
    }
    d.push_back({"core.parallel.efficiency", "ratio"});
    for (const std::string& t : flow_type_names()) d.push_back({"core.predictor.err_pp." + t, "pp"});
    d.insert(d.end(), {{"sim.packets", "count"},
                       {"sim.accesses", "count"},
                       {"sim.l3_refs_per_packet", "count"},
                       {"sim.mc_queue_cycles_per_packet", "cycles"},
                       {"sim.qpi_queue_cycles_per_packet", "cycles"},
                       {"sim.host_ns_per_packet", "ns"},
                       {"sim.host_ns_per_access", "ns"}});
    for (const std::string& c : element_classes()) {
      d.push_back({"click.instr_per_packet." + c, "instr"});
    }
    d.insert(d.end(), {{"model.streamed_speedup", "x"},
                       {"model.pps_drift_pct", "%"},
                       {"loadgen.late_p99_ms", "ms"},
                       {"loadgen.backlog_max", "count"},
                       {"trace.overhead_pct", "%"}});
    return d;
  }();
  return defs;
}

const std::vector<std::pair<std::string, std::string>>& layer_map() {
  static const std::vector<std::pair<std::string, std::string>> map = {
      {"api.client.rtt_ms, api.client.retries",
       "warm_p50_ms and the warm tail on serve_warm; error_rate on serve_mixed"},
      {"api.serve.residual_ms", "warm_p50_ms on serve_warm"},
      {"api.serve.queued_mean, api.serve.queued_max", "the warm tail on serve_mixed"},
      {"api.serve.shed, .deduped_inflight, .deadline_refused", "error_rate on serve_mixed"},
      {"api.spec.parse_us", "warm_p50_ms on serve_warm"},
      {"api.session.warm_run_us", "warm_p50_ms on serve_warm"},
      {"api.session.cold_run_ms", "cold_p50_ms on serve_mixed"},
      {"api.result.render_us, api.result.bytes", "warm_p50_ms on serve_warm"},
      {"core.store.{simulated,memory_hits,disk_hits,coalesced,persist_errors,hit_ratio}",
       "cold_p50_ms on serve_mixed; cold_p50_ms (= wall_s) on sweep_streamed"},
      {"core.store.hit_us, core.scenario.key_us", "warm_p50_ms on serve_warm"},
      {"core.store.miss_persist_ms", "cold_p50_ms on serve_mixed"},
      {"core.scenario.run_ms.*.exact", "cold_p50_ms on serve_mixed"},
      {"core.scenario.run_ms.*.streamed, core.parallel.efficiency",
       "cold_p50_ms (= wall_s) on sweep_streamed"},
      {"core.predictor.err_pp.*", "predict_err_pp on sweep_streamed"},
      {"sim.*, click.instr_per_packet.*",
       "cold_p50_ms on serve_mixed; sim_mpps_host on sweep_streamed"},
      {"model.streamed_speedup, model.pps_drift_pct",
       "cold_p50_ms (= wall_s) and predict_err_pp on sweep_streamed"},
      {"loadgen.*, trace.overhead_pct", "none: measurement health"},
  };
  return map;
}

Report::Report(std::string workload, bool trace) : workload_(std::move(workload)), trace_(trace) {
  // A layer a workload does not exercise reports 0 rather than going missing.
  if (trace_) {
    for (const MetricDef& d : per_layer_metrics()) {
      values_[d.name] = Value{0, d.unit, "not exercised by this workload"};
    }
  }
}

void Report::set(const std::string& name, double value, const std::string& unit,
                 const std::string& detail) {
  if (values_.find(name) == values_.end()) info_order_.push_back(name);
  values_[name] = Value{value, unit, detail};
}

void Report::set_timing(const std::string& median_name, const std::string& tail_name,
                        const Summary& s, double requested_pct, const std::string& unit) {
  set(median_name, s.median, unit, "n=" + std::to_string(s.count) + " median");
  set(tail_name, s.tail, unit, s.describe(requested_pct));
}

void Report::fail(const std::string& why, bool already_tallied) {
  if (!already_tallied) tally.add(OpResult::kWrong);
  failures_.push_back(why);
}

int Report::finish() {
  const std::vector<MetricDef>& gated = trace_ ? per_layer_metrics() : end_to_end_metrics();
  const auto print_value = [&](const std::string& name, const Value& v) {
    std::printf("[%s] %-40s %16.6g %-6s %s\n", workload_.c_str(), name.c_str(), v.value,
                v.unit.c_str(), v.detail.c_str());
  };

  std::printf("[%s] --- %s metrics ---\n", workload_.c_str(), trace_ ? "per-layer" : "end-to-end");
  for (const MetricDef& d : gated) {
    const auto it = values_.find(d.name);
    if (it == values_.end()) {
      fail("metric " + d.name + " was not measured");
      continue;
    }
    if (!std::isfinite(it->second.value)) fail("metric " + d.name + " is not finite");
    print_value(d.name, it->second);
  }
  std::printf("[%s] --- also reported (not gated) ---\n", workload_.c_str());
  for (const std::string& name : info_order_) {
    bool is_gated = false;
    for (const MetricDef& d : gated) is_gated = is_gated || name == d.name;
    if (!is_gated) print_value(name, values_[name]);
  }
  std::printf("[%s] %-40s %16.6g %-6s %llu failed of %llu attempted\n", workload_.c_str(),
              "error_rate", tally.rate(), "ratio", static_cast<unsigned long long>(tally.failures()),
              static_cast<unsigned long long>(tally.attempted));
  if (trace_) {
    std::printf("[%s] --- which end-to-end metric each layer metric should move ---\n",
                workload_.c_str());
    for (const auto& [layer, moves] : layer_map()) {
      std::printf("[%s]   %s -> %s\n", workload_.c_str(), layer.c_str(), moves.c_str());
    }
  }
  if (tally.attempted == 0) fail("no operation was attempted");
  for (const std::string& f : failures_) std::printf("[%s] FAIL: %s\n", workload_.c_str(), f.c_str());

  const bool correct = failures_.empty() && tally.failures() == 0;
  std::string json = correct ? "{\"correct\": true" : "{\"correct\": false";
  json += ", \"attempted\": " + std::to_string(tally.attempted);
  json += ", \"failed\": " + std::to_string(tally.failures());
  json += ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : gated) {
    const auto it = values_.find(d.name);
    if (it == values_.end() || !std::isfinite(it->second.value)) continue;
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", it->second.value);
    json += (first ? "" : ", ");
    json += "\"" + d.name + "\": {\"value\": " + num + ", \"unit\": \"" + d.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace perfbench
