// Metric names, the layer-to-end-to-end map, and the run report: the human
// lines (every metric with its unit and sample count) and the final JSON
// line the benchmark contract asks for.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

struct MetricDef {
  std::string name;
  std::string unit;
};

/// End-to-end metrics, reported by every workload with tracing off. Each is
/// defined on all three workloads (see README.md for what each workload
/// measures under each name).
[[nodiscard]] const std::vector<MetricDef>& end_to_end_metrics();

/// Per-layer metrics, reported by every workload in the traced run (a
/// layer a workload does not exercise reports 0).
[[nodiscard]] const std::vector<MetricDef>& per_layer_metrics();

/// The realistic flow types and the Click element classes they use, in the
/// order the per-layer names expand them.
[[nodiscard]] const std::vector<std::string>& flow_type_names();
[[nodiscard]] const std::vector<std::string>& element_classes();

/// Which end-to-end metric, on which workload, each per-layer metric (by
/// name prefix) should move.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>& layer_map();

class Report {
 public:
  Report(std::string workload, bool trace);

  /// Record a metric. End-to-end and per-layer names must be declared in
  /// the lists above; anything else is an informational line printed for
  /// people (never part of the JSON line).
  void set(const std::string& name, double value, const std::string& unit,
           const std::string& detail = {});

  /// Record a timing summary's median and tail under two names.
  void set_timing(const std::string& median_name, const std::string& tail_name,
                  const Summary& s, double requested_pct, const std::string& unit);

  /// A correctness check failed: the run is marked incorrect, exits nonzero
  /// and the failure is printed. Unless the caller already tallied the
  /// failed operation, it counts as one more failed operation.
  void fail(const std::string& why, bool already_tallied = false);

  ErrorTally tally;

  /// Print every line and the final JSON object; returns the exit code.
  [[nodiscard]] int finish();

 private:
  struct Value {
    double value = 0;
    std::string unit;
    std::string detail;
  };

  std::string workload_;
  bool trace_;
  std::map<std::string, Value> values_;
  std::vector<std::string> info_order_;
  std::vector<std::string> failures_;
};

}  // namespace perfbench
