// sweep_streamed: the offline-profiling path. One Session::run_many batch at
// streamed fidelity, threads=4, against a cold in-memory store: a SYN sweep
// per realistic flow type in each contention mode, plus a predict and a
// corun of the five-flow mix. The model layer (sampled estimator, stream
// model) and the core thread fan-out do the work; the serve layer does none.
//
// The batch is the workload's cold operation (its latency is the batch wall
// time, wall_s); its warm operation is an in-process Session::run of one
// batch spec against the store the batch just filled.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <set>
#include <stdexcept>

#include "base/hash.hpp"
#include "base/rng.hpp"
#include "base/strings.hpp"
#include "bench.hpp"
#include "core/parallel.hpp"
#include "specs.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using pp::api::ExperimentSpec;
using pp::api::Result;

constexpr int kSetupReps = 120;  // at least; more when the run has more rounds
constexpr int kMinRounds = 2;
constexpr int kWarmPasses = 50;

/// Every scenario the batch plans, by content key, built through the same
/// public views Session::run uses: each sweep's solo baseline and (level,
/// seed) grid, each predict flow's solo plan and normal-placement sweep,
/// and the corun's lowered plan plus its flows' solo baselines.
[[nodiscard]] std::vector<pp::core::Scenario> batch_plan(const std::vector<ExperimentSpec>& specs) {
  std::map<std::string, pp::core::Scenario> by_key;
  const auto add = [&](const pp::core::Scenario& s) {
    by_key.emplace(pp::core::scenario_key(s).hex(), s);
  };
  for (const ExperimentSpec& spec : specs) {
    pp::core::ProfileStore scratch;
    const pp::api::SessionOptions eff = pp::api::apply_spec(spec, session_options(""));
    const pp::api::ViewStack v(eff, spec.seeds, scratch);
    const auto levels = pp::core::SweepProfiler::default_levels(eff.scale);
    const auto sweep = [&](const pp::core::FlowSpec& f, pp::core::ContentionMode mode) {
      for (const pp::core::Scenario& s : v.solo.plan(f)) add(s);
      for (const pp::core::SynParams& level : levels) {
        for (int si = 0; si < v.solo.seeds(); ++si) add(v.sweep.level_scenario(f, mode, level, si));
      }
    };
    for (const pp::core::FlowSpec& f : spec.flows) {
      switch (spec.kind) {
        case pp::api::ExperimentKind::kSweep:
          sweep(f, spec.mode);
          break;
        case pp::api::ExperimentKind::kPredict:
          sweep(f, pp::core::ContentionMode::kBoth);
          break;
        default:
          for (const pp::core::Scenario& s : v.solo.plan(f)) add(s);
          break;
      }
    }
    if (spec.kind == pp::api::ExperimentKind::kCorun) {
      for (const pp::core::Scenario& s : pp::api::lower_spec(spec, v.tb)) add(s);
    }
  }
  std::vector<pp::core::Scenario> out;
  out.reserve(by_key.size());
  for (auto& [k, s] : by_key) out.push_back(std::move(s));
  return out;
}

/// Packets the batch simulated: each sweep level's target flow, each
/// flow's solo baseline (carried by the predict), and the corun's flows.
[[nodiscard]] std::uint64_t simulated_packets(const std::vector<Result>& results) {
  std::uint64_t packets = 0;
  for (const Result& r : results) {
    for (const pp::core::SweepResult& sw : r.sweeps) {
      for (const pp::core::SweepLevel& l : sw.levels) packets += l.target.delta.packets;
    }
    if (r.kind == pp::api::ExperimentKind::kPredict || r.kind == pp::api::ExperimentKind::kCorun) {
      for (const pp::api::FlowReport& f : r.flows) packets += f.metrics.delta.packets;
    }
  }
  return packets;
}

struct PredictError {
  double mean_pp = 0;
  std::map<std::string, double> by_type;
};

[[nodiscard]] PredictError predict_error(const Result& predict, const Result& corun) {
  PredictError e;
  const std::size_t n = std::min(predict.flows.size(), corun.flows.size());
  for (std::size_t i = 0; i < n; ++i) {
    const double err = std::abs(predict.flows[i].drop_pct - corun.flows[i].drop_pct);
    e.by_type[pp::core::to_string(predict.flows[i].spec.type)] = err;
    e.mean_pp += err;
  }
  if (n > 0) e.mean_pp /= static_cast<double>(n);
  return e;
}

/// Digest of a batch's results, independent of batch order: each result's
/// JSON hashed in the order of its spec's canonical form.
[[nodiscard]] std::uint64_t batch_digest(const std::vector<ExperimentSpec>& specs,
                                         const std::vector<Result>& results,
                                         std::vector<double>* render_us,
                                         std::vector<double>* bytes) {
  std::vector<std::pair<std::string, std::size_t>> order;
  for (std::size_t i = 0; i < specs.size(); ++i) order.emplace_back(specs[i].to_json(), i);
  std::sort(order.begin(), order.end());
  std::uint64_t h = digest("");
  for (const auto& [key, i] : order) {
    const Clock::time_point t = Clock::now();
    const std::string json = results[i].to_json();
    if (render_us != nullptr) render_us->push_back(ms_since(t) * 1e3);
    if (bytes != nullptr) bytes->push_back(static_cast<double>(json.size()));
    h = digest(key, h);
    h = digest(json, h);
  }
  return h;
}

/// The digest of this build's batch, kept across runs in the state
/// directory: every run of one build must reproduce it exactly. The file is
/// keyed by a hash of the benchmark binary, so a rebuilt program starts a
/// new record instead of being compared with another build's results.
void check_digest_across_runs(Context& ctx, const std::string& record) {
  std::ifstream exe(ctx.exe, std::ios::binary);
  const std::string image((std::istreambuf_iterator<char>(exe)), std::istreambuf_iterator<char>());
  const fs::path path = ctx.state_dir / pp::strformat("sweep_streamed-%016llx.digest",
                                                     static_cast<unsigned long long>(digest(image)));
  std::error_code ec;
  fs::create_directories(ctx.state_dir, ec);
  if (fs::exists(path)) {
    std::ifstream in(path);
    const std::string before((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    if (before != record) {
      ctx.report->fail("sweep_streamed digest/predict_err_pp differ from an earlier run of this build: " +
                       before + " vs " + record);
    }
    return;
  }
  std::ofstream out(path);
  out << record;
}

}  // namespace

void run_sweep(Context& ctx) {
  Report& rep = *ctx.report;
  const std::vector<std::string> batch_json = sweep_batch(ctx.seed);
  const PredictPair pair = find_predict_pair(batch_json);
  if (pair.predict == pair.corun) throw std::runtime_error("the batch lacks its predict/corun pair");
  const pp::api::SessionOptions opts = session_options("");

  // ---- set-up: store + session construction and parsing the batch. Each
  // one takes tens of microseconds, so kSetupReps / (kMinRounds + 1) of them
  // run before the warm-up batch and before every measured round: the
  // median then spans the whole run rather than one instant.
  std::vector<double> setup_s, parse_us;
  std::vector<ExperimentSpec> specs;
  const auto set_up = [&](int reps) {
    for (int r = 0; r < reps; ++r) {
      const Clock::time_point t0 = Clock::now();
      pp::core::ProfileStore store;
      pp::api::Session session(opts, &store);
      std::vector<ExperimentSpec> parsed;
      parsed.reserve(batch_json.size());
      for (const std::string& j : batch_json) {
        const Clock::time_point t = Clock::now();
        std::string err;
        std::optional<ExperimentSpec> s = ExperimentSpec::parse(j, &err);
        parse_us.push_back(ms_since(t) * 1e3);
        if (!s.has_value()) throw std::runtime_error("batch spec does not parse: " + err);
        parsed.push_back(std::move(*s));
      }
      setup_s.push_back(ms_since(t0) / 1e3);
      specs = std::move(parsed);
    }
  };
  const int setup_chunk = kSetupReps / (kMinRounds + 1);
  set_up(setup_chunk);
  const std::vector<pp::core::Scenario> plan = batch_plan(specs);

  // ---- one unmeasured batch: the process's first batch pays first-touch
  // page faults for every machine it builds, which later batches reuse.
  {
    pp::core::ProfileStore store;
    pp::api::Session session(opts, &store);
    for (const Result& r : session.run_many(specs)) {
      rep.tally.add(r.ok() ? OpResult::kOk : OpResult::kFailed);
    }
  }

  // ---- measured rounds: a cold batch, then warm replays of its specs.
  std::vector<double> cold_ms, warm_ms, render_us, bytes;
  std::uint64_t packets = 0;
  double batch_ms_total = 0;
  std::uint64_t first_digest = 0;
  PredictError first_err;
  pp::core::ProfileStore::Stats store_total;
  reset_peak_rss();
  const Clock::time_point phase_t0 = Clock::now();
  int rounds = 0;
  std::vector<std::size_t> warm_order(specs.size());
  for (std::size_t i = 0; i < warm_order.size(); ++i) warm_order[i] = i;
  while (rounds < kMinRounds || ms_since(phase_t0) < ctx.seconds * 1e3) {
    set_up(setup_chunk);
    pp::core::ProfileStore store;
    pp::api::Session session(opts, &store);
    const Clock::time_point t0 = Clock::now();
    const std::vector<Result> results = session.run_many(specs);
    const double batch_ms = ms_since(t0);
    cold_ms.push_back(batch_ms);
    batch_ms_total += batch_ms;
    if (ctx.trace) {
      ctx.tracer->record("api.session.run_many", 1000000 + static_cast<std::uint64_t>(rounds), 0,
                         ctx.tracer->to_us(t0), ctx.tracer->to_us(t0) + batch_ms * 1e3);
    }

    for (const Result& r : results) rep.tally.add(r.ok() ? OpResult::kOk : OpResult::kFailed);
    const pp::core::ProfileStore::Stats st = store.stats();
    if (st.simulated != plan.size()) {
      rep.fail(pp::strformat("batch simulated %llu scenarios; its plan has %zu",
                             static_cast<unsigned long long>(st.simulated), plan.size()));
    }
    const std::uint64_t dg = batch_digest(specs, results, rounds == 0 ? &render_us : nullptr,
                                          rounds == 0 ? &bytes : nullptr);
    const PredictError err = predict_error(results[pair.predict], results[pair.corun]);
    if (rounds == 0) {
      first_digest = dg;
      first_err = err;
    } else if (dg != first_digest || err.mean_pp != first_err.mean_pp) {
      rep.fail("sweep_streamed results differ between rounds of one run");
    }
    packets += simulated_packets(results);

    // Warm replays, each checked against the cold batch's answer.
    pp::Pcg32 rng(pp::mix64(ctx.seed + static_cast<std::uint64_t>(rounds)));
    for (int pass = 0; pass < kWarmPasses; ++pass) {
      for (std::size_t i = warm_order.size(); i > 1; --i) {
        std::swap(warm_order[i - 1], warm_order[rng.bounded(static_cast<std::uint32_t>(i))]);
      }
      for (const std::size_t i : warm_order) {
        const Clock::time_point t = Clock::now();
        const Result r = session.run(specs[i]);
        const double ms = ms_since(t);
        warm_ms.push_back(ms);
        const bool same = r.ok() && (pass > 0 || r.to_json() == results[i].to_json());
        rep.tally.add(same ? OpResult::kOk : OpResult::kWrong);
      }
    }
    const pp::core::ProfileStore::Stats after = store.stats();
    if (after.simulated != st.simulated) rep.fail("a warm replay simulated a scenario");
    store_total.simulated += after.simulated;
    store_total.memory_hits += after.memory_hits;
    store_total.disk_hits += after.disk_hits;
    store_total.coalesced += after.coalesced;
    store_total.persist_errors += after.persist_errors;
    ++rounds;
  }
  const double phase_ms = ms_since(phase_t0);
  rep.set("peak_rss_mb", peak_rss_mb(), "MB", "VmHWM over the measured phase");
  check_digest_across_runs(ctx, pp::strformat("%016llx %.17g", static_cast<unsigned long long>(first_digest),
                                              first_err.mean_pp));

  // ---- end-to-end metrics
  rep.set("setup_s", summarize(setup_s, 90).median, "s",
          pp::strformat("median of %zu set-ups (store + session + parse %zu specs), %d before "
                        "each batch",
                        setup_s.size(), specs.size(), setup_chunk));
  rep.set_timing("warm_p50_ms", "warm_p90_ms", summarize(warm_ms, 90), 90, "ms");
  const Summary warm99 = summarize(warm_ms, 99);
  rep.set("warm_p99_ms", warm99.tail, "ms", warm99.describe(99));
  rep.set_timing("cold_p50_ms", "cold_p90_ms", summarize(cold_ms, 90), 90, "ms");
  rep.set("predict_err_pp", first_err.mean_pp, "pp", "predict vs corun of the five-flow mix");
  const Summary batch = summarize(cold_ms, 90);
  std::string each;
  for (const double ms : cold_ms) each += pp::strformat(" %.3f", ms / 1e3);
  rep.set("wall_s", batch.median / 1e3, "s",
          pp::strformat("median batch wall, n=%zu:%s", batch.count, each.c_str()));
  rep.set("sim_mpps_host", static_cast<double>(packets) / (batch_ms_total * 1e3), "Mpps",
          pp::strformat("%llu simulated target packets / %.3f s of batches",
                        static_cast<unsigned long long>(packets), batch_ms_total / 1e3));
  rep.set("batch_rounds", rounds, "count",
          pp::strformat("result digest %016llx in every round", static_cast<unsigned long long>(first_digest)));

  if (!ctx.trace) return;

  // ---- per-layer metrics (traced run)
  rep.set("api.spec.parse_us", summarize(parse_us, 90).median, "us", "n=" + std::to_string(parse_us.size()));
  rep.set("api.session.warm_run_us", summarize(warm_ms, 90).median * 1e3, "us",
          "n=" + std::to_string(warm_ms.size()));
  rep.set("api.result.render_us", summarize(render_us, 90).median, "us", "Result::to_json");
  rep.set("api.result.bytes", summarize(bytes, 90).median, "B");
  rep.set("core.store.simulated", static_cast<double>(store_total.simulated), "count",
          pp::strformat("%d rounds", rounds));
  rep.set("core.store.memory_hits", static_cast<double>(store_total.memory_hits), "count");
  rep.set("core.store.disk_hits", static_cast<double>(store_total.disk_hits), "count");
  rep.set("core.store.coalesced", static_cast<double>(store_total.coalesced), "count");
  rep.set("core.store.persist_errors", static_cast<double>(store_total.persist_errors), "count");
  rep.set("core.store.hit_ratio", hit_ratio(store_total), "ratio", "(hits + coalesced) / lookups");
  for (const auto& [type, e] : first_err.by_type) rep.set("core.predictor.err_pp." + type, e, "pp");

  // Parallel efficiency of the fan-out: the batch's scenarios over
  // parallel_for at kThreads, each run timed on its own thread.
  std::vector<double> each_ms(plan.size());
  const Clock::time_point pt0 = Clock::now();
  pp::core::parallel_for(plan.size(), kThreads, [&](std::size_t i) {
    const Clock::time_point t = Clock::now();
    (void)pp::core::run_scenario(plan[i]);
    each_ms[i] = ms_since(t);
  });
  const double fan_ms = ms_since(pt0);
  double sum_ms = 0;
  for (const double v : each_ms) sum_ms += v;
  rep.set("core.parallel.efficiency", sum_ms / (kThreads * fan_ms), "ratio",
          pp::strformat("sum of %zu scenario times / (%d x %.0f ms)", plan.size(), kThreads, fan_ms));

  rep.set("trace.overhead_pct", 100.0 * ctx.tracer->busy_us() / (phase_ms * 1e3), "%",
          "span bookkeeping / measured phase");
  run_layer_probe(ctx);
}

}  // namespace perfbench
