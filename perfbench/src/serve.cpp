// serve_warm and serve_mixed: an in-process ppd (api::Server, workers=2)
// on loopback TCP, driven by the open-loop generator over kThreads
// connections.
//
//   serve_warm  — set-up pre-warms the catalog, so every measured request
//                 is a store hit: frame I/O, envelope and spec parsing,
//                 admission, store lookup and rendering, with the simulator
//                 idle. A reference rate gives warm_p50/p99; a rate ladder
//                 gives warm_max_rps.
//   serve_mixed — one rate below saturation; one request in kColdEvery is a
//                 never-seen exact spec that is simulated and persisted to
//                 the daemon's on-disk store, beside warm hits that can wait
//                 behind it in the two-slot admission gate.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>

#include "api/client.hpp"
#include "api/json.hpp"
#include "api/serve.hpp"
#include "base/strings.hpp"
#include "bench.hpp"
#include "loadgen.hpp"
#include "specs.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using pp::api::Client;

constexpr int kSetupReps = 3;
constexpr int kWorkers = 2;
constexpr int kMaxQueue = 8;

// serve_warm: the reference rate (warm_p50/p99) takes kWarmRefShare of the
// measured time; the ladder rungs share the rest. The reference rate keeps
// the CPUs busy: at a few hundred requests a second, idle-CPU wake-ups put
// millisecond stalls into some runs' tails and not others.
constexpr double kWarmRefRate = 1600;
constexpr double kWarmRefShare = 0.4;
constexpr double kLadder[] = {800, 3200, 6400};
constexpr double kWarmCycleSeconds = 5;
constexpr double kWarmLimitMs = 5;  // warm_max_rps: p99 (or fallback tail) limit

// serve_mixed: 60 requests a second offer 7.5 cold solo simulations a
// second (one pair every 267 ms) to the two admission slots, about 40% of
// their capacity. The warm requests arriving while a pair holds both slots
// — roughly a third of them — wait for it, so the warm tail is that wait.
constexpr double kMixedRate = 60;

// Warm-up before the measured rungs (catalog requests at the reference
// rate): connection and thread start-up costs settle before timing.
constexpr double kWarmupSeconds = 1;

constexpr std::size_t kSampleWarm = 16;
constexpr std::size_t kSampleCold = 4;
constexpr std::size_t kMaxFailureLines = 5;

/// An in-process ppd serving loopback TCP on a kernel-chosen port. The
/// serve thread is joined (after a drain) by drain() or the destructor.
class Daemon {
 public:
  explicit Daemon(const fs::path& store_dir) : server_(options(store_dir)) {
    std::string err;
    if (!server_.listen(&err)) throw std::runtime_error("ppd listen failed: " + err);
    thread_ = std::thread([this] {
      try {
        rc_ = server_.serve();
      } catch (const std::exception&) {
        rc_ = -2;
      }
    });
  }
  ~Daemon() { (void)drain(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  Daemon(Daemon&&) = delete;
  Daemon& operator=(Daemon&&) = delete;

  /// Drain and join; returns serve()'s exit code (0 = clean drain).
  int drain() {
    if (thread_.joinable()) {
      server_.begin_drain();
      thread_.join();
    }
    return rc_;
  }

  [[nodiscard]] pp::api::Server& server() { return server_; }
  [[nodiscard]] int port() const { return server_.tcp_port(); }

 private:
  static pp::api::ServerOptions options(const fs::path& store_dir) {
    pp::api::ServerOptions o;
    o.listen_host = "127.0.0.1";
    o.listen_port = 0;
    o.workers = kWorkers;
    o.max_queue = kMaxQueue;
    o.retry_after_ms = 2;
    o.session = session_options(store_dir.string());
    return o;
  }

  pp::api::Server server_;
  int rc_ = -1;
  std::thread thread_;  // declared last: it uses server_ and rc_
};

[[nodiscard]] pp::api::ClientOptions client_options(int port, std::uint64_t seed) {
  pp::api::ClientOptions c;
  c.endpoint.host = "127.0.0.1";
  c.endpoint.port = port;
  c.retries = 3;
  c.retry_base_ms = 2;
  c.retry_cap_ms = 20;
  c.retry_seed = seed;
  return c;
}

struct Answer {
  OpResult result = OpResult::kOk;
  int retries = 0;
  long long simulated = -1;  // from the reply's store delta
  std::size_t bytes = 0;
  std::string body;  // kept only for sampled requests
};

[[nodiscard]] Answer send(Client& c, const Request& r, bool keep_body) {
  const std::size_t slept_before = c.slept_ms().size();
  pp::api::Reply reply;
  const pp::Status st = c.run(r.spec, r.format, 0, reply);
  Answer a;
  a.retries = static_cast<int>(c.slept_ms().size() - slept_before);
  if (!st.ok()) {
    a.result = OpResult::kRetriedOut;
  } else if (reply.error.has_value() || reply.failed) {
    a.result = OpResult::kFailed;
  } else if (a.retries > 0) {
    a.result = OpResult::kRetried;
  }
  a.simulated = simulated_in_store_line(reply.store_line);
  a.bytes = reply.body.size();
  if (keep_body) a.body = std::move(reply.body);
  return a;
}

/// One rung of served load and everything observed about it.
struct Rung {
  bool measured = true;  // false for the warm-up rung
  std::vector<Request> requests;
  std::vector<bool> cold;
  std::vector<Answer> answers;
  RungResult load;
};

Rung drive(Context& ctx, Daemon& d, double rate, std::vector<Request> requests,
           std::vector<bool> cold, const std::set<std::size_t>& keep) {
  Rung rung;
  rung.requests = std::move(requests);
  rung.cold = std::move(cold);
  rung.answers.resize(rung.requests.size());
  const int port = d.port();
  rung.load = run_rung(rate, rung.requests.size(), kThreads, [&](int sender) -> SendFn {
    auto client = std::make_shared<Client>(client_options(port, ctx.seed * 131 + 7 + sender));
    return [&rung, &keep, client](std::size_t i) {
      rung.answers[i] = send(*client, rung.requests[i], keep.count(i) > 0);
    };
  });
  return rung;
}

[[nodiscard]] double latency_or_inf(const Rung& r, std::size_t i) {
  return r.answers[i].result == OpResult::kOk ? r.load.timing[i].latency_ms()
                                              : std::numeric_limits<double>::infinity();
}

/// Per-flow drop (percent) by flow type from a served JSON result.
[[nodiscard]] std::map<std::string, double> drops_by_type(const std::string& body,
                                                          const char* field) {
  std::map<std::string, double> out;
  const std::optional<pp::api::Json> j = pp::api::Json::parse(body);
  if (!j.has_value()) return out;
  const pp::api::Json* flows = j->find("flows");
  if (flows == nullptr || !flows->is_array()) return out;
  for (const pp::api::Json& f : flows->items()) {
    const pp::api::Json* type = f.find("type");
    const pp::api::Json* drop = f.find(field);
    if (type != nullptr && drop != nullptr && type->is_string() && drop->is_number()) {
      out[type->as_string()] = drop->as_double();
    }
  }
  return out;
}

/// Polls Server::stats() at a fixed interval (traced runs only) for the
/// admission queue depth.
class QueuePoller {
 public:
  explicit QueuePoller(pp::api::Server& server)
      : server_(server), thread_([this] { loop(); }) {}
  ~QueuePoller() { stop(); }
  QueuePoller(const QueuePoller&) = delete;
  QueuePoller& operator=(const QueuePoller&) = delete;
  QueuePoller(QueuePoller&&) = delete;
  QueuePoller& operator=(QueuePoller&&) = delete;

  void stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  [[nodiscard]] double mean() const { return polls_ == 0 ? 0 : sum_ / static_cast<double>(polls_); }
  [[nodiscard]] int max() const { return max_; }
  [[nodiscard]] double busy_ms() const { return busy_ms_; }

 private:
  void loop() {
    while (!stop_.load()) {
      const Clock::time_point t = Clock::now();
      const int q = server_.stats().queued;
      busy_ms_ += ms_since(t);
      sum_ += q;
      max_ = std::max(max_, q);
      ++polls_;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  pp::api::Server& server_;
  std::atomic<bool> stop_{false};
  // Written by the poll thread only; read after stop() joins it.
  double sum_ = 0;
  std::uint64_t polls_ = 0;
  int max_ = 0;
  double busy_ms_ = 0;
  std::thread thread_;  // declared last: it uses everything above
};

/// Scenario keys a cold spec's lowered plan simulates. Fails the run if a
/// key was already planned by an earlier cold request: the salt must make
/// every cold request unique.
[[nodiscard]] std::size_t expected_simulations(const std::string& spec_json,
                                               std::set<std::string>& seen, Report& rep) {
  std::string err;
  const std::optional<pp::api::ExperimentSpec> spec = pp::api::ExperimentSpec::parse(spec_json, &err);
  if (!spec.has_value()) throw std::runtime_error("cold spec does not parse: " + err);
  pp::core::ProfileStore scratch;
  const pp::api::ViewStack v(pp::api::apply_spec(*spec, session_options("")), spec->seeds,
                             scratch);
  std::set<std::string> keys;
  for (const pp::core::Scenario& s : pp::api::lower_spec(*spec, v.tb)) {
    keys.insert(pp::core::scenario_key(s).hex());
  }
  for (const std::string& k : keys) {
    if (!seen.insert(k).second) rep.fail("cold request reuses scenario key " + k);
  }
  return keys.size();
}

}  // namespace

void run_serve(Context& ctx, bool mixed) {
  Report& rep = *ctx.report;
  const std::vector<Request> catalog = serve_catalog();

  // ---- set-up: construct, listen and pre-warm the catalog, on a fresh
  // store. The first set-up's daemon serves the measured phase; the other
  // kSetupReps - 1 run after it, so the set-up median spans the whole run
  // rather than one stretch of machine speed. The pre-warm is issued in
  // catalog order — solos before the mixes that reuse them — so every seed
  // sees the same cold costs.
  std::vector<double> setup_s;
  std::vector<double> prewarm_ms;
  std::vector<std::string> catalog_bodies(catalog.size());
  const auto set_up = [&](int rep_i) {
    const fs::path store_dir = ctx.run_dir / ("store-" + std::to_string(rep_i));
    const Clock::time_point t0 = Clock::now();
    auto daemon = std::make_unique<Daemon>(store_dir);
    Client client(client_options(daemon->port(), ctx.seed));
    for (std::size_t c = 0; c < catalog.size(); ++c) {
      const Clock::time_point t = Clock::now();
      Answer a = send(client, catalog[c], true);
      prewarm_ms.push_back(ms_since(t));
      rep.tally.add(a.result);
      if (a.result != OpResult::kOk) {
        rep.fail("pre-warm of catalog entry " + std::to_string(c) + " failed", true);
      }
      if (rep_i == 0) {
        catalog_bodies[c] = std::move(a.body);
      } else if (a.result == OpResult::kOk && a.body != catalog_bodies[c]) {
        rep.fail("catalog entry " + std::to_string(c) + " served different bytes in set-up " +
                 std::to_string(rep_i));
      }
    }
    setup_s.push_back(ms_since(t0) / 1e3);
    return daemon;
  };
  const std::unique_ptr<Daemon> daemon = set_up(0);
  Daemon& d = *daemon;

  // ---- the measured phase
  std::vector<Rung> rungs;
  std::vector<std::size_t> expected;  // cold slot -> scenarios its plan simulates
  std::set<std::string> seen_cold_keys;

  const auto build = [&](double rate, double seconds, std::uint64_t salt, bool with_cold) {
    const auto n = static_cast<std::size_t>(std::max(1.0, std::round(rate * seconds)));
    const std::vector<std::size_t> seq = warm_sequence(ctx.seed ^ salt, n, catalog.size());
    std::vector<Request> reqs;
    std::vector<bool> cold(n, false);
    reqs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (with_cold && is_cold_slot(i)) {
        cold[i] = true;
        reqs.push_back(cold_request(ctx.seed, i));
      } else {
        reqs.push_back(catalog[seq[i]]);
      }
    }
    return std::make_pair(std::move(reqs), std::move(cold));
  };

  {
    auto [reqs, cold] = build(kWarmRefRate, kWarmupSeconds, 0xa11ULL, false);
    rungs.push_back(drive(ctx, d, kWarmRefRate, std::move(reqs), std::move(cold), {}));
    rungs.back().measured = false;
  }
  pp::core::ProfileStore::Stats store_before;
  pp::api::Server::Stats server_before;
  std::unique_ptr<QueuePoller> poller;
  Clock::time_point phase_t0;
  const auto start_phase = [&] {
    reset_peak_rss();
    store_before = d.server().store().stats();
    server_before = d.server().stats();
    if (ctx.trace) poller = std::make_unique<QueuePoller>(d.server());
    phase_t0 = Clock::now();
  };
  std::set<std::size_t> keep;  // sampled indices of the first measured rung (bodies kept)
  if (mixed) {
    auto [reqs, cold] = build(kMixedRate, ctx.seconds, 0, true);
    expected.assign(reqs.size(), 0);
    std::vector<std::size_t> cold_idx, warm_idx;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      if (cold[i]) {
        expected[i] = expected_simulations(reqs[i].spec, seen_cold_keys, rep);
        cold_idx.push_back(i);
      } else {
        warm_idx.push_back(i);
      }
    }
    for (const std::size_t k : sample_indices(ctx.seed, cold_idx.size(), kSampleCold)) keep.insert(cold_idx[k]);
    for (const std::size_t k : sample_indices(ctx.seed + 1, warm_idx.size(), kSampleWarm)) keep.insert(warm_idx[k]);
    start_phase();
    rungs.push_back(drive(ctx, d, kMixedRate, std::move(reqs), std::move(cold), keep));
  } else {
    // Cycles of the reference rung and the ladder, so every rate is
    // sampled across the whole run.
    const int cycles = std::max(1, static_cast<int>(std::lround(ctx.seconds / kWarmCycleSeconds)));
    const double ref_s = ctx.seconds * kWarmRefShare / cycles;
    const double ladder_s = ctx.seconds * (1 - kWarmRefShare) / (cycles * std::size(kLadder));
    for (int c = 0; c < cycles; ++c) {
      auto [reqs, cold] = build(kWarmRefRate, ref_s, 0x100ULL + c, false);
      if (c == 0) {
        for (const std::size_t k : sample_indices(ctx.seed, reqs.size(), kSampleWarm)) keep.insert(k);
        start_phase();
      }
      rungs.push_back(drive(ctx, d, kWarmRefRate, std::move(reqs), std::move(cold), c == 0 ? keep : std::set<std::size_t>{}));
      for (const double rate : kLadder) {
        auto [lreqs, lcold] = build(rate, ladder_s, static_cast<std::uint64_t>(rate) + c, false);
        rungs.push_back(drive(ctx, d, rate, std::move(lreqs), std::move(lcold), {}));
      }
    }
  }
  const double phase_ms = ms_since(phase_t0);
  if (poller) poller->stop();
  rep.set("peak_rss_mb", peak_rss_mb(), "MB", "VmHWM over the measured phase");
  const pp::core::ProfileStore::Stats store_delta =
      pp::core::ProfileStore::Stats::delta(d.server().store().stats(), store_before);
  const pp::api::Server::Stats server_after = d.server().stats();

  // ---- per-request checks, then tally
  std::size_t failure_lines = 0;
  const auto wrong = [&](const std::string& why) {
    if (failure_lines++ < kMaxFailureLines) rep.fail(why, true);
  };
  std::size_t expected_total = 0;
  for (Rung& r : rungs) {
    // Simulations the store-wide delta of request i can include: its own
    // plan plus those of the cold requests in flight beside it.
    const auto cold_overlap = [&](std::size_t i) {
      const Timing& t = r.load.timing[i];
      std::size_t sims = 0;
      for (std::size_t j = 0; j < r.requests.size(); ++j) {
        const Timing& o = r.load.timing[j];
        if (j != i && r.cold[j] && o.start_s < t.end_s && o.end_s > t.start_s) sims += expected[j];
      }
      return static_cast<long long>(sims);
    };
    for (std::size_t i = 0; i < r.requests.size(); ++i) {
      Answer& a = r.answers[i];
      if (a.result == OpResult::kOk) {
        const long long own = r.cold[i] ? static_cast<long long>(expected[i]) : 0;
        const long long beside = mixed ? cold_overlap(i) : 0;
        if (r.cold[i]) expected_total += expected[i];
        if (a.simulated < own || a.simulated > own + beside) {
          a.result = OpResult::kWrong;
          wrong(pp::strformat("%s request %zu reported simulated=%lld; its plan has %lld (%lld more "
                              "in flight beside it)",
                              r.cold[i] ? "cold" : "warm", i, a.simulated, own, beside));
        }
      }
      rep.tally.add(a.result);
    }
  }
  if (mixed && store_delta.simulated != expected_total) {
    rep.fail("serve_mixed simulated " + std::to_string(store_delta.simulated) +
             " scenarios; the cold requests' plans have " + std::to_string(expected_total));
  }

  // ---- served bytes == in-process Session::run, on a seeded sample; the
  // replays are also the traced requests' child spans.
  Rung& first = rungs[1];
  pp::core::ProfileStore ref_store;
  pp::api::Session ref_warm(session_options(""), &ref_store);
  pp::core::ProfileStore ref_cold_store((ctx.run_dir / "ref-cold").string());
  pp::api::Session ref_cold(session_options(ref_cold_store.cache_dir()), &ref_cold_store);
  std::set<std::string> ref_warmed;
  std::vector<double> parse_us, warm_run_us, cold_run_ms, render_us;
  const double tracer_t0 = ctx.tracer->to_us(first.load.t0);
  for (const std::size_t i : keep) {
    const Request& req = first.requests[i];
    if (first.answers[i].result != OpResult::kOk) continue;
    Clock::time_point t = Clock::now();
    std::string err;
    const std::optional<pp::api::ExperimentSpec> spec = pp::api::ExperimentSpec::parse(req.spec, &err);
    const double p_us = ms_since(t) * 1e3;
    if (!spec.has_value()) {
      rep.fail("sampled spec does not parse in-process: " + err);
      continue;
    }
    pp::api::Result result;
    double run_us = 0;
    if (first.cold[i]) {
      t = Clock::now();
      result = ref_cold.run(*spec);
      run_us = ms_since(t) * 1e3;
      cold_run_ms.push_back(run_us / 1e3);
    } else {
      if (ref_warmed.insert(req.spec).second) {
        t = Clock::now();
        (void)ref_warm.run(*spec);  // bring the reference store to the daemon's hit state
        cold_run_ms.push_back(ms_since(t));
      }
      t = Clock::now();
      result = ref_warm.run(*spec);
      run_us = ms_since(t) * 1e3;
      warm_run_us.push_back(run_us);
    }
    t = Clock::now();
    const std::string bytes = render(result, req.format);
    const double r_us = ms_since(t) * 1e3;
    parse_us.push_back(p_us);
    render_us.push_back(r_us);
    if (bytes != first.answers[i].body) {
      rep.tally.demote_ok_to_wrong();
      rep.fail("served bytes of request " + std::to_string(i) + " differ from Session::run", true);
    }
    if (ctx.trace) {
      const Timing& tm = first.load.timing[i];
      const std::uint64_t root = ctx.tracer->record("api.client.run", i + 1, 0,
                                                    tracer_t0 + tm.start_s * 1e6,
                                                    tracer_t0 + tm.end_s * 1e6);
      ctx.tracer->record_replayed(root, {{"api.spec.parse", p_us},
                                         {first.cold[i] ? "api.session.run.cold" : "api.session.run.warm", run_us},
                                         {"api.result.render", r_us}});
    }
  }

  if (d.drain() != 0) rep.fail("ppd drain did not exit 0");
  for (int rep_i = 1; rep_i < kSetupReps; ++rep_i) {
    if (set_up(rep_i)->drain() != 0) rep.fail("ppd drain after a set-up did not exit 0");
  }

  // ---- predict_err_pp from the served predict and corun of one mix
  const std::map<std::string, double> predicted =
      drops_by_type(catalog_bodies[kCatalogPredict], "predicted_drop_pct");
  const std::map<std::string, double> measured =
      drops_by_type(catalog_bodies[kCatalogCorun], "drop_pct");
  double err_sum = 0;
  for (const auto& [type, p] : predicted) {
    const auto m = measured.find(type);
    if (m == measured.end()) continue;
    err_sum += std::abs(p - m->second);
    if (ctx.trace) rep.set("core.predictor.err_pp." + type, std::abs(p - m->second), "pp");
  }
  if (predicted.empty() || predicted.size() != measured.size()) {
    rep.fail("served predict/corun results do not carry matching per-flow drops");
  } else {
    rep.set("predict_err_pp", err_sum / static_cast<double>(predicted.size()), "pp",
            "served predict vs corun of IP+MON (streamed)");
  }

  // ---- end-to-end metrics
  rep.set("setup_s", summarize(setup_s, 90).median, "s",
          "median of " + std::to_string(kSetupReps) + " set-ups (construct, listen, pre-warm " +
              std::to_string(catalog.size()) + " specs), one before and the rest after the load");
  std::vector<double> warm_lat, cold_lat;
  // serve_mixed: the two request classes of its one rung. serve_warm: the
  // reference-rate rungs, and the pre-warm requests — its only cold ones.
  for (const Rung& r : rungs) {
    if (!r.measured || r.load.rate_rps != first.load.rate_rps) continue;
    for (std::size_t i = 0; i < r.requests.size(); ++i) {
      (r.cold[i] ? cold_lat : warm_lat).push_back(latency_or_inf(r, i));
    }
  }
  if (!mixed) cold_lat = prewarm_ms;
  rep.set_timing("warm_p50_ms", "warm_p90_ms", summarize(warm_lat, 90), 90, "ms");
  const Summary warm99 = summarize(warm_lat, 99);
  rep.set("warm_p99_ms", warm99.tail, "ms", warm99.describe(99));
  rep.set_timing("cold_p50_ms", "cold_p90_ms", summarize(cold_lat, 90), 90, "ms");

  // ---- informational: offered rates, the ladder, the generator's health
  std::vector<double> late_ms;
  std::size_t backlog_max = 0;
  std::vector<double> rtt_ms;
  std::vector<double> bytes;
  int retries = 0;
  std::map<double, std::pair<std::vector<double>, std::size_t>> by_rate;  // latencies, worst backlog_end
  for (const Rung& r : rungs) {
    if (!r.measured) continue;
    auto& [lat, backlog_end] = by_rate[r.load.rate_rps];
    for (std::size_t i = 0; i < r.requests.size(); ++i) {
      late_ms.push_back(r.load.timing[i].late_ms());
      lat.push_back(latency_or_inf(r, i));
      rtt_ms.push_back(r.load.timing[i].rtt_ms());
      bytes.push_back(static_cast<double>(r.answers[i].bytes));
      retries += r.answers[i].retries;
    }
    backlog_max = std::max(backlog_max, r.load.backlog_max);
    backlog_end = std::max(backlog_end, r.load.backlog_end);
  }
  double max_ok_rate = 0;
  for (const auto& [rate, samples] : by_rate) {
    const Summary s = summarize(samples.first, 99);
    const bool ok = s.tail <= kWarmLimitMs && samples.second <= static_cast<std::size_t>(kThreads);
    if (ok) max_ok_rate = std::max(max_ok_rate, rate);
    rep.set(pp::strformat("offered_%g_rps.latency_tail_ms", rate), s.tail, "ms",
            s.describe(99) + pp::strformat(", median %.3f ms, worst backlog_end %zu, %s", s.median,
                                           samples.second,
                                           mixed ? "mixed" : (ok ? "meets limit" : "misses limit")));
  }
  if (!mixed) {
    rep.set("warm_max_rps", max_ok_rate, "1/s",
            pp::strformat("highest offered rate with warm tail <= %g ms and backlog_end <= %d",
                          kWarmLimitMs, kThreads));
  }
  const Summary late = summarize(late_ms, 99);
  rep.set("loadgen.late_p99_ms", late.tail, "ms", late.describe(99));
  rep.set("loadgen.backlog_max", static_cast<double>(backlog_max), "count");

  if (!ctx.trace) return;

  // ---- per-layer metrics (traced run)
  rep.set("api.client.rtt_ms", summarize(rtt_ms, 90).median, "ms",
          "median around Client::run, n=" + std::to_string(rtt_ms.size()));
  rep.set("api.client.retries", retries, "count");
  std::vector<double> residual_ms;
  {
    const std::vector<Span> spans = ctx.tracer->spans();
    const std::vector<double> self = self_times_us(spans);
    for (std::size_t s = 0; s < spans.size(); ++s) {
      if (spans[s].parent == 0 && spans[s].name == "api.client.run") residual_ms.push_back(self[s] / 1e3);
    }
  }
  rep.set("api.serve.residual_ms", summarize(residual_ms, 90).median, "ms",
          "request span self time: round trip minus replayed parse, run and render, n=" +
              std::to_string(residual_ms.size()));
  rep.set("api.serve.queued_mean", poller->mean(), "count", "Server::stats() every 2 ms");
  rep.set("api.serve.queued_max", poller->max(), "count");
  rep.set("api.serve.shed", static_cast<double>(server_after.shed - server_before.shed), "count");
  rep.set("api.serve.deduped_inflight",
          static_cast<double>(server_after.deduped_inflight - server_before.deduped_inflight), "count");
  rep.set("api.serve.deadline_refused",
          static_cast<double>(server_after.deadline_refused - server_before.deadline_refused), "count");
  rep.set("api.spec.parse_us", summarize(parse_us, 90).median, "us", "n=" + std::to_string(parse_us.size()));
  rep.set("api.session.warm_run_us", summarize(warm_run_us, 90).median, "us",
          "n=" + std::to_string(warm_run_us.size()));
  rep.set("api.session.cold_run_ms", summarize(cold_run_ms, 90).median, "ms",
          "n=" + std::to_string(cold_run_ms.size()));
  rep.set("api.result.render_us", summarize(render_us, 90).median, "us", "n=" + std::to_string(render_us.size()));
  rep.set("api.result.bytes", summarize(bytes, 90).median, "B");
  rep.set("core.store.simulated", static_cast<double>(store_delta.simulated), "count", "daemon store, measured phase");
  rep.set("core.store.memory_hits", static_cast<double>(store_delta.memory_hits), "count");
  rep.set("core.store.disk_hits", static_cast<double>(store_delta.disk_hits), "count");
  rep.set("core.store.coalesced", static_cast<double>(store_delta.coalesced), "count");
  rep.set("core.store.persist_errors", static_cast<double>(store_delta.persist_errors), "count");
  rep.set("core.store.hit_ratio", hit_ratio(store_delta), "ratio", "(hits + coalesced) / lookups");
  rep.set("trace.overhead_pct", 100.0 * (poller->busy_ms() + ctx.tracer->busy_us() / 1e3) / phase_ms,
          "%", "stats polling + span bookkeeping / measured phase");
  run_layer_probe(ctx);
}

}  // namespace perfbench
