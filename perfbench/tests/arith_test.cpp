// Tests of the benchmark's own arithmetic: the percentile reporting rule,
// span self time (and the named residual), error_rate accounting, the store
// hit-ratio base and the open-loop generator's due-time accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <thread>

#include "loadgen.hpp"
#include "specs.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // descending: summarize must sort
  return v;
}

TEST(Percentile, RequestedTailWhenTenSamplesLieBeyondIt) {
  const Summary s = summarize(one_to(1000), 99);
  EXPECT_EQ(s.count, 1000U);
  EXPECT_EQ(s.median, 500);  // nearest rank ceil(0.5 * 1000)
  EXPECT_EQ(s.tail, 990);    // rank 990: exactly ten samples beyond
  EXPECT_EQ(s.tail_pct, 99);
  EXPECT_FALSE(s.tail_fallback);
  EXPECT_FALSE(s.tail_is_max);
  EXPECT_EQ(s.describe(99), "n=1000 p99");
}

TEST(Percentile, FallsBackToHighestRankWithTenBeyond) {
  // p99 of 500 has 5 beyond: report rank 490 (p98) instead, visibly.
  const Summary s = summarize(one_to(500), 99);
  EXPECT_TRUE(s.tail_fallback);
  EXPECT_FALSE(s.tail_is_max);
  EXPECT_EQ(s.tail, 490);
  EXPECT_DOUBLE_EQ(s.tail_pct, 98);
  EXPECT_EQ(s.describe(99), "n=500 p98 (fallback from p99)");

  const Summary c = summarize(one_to(36), 90);  // a typical cold-request count
  EXPECT_EQ(c.tail, 26);
  EXPECT_NEAR(c.tail_pct, 72.22, 0.01);
  EXPECT_EQ(c.describe(90), "n=36 p72.22 (fallback from p90)");
}

TEST(Percentile, FallsBackToMaxWhenNoTailRankSitsAboveTheMedian) {
  const Summary s = summarize({3, 1, 2}, 90);
  EXPECT_EQ(s.median, 2);
  EXPECT_EQ(s.tail, 3);
  EXPECT_TRUE(s.tail_is_max);
  EXPECT_EQ(s.describe(90), "n=3 max (fallback from p90)");
  // 20 samples: rank 10 would be the median itself, so still the max.
  EXPECT_TRUE(summarize(one_to(20), 90).tail_is_max);
  EXPECT_FALSE(summarize(one_to(22), 90).tail_is_max);
}

TEST(Percentile, EmptyAndInfiniteSamples) {
  EXPECT_EQ(summarize({}, 99).count, 0U);
  // A refused request counts as missing any latency limit: infinite. With
  // 2% of 1020 requests refused, the p99 is infinite; the median is not.
  std::vector<double> v = one_to(1000);
  v.insert(v.end(), 20, std::numeric_limits<double>::infinity());
  const Summary s = summarize(v, 99);
  EXPECT_FALSE(s.tail_fallback);
  EXPECT_TRUE(std::isinf(s.tail));
  EXPECT_EQ(s.median, 510);
}

TEST(Spans, SelfTimeIsDurationMinusChildCoverage) {
  // root [0,100]: children [10,30] and [20,50] overlap (union 10..50 = 40),
  // and [90,120] sticks out past the root (counts 90..100 = 10).
  // grandchild [12,18] belongs to the first child.
  const std::vector<Span> spans = {
      {1, 0, 7, "root", 0, 100},   {2, 1, 7, "a", 10, 30}, {3, 1, 7, "b", 20, 50},
      {4, 1, 7, "c", 90, 120},     {5, 2, 7, "a.x", 12, 18},
  };
  const std::vector<double> self = self_times_us(spans);
  EXPECT_DOUBLE_EQ(self[0], 50);  // 100 - 40 - 10
  EXPECT_DOUBLE_EQ(self[1], 14);  // 20 - 6
  EXPECT_DOUBLE_EQ(self[2], 30);
  EXPECT_DOUBLE_EQ(self[3], 30);
  EXPECT_DOUBLE_EQ(self[4], 6);
}

TEST(Spans, ReplayedChildrenLeaveTheResidualAsRootSelfTime) {
  Tracer t;
  const std::uint64_t root = t.record("api.client.run", 42, 0, 1000, 1500);  // 500 us round trip
  t.record_replayed(root, {{"api.spec.parse", 20}, {"api.session.run.warm", 130}, {"api.result.render", 50}});
  const std::vector<Span> spans = t.spans();
  ASSERT_EQ(spans.size(), 4U);
  for (const Span& s : spans) EXPECT_EQ(s.request, 42U);  // one request id
  EXPECT_EQ(spans[1].parent, root);
  EXPECT_DOUBLE_EQ(spans[1].start_us, 1000);  // laid back to back from the start
  EXPECT_DOUBLE_EQ(spans[3].end_us, 1200);
  const std::vector<double> self = self_times_us(spans);
  EXPECT_DOUBLE_EQ(self[0], 300);  // the residual: 500 - (20 + 130 + 50)
  // Attribution is complete: residual plus children equals the round trip.
  EXPECT_DOUBLE_EQ(self[0] + self[1] + self[2] + self[3], spans[0].duration_us());
}

TEST(Spans, ReplayLongerThanTheRequestClipsTheResidualAtZero) {
  Tracer t;
  const std::uint64_t root = t.record("api.client.run", 1, 0, 0, 100);
  t.record_replayed(root, {{"api.session.run.cold", 150}});
  EXPECT_DOUBLE_EQ(self_times_us(t.spans())[0], 0);
}

TEST(ErrorRate, RefusedRetriedAndWrongCountAsFailed) {
  ErrorTally e;
  for (int i = 0; i < 6; ++i) e.add(OpResult::kOk);
  e.add(OpResult::kRetried);     // answered after a refused attempt
  e.add(OpResult::kRetriedOut);  // every attempt refused
  e.add(OpResult::kFailed);
  e.add(OpResult::kWrong);
  EXPECT_EQ(e.attempted, 10U);
  EXPECT_EQ(e.failures(), 4U);
  EXPECT_DOUBLE_EQ(e.rate(), 0.4);

  e.demote_ok_to_wrong();  // a later byte check failed one answered request
  EXPECT_EQ(e.attempted, 10U);
  EXPECT_EQ(e.ok, 5U);
  EXPECT_DOUBLE_EQ(e.rate(), 0.5);
  EXPECT_DOUBLE_EQ(ErrorTally{}.rate(), 0);
}

TEST(HitRatio, BaseIsEveryLookupIncludingSimulatedAndCoalesced) {
  pp::core::ProfileStore::Stats d;
  d.simulated = 2;
  d.memory_hits = 5;
  d.disk_hits = 1;
  d.ro_hits = 1;
  d.coalesced = 1;
  d.persist_errors = 7;  // not a lookup
  EXPECT_DOUBLE_EQ(hit_ratio(d), 8.0 / 10.0);
  EXPECT_DOUBLE_EQ(hit_ratio(pp::core::ProfileStore::Stats{}), 0);
}

TEST(StoreLine, SimulatedCountIsParsed) {
  EXPECT_EQ(simulated_in_store_line("simulated=0 memory_hits=3 disk_hits=0"), 0);
  EXPECT_EQ(simulated_in_store_line("profile store: simulated=12 memory_hits=3"), 12);
  EXPECT_EQ(simulated_in_store_line("memory_hits=3"), -1);
}

TEST(LoadGen, RequestsAreTimedFromTheirDueTime) {
  // One sender, 200 rps, every request takes 20 ms: the generator falls
  // behind, and latency (from due) grows while the round trip stays flat.
  const RungResult r = run_rung(200, 10, 1, [](int) -> SendFn {
    return [](std::size_t) { std::this_thread::sleep_for(std::chrono::milliseconds(20)); };
  });
  ASSERT_EQ(r.timing.size(), 10U);
  EXPECT_GE(r.timing[9].latency_ms(), r.timing[9].rtt_ms() + 100);  // ~135 ms late
  EXPECT_GE(r.timing[9].late_ms(), 100);
  EXPECT_GE(r.backlog_max, 5U);
  EXPECT_GE(r.backlog_end, 4U);
  for (const Timing& t : r.timing) EXPECT_GE(t.start_s, t.due_s);
}

TEST(LoadGen, KeepsUpWhenRequestsAreFast) {
  std::atomic<int> sent{0};
  const RungResult r = run_rung(500, 50, 4, [&](int) -> SendFn {
    return [&](std::size_t) { sent.fetch_add(1); };
  });
  EXPECT_EQ(sent.load(), 50);
  EXPECT_LE(r.backlog_end, 4U);
  EXPECT_NEAR(r.timing[49].due_s, 49.0 / 500, 1e-12);
}

TEST(Workloads, SeedsReorderButKeepTheMix) {
  // Cold slots: a pair per block of 2 * kColdEvery (1 in kColdEvery), every
  // cold spec distinct, the five flow types equally often.
  std::set<std::string> cold;
  std::map<std::string, int> types;
  for (std::size_t i = 0; i < 50 * 2 * kColdEvery; ++i) {
    if (!is_cold_slot(i)) continue;
    const std::string spec = cold_request(9, i).spec;
    cold.insert(spec);
    ++types[spec.substr(spec.find("\"type\""))];
  }
  EXPECT_EQ(cold.size(), 100U);
  EXPECT_EQ(types.size(), 5U);
  for (const auto& [t, n] : types) EXPECT_EQ(n, 20) << t;
  // The warm sequence covers the catalog once per cycle in any seed.
  const std::vector<std::size_t> seq = warm_sequence(3, 16, 8);
  EXPECT_EQ(std::set<std::size_t>(seq.begin(), seq.begin() + 8).size(), 8U);
  // The sweep batch is the same set of specs in a seeded order.
  std::vector<std::string> a = sweep_batch(1);
  std::vector<std::string> b = sweep_batch(2);
  EXPECT_EQ(a.size(), 17U);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace perfbench
