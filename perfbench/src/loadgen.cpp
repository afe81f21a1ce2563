#include "loadgen.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <mutex>
#include <thread>

namespace perfbench {

RungResult run_rung(double rate_rps, std::size_t count, int senders,
                    const SenderFactory& make_sender) {
  using Clock = std::chrono::steady_clock;
  RungResult out;
  out.rate_rps = rate_rps;
  out.timing.resize(count);
  if (count == 0 || rate_rps <= 0) return out;

  std::atomic<std::size_t> next{0};
  std::mutex mu;
  std::size_t started = 0;  // guarded by mu
  std::size_t backlog_max = 0;
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
  out.t0 = t0;
  const auto since_t0 = [&](Clock::time_point t) {
    return std::chrono::duration<double>(t - t0).count();
  };
  const double last_due = static_cast<double>(count - 1) / rate_rps;
  std::size_t backlog_end = 0;
  bool backlog_end_seen = false;

  const auto sender_loop = [&](int id) {
    const SendFn send = make_sender(id);
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= count) return;
      Timing& t = out.timing[i];
      t.due_s = static_cast<double>(i) / rate_rps;
      std::this_thread::sleep_until(
          t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(t.due_s)));
      t.start_s = since_t0(Clock::now());
      {
        std::lock_guard<std::mutex> lk(mu);
        ++started;
        const double due_now = std::floor(t.start_s * rate_rps) + 1;
        const auto due = static_cast<std::size_t>(
            std::min(static_cast<double>(count), std::max(0.0, due_now)));
        const std::size_t backlog = due > started ? due - started : 0;
        backlog_max = std::max(backlog_max, backlog);
        if (!backlog_end_seen && t.start_s >= last_due) {
          backlog_end_seen = true;
          backlog_end = count - started;
        }
      }
      send(i);
      t.end_s = since_t0(Clock::now());
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(senders));
  for (int s = 0; s < senders; ++s) threads.emplace_back(sender_loop, s);
  for (std::thread& th : threads) th.join();
  out.backlog_max = backlog_max;
  out.backlog_end = backlog_end;
  return out;
}

}  // namespace perfbench
