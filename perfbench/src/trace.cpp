#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "api/json.hpp"

namespace perfbench {

std::vector<double> self_times_us(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index.emplace(spans[i].id, i);
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    const auto it = index.find(s.parent);
    if (s.parent != 0 && it != index.end()) {
      children[it->second].emplace_back(s.start_us, s.end_us);
    }
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start_us;
    const double hi = spans[i].end_us;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0;
    double reach = lo;  // end of the union covered so far
    for (const auto& [a, b] : kids) {
      const double from = std::max(a, reach);
      const double to = std::min(b, hi);
      if (to > from) covered += to - from;
      reach = std::max(reach, std::min(b, hi));
    }
    self[i] = std::max(0.0, (hi - lo) - covered);
  }
  return self;
}

Tracer::Tracer() : epoch_(Clock::now()) {}

double Tracer::to_us(Clock::time_point t) const {
  return std::chrono::duration<double, std::micro>(t - epoch_).count();
}

std::uint64_t Tracer::record(std::string name, std::uint64_t request, std::uint64_t parent,
                             double start_us, double end_us) {
  const Clock::time_point t0 = Clock::now();
  std::lock_guard<std::mutex> lk(mu_);
  const std::uint64_t id = spans_.size() + 1;
  spans_.push_back(Span{id, parent, request, std::move(name), start_us, end_us});
  busy_us_ += to_us(Clock::now()) - to_us(t0);
  return id;
}

void Tracer::record_replayed(std::uint64_t parent,
                             const std::vector<std::pair<std::string, double>>& durations_us) {
  const Clock::time_point t0 = Clock::now();
  std::lock_guard<std::mutex> lk(mu_);
  if (parent == 0 || parent > spans_.size()) return;
  const Span root = spans_[parent - 1];
  double at = root.start_us;
  for (const auto& [name, us] : durations_us) {
    const std::uint64_t id = spans_.size() + 1;
    spans_.push_back(Span{id, parent, root.request, name, at, at + us});
    at += us;
  }
  busy_us_ += to_us(Clock::now()) - to_us(t0);
}

double Tracer::busy_us() const {
  std::lock_guard<std::mutex> lk(mu_);
  return busy_us_;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_;
}

bool Tracer::write_json(const std::string& path) const {
  const std::vector<Span> all = spans();
  const std::vector<double> self = self_times_us(all);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"spans\": [\n", f);
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(f,
                 "  {\"id\": %llu, \"parent\": %llu, \"request\": %llu, \"name\": %s, "
                 "\"start_us\": %.3f, \"end_us\": %.3f, \"self_us\": %.3f}%s\n",
                 static_cast<unsigned long long>(s.id), static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), pp::api::json_quote(s.name).c_str(),
                 s.start_us, s.end_us, self[i], i + 1 < all.size() ? "," : "");
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
