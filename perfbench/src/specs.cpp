#include "specs.hpp"

#include <algorithm>
#include <numeric>

#include "base/hash.hpp"
#include "base/rng.hpp"
#include "base/strings.hpp"

namespace perfbench {

namespace {

constexpr const char* kTypes[] = {"IP", "MON", "FW", "RE", "VPN"};
constexpr const char* kModes[] = {"cache-only", "memctrl-only", "both"};

void shuffle(std::vector<std::size_t>& v, pp::Pcg32& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.bounded(static_cast<std::uint32_t>(i))]);
  }
}

}  // namespace

std::vector<Request> serve_catalog() {
  std::vector<Request> c;
  for (const char* t : kTypes) {
    c.push_back({pp::strformat(R"({"version":1,"kind":"solo","name":"solo-%s","flows":[{"type":"%s"}]})",
                               t, t),
                 "text"});
  }
  c.push_back({R"({"version":1,"kind":"corun","name":"corun-ip-mon","flows":[{"type":"IP"},{"type":"MON"}]})",
               "csv"});
  c.push_back({R"({"version":1,"kind":"predict","name":"predict-ip-mon","fidelity":"streamed","flows":[{"type":"IP"},{"type":"MON"}]})",
               "json"});
  c.push_back({R"({"version":1,"kind":"corun","name":"corun-ip-mon-streamed","fidelity":"streamed","flows":[{"type":"IP"},{"type":"MON"}]})",
               "json"});
  return c;
}

std::vector<std::size_t> warm_sequence(std::uint64_t seed, std::size_t n,
                                       std::size_t catalog_size) {
  pp::Pcg32 rng(pp::mix64(seed ^ 0x77a7ULL));
  std::vector<std::size_t> cycle(catalog_size);
  std::iota(cycle.begin(), cycle.end(), std::size_t{0});
  std::vector<std::size_t> out;
  out.reserve(n);
  while (out.size() < n) {
    shuffle(cycle, rng);
    for (const std::size_t c : cycle) {
      if (out.size() == n) break;
      out.push_back(c);
    }
  }
  return out;
}

Request cold_request(std::uint64_t seed, std::size_t i) {
  // 2^24 slots per seed keeps every salt distinct within a run and below
  // 2^53, where JSON numbers stay exact.
  const std::uint64_t salt = ((pp::mix64(seed) & 0x1fffffULL) << 24U) + i + 1;
  const std::size_t nth_cold = 2 * (i / (2 * kColdEvery)) + i % 2;
  const char* type = kTypes[(nth_cold + pp::mix64(seed)) % 5];
  return {pp::strformat(R"({"version":1,"kind":"solo","name":"cold","seed":%llu,"flows":[{"type":"%s"}]})",
                        static_cast<unsigned long long>(salt), type),
          "text"};
}

std::vector<std::string> sweep_batch(std::uint64_t seed) {
  std::vector<std::string> specs;
  for (const char* m : kModes) {
    for (const char* t : kTypes) {
      specs.push_back(pp::strformat(
          R"({"version":1,"kind":"sweep","name":"sweep-%s-%s","fidelity":"streamed","mode":"%s","flows":[{"type":"%s"}]})",
          t, m, m, t));
    }
  }
  const std::string mix =
      R"([{"type":"IP"},{"type":"MON"},{"type":"FW"},{"type":"RE"},{"type":"VPN"}])";
  specs.push_back(R"({"version":1,"kind":"predict","name":"predict-mix5","fidelity":"streamed","flows":)" +
                  mix + "}");
  specs.push_back(R"({"version":1,"kind":"corun","name":"corun-mix5","fidelity":"streamed","flows":)" +
                  mix + "}");
  std::vector<std::size_t> order(specs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  pp::Pcg32 rng(pp::mix64(seed ^ 0x5e3eULL));
  shuffle(order, rng);
  std::vector<std::string> out;
  out.reserve(specs.size());
  for (const std::size_t o : order) out.push_back(specs[o]);
  return out;
}

PredictPair find_predict_pair(const std::vector<std::string>& batch) {
  PredictPair p;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (batch[i].find("\"predict-mix5\"") != std::string::npos) p.predict = i;
    if (batch[i].find("\"corun-mix5\"") != std::string::npos) p.corun = i;
  }
  return p;
}

std::vector<std::size_t> sample_indices(std::uint64_t seed, std::size_t n, std::size_t k) {
  std::vector<std::size_t> all(n);
  std::iota(all.begin(), all.end(), std::size_t{0});
  if (k < n) {
    pp::Pcg32 rng(pp::mix64(seed ^ 0x5a3b1eULL));
    shuffle(all, rng);
    all.resize(k);
  }
  std::sort(all.begin(), all.end());
  return all;
}

}  // namespace perfbench
