// Workload inputs, generated from the workload seed. The program under test
// only ever sees the spec JSON these functions produce.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One servable request: a spec and the result format asked for.
struct Request {
  std::string spec;
  std::string format;  // text | csv | json
};

/// The serve workloads' catalog: a solo spec per realistic flow type, and
/// the corun and predict of one two-flow mix (exact fidelity unless the
/// spec says streamed). The composition is fixed; seeds only reorder it, so
/// every seed exercises the same mix of costs.
[[nodiscard]] std::vector<Request> serve_catalog();

/// Catalog indices of the predict and corun of the same mix (served as JSON
/// so the prediction error can be read from the bytes).
inline constexpr std::size_t kCatalogPredict = 6;
inline constexpr std::size_t kCatalogCorun = 7;

/// `n` catalog indices: every catalog entry once per cycle, each cycle in a
/// seeded order.
[[nodiscard]] std::vector<std::size_t> warm_sequence(std::uint64_t seed, std::size_t n,
                                                     std::size_t catalog_size);

/// serve_mixed's cold share: 1 request in kColdEvery. Cold requests come in
/// pairs — the first two slots of every block of 2 * kColdEvery — so each
/// pair takes both admission slots at once and the warm requests arriving
/// behind it wait in the gate on every cycle, not only when arrivals happen
/// to collide.
inline constexpr std::size_t kColdEvery = 8;
[[nodiscard]] constexpr bool is_cold_slot(std::size_t i) { return i % (2 * kColdEvery) < 2; }

/// A never-seen exact-fidelity solo spec for serve_mixed slot `i`. The spec
/// `seed` (a keyed field) carries a per-slot salt, so each one lowers to a
/// scenario no other request shares; the flow type rotates over the five
/// realistic types from a seeded start, so every seed sees the same mix.
[[nodiscard]] Request cold_request(std::uint64_t seed, std::size_t i);

/// The sweep_streamed batch: a SYN sweep per realistic type in each of the
/// three contention modes, plus a predict and a corun of the five-flow mix,
/// all streamed. Names and contents are seed-independent (the result digest
/// must repeat across runs); the seed permutes the batch order.
[[nodiscard]] std::vector<std::string> sweep_batch(std::uint64_t seed);

/// Positions of the predict and corun in sweep_batch(seed).
struct PredictPair {
  std::size_t predict = 0;
  std::size_t corun = 0;
};
[[nodiscard]] PredictPair find_predict_pair(const std::vector<std::string>& batch);

/// Seeded sample of `k` distinct indices below `n` (all of them if k >= n),
/// ascending.
[[nodiscard]] std::vector<std::size_t> sample_indices(std::uint64_t seed, std::size_t n,
                                                      std::size_t k);

}  // namespace perfbench
