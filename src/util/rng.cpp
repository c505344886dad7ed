#include "util/rng.h"

#include <cmath>

namespace broadway {

namespace {
// splitmix64: used to scramble seeds and to fork child streams.
std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}
}  // namespace

Rng::Rng(std::uint64_t seed) : state_(seed) {
  // Scramble so that small consecutive seeds give unrelated streams.
  std::uint64_t s = seed;
  state_ = splitmix64(s) | 1ULL;  // xorshift state must be nonzero
}

std::uint64_t Rng::next_u64() {
  // xorshift64* — fixed sequence, adequate statistical quality for
  // simulation workloads, and fully portable.
  std::uint64_t x = state_;
  x ^= x >> 12;
  x ^= x << 25;
  x ^= x >> 27;
  state_ = x;
  return x * 0x2545F4914F6CDD1DULL;
}

double Rng::uniform01() {
  // 53 random bits -> double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  BROADWAY_CHECK_MSG(lo < hi, "uniform(" << lo << ", " << hi << ")");
  return lo + (hi - lo) * uniform01();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  BROADWAY_CHECK_MSG(lo <= hi, "uniform_int(" << lo << ", " << hi << ")");
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) {  // full 64-bit range
    return static_cast<std::int64_t>(next_u64());
  }
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = UINT64_MAX - UINT64_MAX % span;
  std::uint64_t v;
  do {
    v = next_u64();
  } while (v >= limit);
  return lo + static_cast<std::int64_t>(v % span);
}

double Rng::exponential(double rate) {
  BROADWAY_CHECK_MSG(rate > 0, "exponential(rate=" << rate << ")");
  // Inverse CDF; 1 - uniform01() is in (0, 1] so log() is finite.
  return -std::log(1.0 - uniform01()) / rate;
}

double Rng::normal(double mean, double stddev) {
  // Box–Muller (basic form).  One value per call keeps the stream position
  // independent of call parity, which simplifies reasoning about replays.
  const double u1 = 1.0 - uniform01();  // (0, 1]
  const double u2 = uniform01();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * mag * std::cos(2.0 * M_PI * u2);
}

bool Rng::bernoulli(double p) {
  BROADWAY_CHECK_MSG(p >= 0.0 && p <= 1.0, "bernoulli(p=" << p << ")");
  return uniform01() < p;
}

Rng Rng::fork() {
  std::uint64_t s = next_u64();
  return Rng(splitmix64(s));
}

bool hash_bernoulli(std::uint64_t seed, std::uint64_t stream,
                    std::uint64_t counter, double p) {
  BROADWAY_CHECK_MSG(p >= 0.0 && p <= 1.0, "hash_bernoulli(p=" << p << ")");
  return hash_u01(seed, stream, counter) < p;
}

double hash_u01(std::uint64_t seed, std::uint64_t stream,
                std::uint64_t counter) {
  // Three chained splitmix64 rounds, folding one key in per round.  Each
  // round is a full-avalanche permutation, so nearby (stream, counter)
  // pairs land on unrelated uniforms.
  std::uint64_t state = seed;
  state = splitmix64(state) ^ stream;
  state = splitmix64(state) ^ counter;
  const std::uint64_t h = splitmix64(state);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace broadway
