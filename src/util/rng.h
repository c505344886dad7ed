// Deterministic random-number façade.
//
// Every stochastic component in the library (trace generators, failure
// injection, probabilistic violation inference) draws through this class so
// that an experiment is fully reproducible from a single seed.  The engine is
// std::mt19937_64; distribution objects are constructed per call, which keeps
// the interface stateless beyond the engine itself (mt19937_64 dominates the
// cost anyway, and trace generation is far from any hot path).
#pragma once

#include <cstdint>
#include <vector>

#include "util/check.h"

namespace broadway {

/// Seeded pseudo-random source.  Copyable; copies evolve independently.
class Rng {
 public:
  /// Construct from an explicit seed.  The same seed always yields the same
  /// stream of values on every platform we target.
  explicit Rng(std::uint64_t seed);

  /// Uniform double in [lo, hi).  Requires lo < hi.
  double uniform(double lo, double hi);

  /// Uniform double in [0, 1).
  double uniform01();

  /// Uniform integer in [lo, hi] inclusive.  Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Exponentially distributed value with the given rate (events per unit
  /// time).  Requires rate > 0.
  double exponential(double rate);

  /// Normally distributed value.
  double normal(double mean, double stddev);

  /// Bernoulli trial with probability p of returning true, p in [0, 1].
  bool bernoulli(double p);

  /// Derive a child RNG whose stream is independent of (and deterministic
  /// given) this one.  Used to give each generated trace its own stream so
  /// that adding a trace to an experiment never perturbs the others.
  Rng fork();

 private:
  // A small explicit xorshift-style engine: the C++ standard specifies
  // mt19937_64's sequence exactly, but the *distributions* are not fixed
  // across standard-library implementations.  To make traces byte-identical
  // everywhere we implement the distribution transforms ourselves on top of
  // a fixed-sequence engine.
  std::uint64_t state_;

  std::uint64_t next_u64();
};

/// Stateless Bernoulli trial: a pure function of (seed, stream, counter).
///
/// Unlike Rng::bernoulli, the outcome does not depend on how many draws
/// happened before it — only on the three keys.  Components whose draws
/// must stay reproducible when execution is re-ordered or re-partitioned
/// (e.g. per-object loss decisions in a polling engine whose objects may
/// be split across shard slices) key each draw by an entity id (`stream`)
/// and a per-entity attempt counter instead of consuming a shared
/// sequential stream.
bool hash_bernoulli(std::uint64_t seed, std::uint64_t stream,
                    std::uint64_t counter, double p);

/// Stateless uniform draw in [0, 1): a pure function of (seed, stream,
/// counter) — the uniform underlying hash_bernoulli, exposed directly.
/// Used where a component needs a reproducible *value* (not just a coin
/// flip) that survives re-ordering and re-partitioning, e.g. the
/// per-client session working sets of the client-traffic layer.
double hash_u01(std::uint64_t seed, std::uint64_t stream,
                std::uint64_t counter);

}  // namespace broadway
