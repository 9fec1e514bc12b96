/**
 * @file
 * Deterministic pseudo-random number generation for the simulator.
 *
 * All randomness in the simulation flows through Rng instances seeded
 * explicitly, so every experiment is bit-for-bit reproducible. The
 * generator is xoshiro256**, which is fast and has no observable bias
 * for our use (workload key/offset selection, Zipfian sampling).
 */

#ifndef KLOC_BASE_RNG_HH
#define KLOC_BASE_RNG_HH

#include <cstdint>

namespace kloc {

/** xoshiro256** deterministic PRNG. */
class Rng
{
  public:
    /** Seed via splitmix64 expansion of @p seed. */
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit value. */
    uint64_t next();

    /** Uniform integer in [0, bound). @p bound must be nonzero. */
    uint64_t nextBounded(uint64_t bound);

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Bernoulli trial with probability @p p of returning true. */
    bool nextBool(double p);

  private:
    uint64_t _state[4];
};

/**
 * Zipfian distribution sampler over [0, n) with skew theta,
 * using the Gray/YCSB rejection-free method. Hot items are the
 * low indices. Used by key-value workload drivers.
 */
class ZipfianGenerator
{
  public:
    /**
     * @param n     Number of items.
     * @param theta Skew in (0, 1); YCSB default is 0.99.
     * @param seed  Seed for the internal Rng.
     */
    ZipfianGenerator(uint64_t n, double theta, uint64_t seed);

    /** Sample one item index in [0, n). */
    uint64_t next();

  private:
    double zeta(uint64_t n) const;

    Rng _rng;
    uint64_t _items;
    double _theta;
    double _zetaN;
    double _alpha;
    double _eta;
};

} // namespace kloc

#endif // KLOC_BASE_RNG_HH
