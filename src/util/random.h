/**
 * @file
 * Small deterministic PRNG (xoshiro256**) used throughout the simulator.
 *
 * We avoid std::mt19937 in hot simulation paths and, more importantly,
 * want identical sequences across platforms so benchmark tables are
 * reproducible bit-for-bit.
 */
#ifndef ISRF_UTIL_RANDOM_H
#define ISRF_UTIL_RANDOM_H

#include <cstdint>

#include "util/snapshot.h"

namespace isrf {

/** Deterministic xoshiro256** PRNG with convenience helpers. */
class Rng
{
  public:
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull) { reseed(seed); }

    /** Re-initialize state from a 64-bit seed via splitmix64. */
    void
    reseed(uint64_t seed)
    {
        for (auto &word : state_)
            word = splitmix64(seed);
    }

    /** Next raw 64-bit value. */
    uint64_t
    next()
    {
        const uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound). bound must be > 0. */
    uint64_t
    below(uint64_t bound)
    {
        // Simple modulo; bias is irrelevant at simulation scales.
        return next() % bound;
    }

    /** Uniform integer in [lo, hi] inclusive. */
    int64_t
    range(int64_t lo, int64_t hi)
    {
        return lo + static_cast<int64_t>(below(
            static_cast<uint64_t>(hi - lo + 1)));
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli trial with probability p. */
    bool chance(double p) { return uniform() < p; }

    /** Uniform float in [lo, hi). */
    float
    uniformf(float lo, float hi)
    {
        return lo + static_cast<float>(uniform()) * (hi - lo);
    }

    /** Serialize the full generator state (util/snapshot.h). */
    void snapshot(SnapshotIo &io) { io.each(state_); }

  private:
    static uint64_t
    rotl(uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    static uint64_t
    splitmix64(uint64_t &x)
    {
        uint64_t z = (x += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    uint64_t state_[4];
};

} // namespace isrf

#endif // ISRF_UTIL_RANDOM_H
