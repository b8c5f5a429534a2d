/**
 * @file
 * Deterministic pseudo-random number generation for the Twig simulator.
 *
 * Every stochastic component in the repository draws from a seeded Rng so
 * that experiments are reproducible bit-for-bit. The generator is
 * xoshiro256** seeded through splitmix64, which is fast, has a 256-bit
 * state, and passes BigCrush.
 */

#ifndef TWIG_COMMON_RNG_HH
#define TWIG_COMMON_RNG_HH

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace twig::common {

/** splitmix64 step; used to expand a single 64-bit seed into a full state. */
inline std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/**
 * Deterministic derived seed: a splitmix64 mix of the base seed and an
 * index (sweep configuration, fleet node, subsystem). Depends on
 * nothing else — in particular not on which worker thread picks the
 * run up, or in what order.
 */
inline std::uint64_t
sweepSeed(std::uint64_t baseSeed, std::size_t index)
{
    // Two splitmix64 rounds over a combination of base seed and index.
    // splitmix64 is a bijective mixer, so distinct (base, index) pairs
    // cannot collide for a fixed base, and consecutive indices land far
    // apart in xoshiro's seed space.
    std::uint64_t s = baseSeed ^ (0x9e3779b97f4a7c15ULL *
                                  (static_cast<std::uint64_t>(index) + 1));
    splitmix64(s);
    return splitmix64(s);
}

/**
 * xoshiro256** pseudo-random generator with convenience distributions.
 *
 * Satisfies the UniformRandomBitGenerator concept so it can also be used
 * with <random> distributions, although the built-in helpers below are
 * preferred for portability of generated streams across standard-library
 * implementations.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Construct from a 64-bit seed (expanded via splitmix64). */
    explicit Rng(std::uint64_t seed = 0x5eedULL) { reseed(seed); }

    /** Reset the generator state from a 64-bit seed. */
    void
    reseed(std::uint64_t seed)
    {
        std::uint64_t sm = seed;
        for (auto &word : state_)
            word = splitmix64(sm);
    }

    static constexpr result_type min() { return 0; }
    static constexpr result_type
    max()
    {
        return std::numeric_limits<std::uint64_t>::max();
    }

    /** Next raw 64-bit output. */
    std::uint64_t
    operator()()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(operator()() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return lo + (hi - lo) * uniform();
    }

    /** Uniform integer in [0, n); n must be > 0. */
    std::uint64_t
    uniformInt(std::uint64_t n)
    {
        // Lemire's multiply-shift rejection method (unbiased).
        std::uint64_t x = operator()();
        __uint128_t m = static_cast<__uint128_t>(x) * n;
        std::uint64_t l = static_cast<std::uint64_t>(m);
        if (l < n) {
            std::uint64_t t = (0 - n) % n;
            while (l < t) {
                x = operator()();
                m = static_cast<__uint128_t>(x) * n;
                l = static_cast<std::uint64_t>(m);
            }
        }
        return static_cast<std::uint64_t>(m >> 64);
    }

    /** Uniform integer in the closed range [lo, hi]. */
    std::int64_t
    uniformInt(std::int64_t lo, std::int64_t hi)
    {
        return lo + static_cast<std::int64_t>(
            uniformInt(static_cast<std::uint64_t>(hi - lo + 1)));
    }

    /** Standard normal via Box-Muller (cached second value). */
    double
    normal()
    {
        if (hasCached_) {
            hasCached_ = false;
            return cached_;
        }
        double u1 = uniform();
        double u2 = uniform();
        while (u1 <= 0.0)
            u1 = uniform();
        const double r = std::sqrt(-2.0 * std::log(u1));
        const double theta = 2.0 * M_PI * u2;
        cached_ = r * std::sin(theta);
        hasCached_ = true;
        return r * std::cos(theta);
    }

    /** Normal with mean/stddev. */
    double
    normal(double mean, double stddev)
    {
        return mean + stddev * normal();
    }

    /**
     * Log-normal such that the *mean* of the distribution equals @p mean.
     *
     * @param mean   desired arithmetic mean of the samples
     * @param cv     coefficient of variation (stddev / mean) of the samples
     */
    double
    lognormalMean(double mean, double cv)
    {
        const double sigma2 = std::log(1.0 + cv * cv);
        const double mu = std::log(mean) - 0.5 * sigma2;
        return std::exp(normal(mu, std::sqrt(sigma2)));
    }

    /**
     * Fill @p out with @p n log-normal draws, bit-identical to n
     * lognormalMean(mean, cv) calls with sigma = sqrt(log(1 + cv^2))
     * and mu = log(mean) - sigma^2 / 2 hoisted out — including the
     * Box-Muller cached second value at entry and exit, so the
     * generator ends in exactly the state n sequential calls leave it
     * in. Batching lets the independent sqrt/log/sincos/exp chains of
     * consecutive pairs overlap instead of serializing behind each
     * returned value.
     */
    void
    lognormalBatch(double mu, double sigma, double *out, std::size_t n)
    {
        std::size_t i = 0;
        if (i < n && hasCached_) {
            hasCached_ = false;
            out[i++] = std::exp(mu + sigma * cached_);
        }
        for (; i + 2 <= n; i += 2) {
            double u1 = uniform();
            const double u2 = uniform();
            while (u1 <= 0.0)
                u1 = uniform();
            const double r = std::sqrt(-2.0 * std::log(u1));
            const double theta = 2.0 * M_PI * u2;
            out[i] = std::exp(mu + sigma * (r * std::cos(theta)));
            out[i + 1] = std::exp(mu + sigma * (r * std::sin(theta)));
        }
        if (i < n) {
            double u1 = uniform();
            const double u2 = uniform();
            while (u1 <= 0.0)
                u1 = uniform();
            const double r = std::sqrt(-2.0 * std::log(u1));
            const double theta = 2.0 * M_PI * u2;
            out[i] = std::exp(mu + sigma * (r * std::cos(theta)));
            cached_ = r * std::sin(theta);
            hasCached_ = true;
        }
    }

    /** Bernoulli trial with probability p of returning true. */
    bool
    bernoulli(double p)
    {
        return uniform() < p;
    }

    /** Fork a statistically independent child generator. */
    Rng
    fork()
    {
        return Rng(operator()());
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state_[4] = {};
    double cached_ = 0.0;
    bool hasCached_ = false;
};

} // namespace twig::common

#endif // TWIG_COMMON_RNG_HH
