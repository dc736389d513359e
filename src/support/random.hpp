/**
 * @file
 * The repository's one pseudo-random source: xoshiro256** (Blackman and
 * Vigna), seeded through splitmix64, with every draw mapped from raw
 * 64-bit words by hand.
 *
 * The standard library's distributions are implementation-defined, so
 * one seed drew different streams under libstdc++ and libc++. The
 * engine and the mappings here are plain integer and IEEE double
 * arithmetic (exponentialDraw adds one log1p), so a seed gives the same
 * draws under every standard library. The serving simulator draws
 * through the free functions directly; Rng wraps them for synthetic
 * tensors, property tests and fuzzers. support_test pins golden words
 * and draws from an independent reimplementation.
 */

#ifndef CMSWITCH_SUPPORT_RANDOM_HPP
#define CMSWITCH_SUPPORT_RANDOM_HPP

#include <bit>
#include <cmath>

#include "support/common.hpp"

namespace cmswitch {

/** One splitmix64 step: advance @p state and return its next output. */
inline u64
splitmix64(u64 *state)
{
    u64 z = (*state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** xoshiro256**, its 256-bit state filled by four splitmix64 steps
 *  (never all zero, since splitmix64's output map is a bijection). */
class Xoshiro256StarStar
{
  public:
    explicit Xoshiro256StarStar(u64 seed)
    {
        for (u64 &word : s_)
            word = splitmix64(&seed);
    }

    u64
    next()
    {
        const u64 result = std::rotl(s_[1] * 5, 7) * 9;
        const u64 t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = std::rotl(s_[3], 45);
        return result;
    }

  private:
    u64 s_[4];
};

/** Uniform double in [0, 1): the top 53 bits of one word. */
inline double
uniformDouble(Xoshiro256StarStar &engine)
{
    return static_cast<double>(engine.next() >> 11) * 0x1.0p-53;
}

/** Exponential with @p rate events/second (rate > 0). */
inline double
exponentialDraw(Xoshiro256StarStar &engine, double rate)
{
    // -log(1 - U) via log1p: exact near U = 0, and U < 1 strictly so
    // the draw is always finite.
    return -std::log1p(-uniformDouble(engine)) / rate;
}

/**
 * Uniform integer in [lo, hi] inclusive, for any lo <= hi, from one
 * uniformDouble. A span wider than 2^53 is reached in steps of the
 * double's granularity.
 */
inline s64
uniformInt(Xoshiro256StarStar &engine, s64 lo, s64 hi)
{
    // In unsigned arithmetic hi - lo cannot overflow: it is at most
    // 2^64 - 1, for the full s64 range.
    const u64 maxOffset = static_cast<u64>(hi) - static_cast<u64>(lo);
    const double span = static_cast<double>(maxOffset) + 1.0;
    u64 offset = static_cast<u64>(uniformDouble(engine) * span);
    if (offset > maxOffset) // guard the U -> 1.0 rounding edge
        offset = maxOffset;
    return static_cast<s64>(static_cast<u64>(lo) + offset);
}

/** A reproducible pseudo-random source over one Xoshiro256StarStar. */
class Rng
{
  public:
    explicit Rng(u64 seed = 0x5eed'c1a5'5eed'c1a5ull) : engine_(seed) {}

    /** Uniform integer in [lo, hi] inclusive, for any lo <= hi. */
    s64 nextInt(s64 lo, s64 hi) { return uniformInt(engine_, lo, hi); }

    /** Uniform double in [lo, hi). */
    double
    nextDouble(double lo = 0.0, double hi = 1.0)
    {
        double value = lo + (hi - lo) * uniformDouble(engine_);
        // Rounding can land on hi itself; keep the interval half-open.
        return value < hi ? value : std::nextafter(hi, lo);
    }

    /** Uniform int8 value, full range. */
    s8 nextInt8() { return static_cast<s8>(nextInt(-128, 127)); }

  private:
    Xoshiro256StarStar engine_;
};

} // namespace cmswitch

#endif // CMSWITCH_SUPPORT_RANDOM_HPP
