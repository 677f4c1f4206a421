#ifndef SKYPREF_UTIL_RANDOM_H_
#define SKYPREF_UTIL_RANDOM_H_

/// \file
/// Deterministic pseudo-random number generation.
///
/// All stochastic components of the library (workload generators, the
/// Monte-Carlo estimator, preference generators) draw from Xoshiro256++,
/// seeded through SplitMix64 so that a single 64-bit seed reproduces an
/// entire experiment. std::mt19937 is avoided on purpose: its stream is
/// not guaranteed identical across standard-library implementations for
/// the distribution adaptors, while this generator is fully specified
/// here.

#include <array>
#include <bit>
#include <cstdint>
#include <limits>

namespace skypref {

/// SplitMix64: used to expand one seed into generator state and to derive
/// independent child seeds for sub-streams.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Derives the seed of sub-stream \p stream of a family rooted at
/// \p seed: SplitMix64(seed ^ stream) advanced one step. Used by the
/// block-parallel samplers to give every fixed-index world block its own
/// statistically independent Rng, so the estimate depends on the block
/// INDEX and never on the executing thread. The extra SplitMix64 round
/// decorrelates the regular lattice seed^0, seed^1, seed^2, ... that
/// plain XOR seeding would feed into neighbouring generators.
inline std::uint64_t SplitSeed(std::uint64_t seed, std::uint64_t stream) {
  SplitMix64 mixer(seed ^ stream);
  return mixer.Next();
}

/// Xoshiro256++ by Blackman & Vigna: fast, 256-bit state, passes BigCrush.
class Rng {
 public:
  /// Seeds the full state from one 64-bit seed via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL);

  /// Next raw 64 random bits. Inline: the sampling kernels draw several
  /// words per mask in their innermost loop, and the call overhead of an
  /// out-of-line PRNG step is comparable to the step itself.
  std::uint64_t NextUint64() {
    const std::uint64_t result = Rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 bits of precision.
  double NextDouble();

  /// Uniform integer in [0, bound), bound > 0. Uses rejection sampling,
  /// so the result is exactly uniform.
  std::uint64_t NextBounded(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t NextInt(std::int64_t lo, std::int64_t hi);

  /// True with probability p (p <= 0 -> never, p >= 1 -> always).
  bool NextBernoulli(double p);

  /// Derives a statistically independent child seed; successive calls
  /// produce distinct sub-streams (used to give each experiment component
  /// its own generator).
  std::uint64_t Fork();

 private:
  static std::uint64_t Rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::array<std::uint64_t, 4> state_;
};

/// 64 iid Bernoulli bits in one word, at EXACT threshold precision.
///
/// \p threshold is the integer Bernoulli cut of sam_parallel.h
/// (`BernoulliThreshold(p)` = floor(p * 2^64), with UINT64_MAX the
/// exact "p >= 1" sentinel): bit w of the result is 1 with probability
/// threshold / 2^64, independently across bits, exactly matching the
/// distribution of `ThresholdHit(rng.NextUint64(), threshold)` without
/// spending one PRNG word per bit.
///
/// How: each lane conceptually compares a fresh uniform U_w against the
/// threshold, but the 64 bits of U_w are revealed most-significant
/// first, one PRNG word per revealed bit position SHARED across lanes.
/// A lane is decided the first time its U bit differs from the
/// threshold's bit at that position; once every lane is decided (or the
/// remaining threshold suffix is all zeros, which decides every
/// still-tied lane as "not below") the loop stops. Each round decides
/// each undecided lane with probability 1/2, so the expected PRNG cost
/// is min(#rounds until all 64 geometrics stop, significant bits of
/// threshold) — about 7.5 words for a full-precision threshold and as
/// little as 1 for dyadic probabilities like p = 1/2 (threshold 2^63),
/// versus 64 words for lane-at-a-time draws. Worst case: 64 - countr_zero
/// (<= 53 for any threshold rounded from a double p < 1).
inline std::uint64_t NextBernoulliWord(Rng& rng, std::uint64_t threshold) {
  if (threshold == 0) return 0;
  if (threshold == std::numeric_limits<std::uint64_t>::max()) return ~0ULL;
  std::uint64_t below = 0;       // lanes decided U < threshold
  std::uint64_t undecided = ~0ULL;  // lanes whose U prefix ties the cut
  const int lowest = std::countr_zero(threshold);
  for (int k = 63; k >= lowest; --k) {
    const std::uint64_t r = rng.NextUint64();
    // Branchless round: with cut bit 1, a 0 U-bit decides "below" and a
    // 1 keeps the tie; with cut bit 0, a 1 U-bit decides "above". The
    // cut bit is data-dependent and alternates, so a conditional here
    // would mispredict half the rounds of the hot sampling loop.
    const std::uint64_t bit = (threshold >> k) & 1ULL;
    below |= undecided & ~r & (0 - bit);
    undecided &= r ^ (bit - 1);
    if (undecided == 0) break;
  }
  // Lanes still tied ran past the lowest set bit: the remaining suffix
  // of the cut is zero, so U >= threshold there — not below.
  return below;
}

/// Eight independent Xoshiro256++ lanes stepped in lockstep.
///
/// State is kept in structure-of-arrays layout — word w of lane l lives
/// at s[w][l] — so that one AVX-512 instruction can advance all eight
/// lanes at once. Each lane is seeded exactly like a standalone Rng
/// from its own Rng::Fork() of \p parent, so the eight streams are the
/// statistically independent sub-streams the seeding discipline already
/// guarantees, and the lane sequences do not depend on how (or whether)
/// the stepping is vectorized.
struct OctoRng {
  static constexpr int kLanes = 8;

  explicit OctoRng(Rng& parent) {
    for (int lane = 0; lane < kLanes; ++lane) {
      SplitMix64 mixer(parent.Fork());
      for (int word = 0; word < 4; ++word) s[word][lane] = mixer.Next();
    }
  }

  alignas(64) std::uint64_t s[4][kLanes];
};

/// Eight iid Bernoulli mask words in one call — NextBernoulliWord's
/// wide sibling, used by the bit-sliced sampler to draw one pair's
/// masks for eight consecutive 64-world chunks at a time.
///
/// out[l] is distributed exactly like NextBernoulliWord(rng_l,
/// threshold) where rng_l is lane l of \p o: 512 iid Bernoulli bits per
/// call. The lanes run the shared-round reveal in LOCKSTEP — every
/// round advances all eight lanes by one word and the loop stops only
/// once every lane is fully decided — which costs a fraction more words
/// than eight independent calls (max of 8 geometric stopping times,
/// about 9.5 rounds instead of 7.5 for a full-precision threshold) but
/// lets the whole round run as a handful of 512-bit instructions. On
/// x86-64 with AVX-512F the dispatcher picks the vector kernel; the
/// portable scalar fallback produces bit-identical output (the lanes
/// ARE the semantics, the ISA is just speed), so results never depend
/// on the host CPU.
void NextBernoulliWords8(OctoRng& o, std::uint64_t threshold,
                         std::uint64_t* out);

namespace internal {
/// Portable reference implementation of NextBernoulliWords8; the
/// dispatch target equality test in random_test.cc holds the vector
/// kernels to this, word for word.
void NextBernoulliWords8Scalar(OctoRng& o, std::uint64_t threshold,
                               std::uint64_t* out);
}  // namespace internal

/// The ternary companion: 64 iid three-way orientation draws per call,
/// from ONE uniform per lane compared against BOTH integer cuts of the
/// batch sampler (cut_lo = floor(Pr(lo beats hi) * 2^64), cut_hi =
/// floor((Pr(lo beats hi) + Pr(hi beats lo)) * 2^64), UINT64_MAX
/// sentinels exact). On return, bit w of *lo_mask is set iff lane w drew
/// "lo preferred" (U < cut_lo), bit w of *hi_mask iff it drew "hi
/// preferred" (cut_lo <= U < cut_hi); a bit set in neither mask is
/// "incomparable". The masks are mutually exclusive by construction
/// because every revealed U bit is shared by both comparisons — the
/// word-level analog of resolving both `ThresholdHit` tests against one
/// NextUint64.
inline void NextTernaryWords(Rng& rng, std::uint64_t cut_lo,
                             std::uint64_t cut_hi, std::uint64_t* lo_mask,
                             std::uint64_t* hi_mask) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  if (cut_lo == kMax) {  // "always lo" sentinel: no randomness needed
    *lo_mask = ~0ULL;
    *hi_mask = 0;
    return;
  }
  const bool hi_always = cut_hi == kMax;
  std::uint64_t below_lo = 0;
  std::uint64_t below_hi = hi_always ? ~0ULL : 0;
  std::uint64_t und_lo = cut_lo == 0 ? 0 : ~0ULL;
  std::uint64_t und_hi = (hi_always || cut_hi == 0) ? 0 : ~0ULL;
  const int low_lo = cut_lo == 0 ? 64 : std::countr_zero(cut_lo);
  const int low_hi =
      (hi_always || cut_hi == 0) ? 64 : std::countr_zero(cut_hi);
  for (int k = 63; k >= 0; --k) {
    const bool lo_active = und_lo != 0 && k >= low_lo;
    const bool hi_active = und_hi != 0 && k >= low_hi;
    if (!lo_active && !hi_active) break;
    const std::uint64_t r = rng.NextUint64();  // bit k of every lane's U
    if (lo_active) {
      const std::uint64_t bit = (cut_lo >> k) & 1ULL;
      below_lo |= und_lo & ~r & (0 - bit);
      und_lo &= r ^ (bit - 1);
    }
    if (hi_active) {
      const std::uint64_t bit = (cut_hi >> k) & 1ULL;
      below_hi |= und_hi & ~r & (0 - bit);
      und_hi &= r ^ (bit - 1);
    }
  }
  *lo_mask = below_lo;
  *hi_mask = below_hi & ~below_lo;
}

}  // namespace skypref

#endif  // SKYPREF_UTIL_RANDOM_H_
