#ifndef ATUM_UTIL_BITOPS_H_
#define ATUM_UTIL_BITOPS_H_

/**
 * @file
 * Small bit-manipulation helpers shared across the simulator.
 */

#include <bit>
#include <cstdint>

namespace atum {

/** Returns true iff `v` is a (nonzero) power of two. */
constexpr bool
IsPowerOfTwo(uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** Returns floor(log2(v)), and 0 for v == 0. */
constexpr unsigned
Log2Floor(uint64_t v)
{
    return v == 0 ? 0 : static_cast<unsigned>(std::bit_width(v)) - 1;
}

/** Rounds `v` down to a multiple of power-of-two `align`. */
constexpr uint64_t
AlignDown(uint64_t v, uint64_t align)
{
    return v & ~(align - 1);
}

/** Rounds `v` up to a multiple of power-of-two `align`. */
constexpr uint64_t
AlignUp(uint64_t v, uint64_t align)
{
    return (v + align - 1) & ~(align - 1);
}

/** Extracts bits [lo, hi] (inclusive) of `v`, right-justified. */
constexpr uint32_t
Bits(uint32_t v, unsigned hi, unsigned lo)
{
    return (v >> lo) & ((hi - lo == 31u) ? ~0u : ((1u << (hi - lo + 1)) - 1));
}

/** Sign-extends the low `bits` bits of `v` to 32 bits. */
constexpr int32_t
SignExtend(uint32_t v, unsigned bits)
{
    const uint32_t m = 1u << (bits - 1);
    return static_cast<int32_t>((v ^ m) - m);
}

}  // namespace atum

#endif  // ATUM_UTIL_BITOPS_H_
