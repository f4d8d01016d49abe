#ifndef ATUM_UTIL_CRC32_H_
#define ATUM_UTIL_CRC32_H_

/**
 * @file
 * CRC32C (Castagnoli polynomial 0x1EDC6F41, reflected), the checksum the
 * ATF2 trace container uses per chunk. Every drained and every loaded
 * byte passes through it: the drain CRCs each chunk it writes, and the
 * scanner each chunk it reads back. Crc32cExtend therefore uses the
 * SSE4.2 `crc32` instruction when the CPU has it (checked once, at the
 * first call), as three interleaved streams over 768-byte blocks that
 * are joined by a constant shift table, so the instruction's three-cycle
 * latency does not bound it; it falls back to slicing-by-8 otherwise.
 * Both give the same value on every platform, which the golden-file
 * tests require.
 *
 * Check value: Crc32c("123456789", 9) == 0xE3069283.
 */

#include <cstddef>
#include <cstdint>

namespace atum::util {

/**
 * Extends a running CRC32C over `len` more bytes. `crc` is the finalized
 * value of the previous bytes (0 for none); returns the finalized value
 * of the whole sequence, so Extend(Extend(0, a), b) == Crc32c(a+b).
 */
uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t len);

/**
 * The portable slicing-by-8 implementation Crc32cExtend falls back to
 * when the CPU lacks a CRC32C instruction. Same contract and output;
 * named so that it can be tested on hosts that have the instruction.
 */
uint32_t Crc32cExtendPortable(uint32_t crc, const void* data, size_t len);

/** CRC32C of one contiguous buffer. */
inline uint32_t
Crc32c(const void* data, size_t len)
{
    return Crc32cExtend(0, data, len);
}

}  // namespace atum::util

#endif  // ATUM_UTIL_CRC32_H_
