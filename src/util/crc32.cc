#include "util/crc32.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace atum::util {

namespace {

using Tables = std::array<std::array<uint32_t, 256>, 8>;

/**
 * Reflected CRC32C lookup tables for slicing-by-8: tables[0] advances
 * the CRC over one byte; tables[k] over one byte followed by k zeros.
 */
constexpr Tables
MakeTables()
{
    constexpr uint32_t kPolyReflected = 0x82F63B78u;
    Tables tables{};
    for (uint32_t i = 0; i < 256; ++i) {
        uint32_t crc = i;
        for (int bit = 0; bit < 8; ++bit)
            crc = (crc >> 1) ^ ((crc & 1) ? kPolyReflected : 0);
        tables[0][i] = crc;
    }
    for (size_t k = 1; k < tables.size(); ++k) {
        for (uint32_t i = 0; i < 256; ++i) {
            const uint32_t prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFF];
        }
    }
    return tables;
}

constexpr Tables kTables = MakeTables();

/** Little-endian 32-bit load; one instruction on little-endian hosts. */
inline uint32_t
Load32(const uint8_t* p)
{
    return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
           static_cast<uint32_t>(p[2]) << 16 |
           static_cast<uint32_t>(p[3]) << 24;
}

#if defined(__x86_64__)
/** Little-endian 64-bit load; one instruction on x86-64. */
inline uint64_t
Load64(const uint8_t* p)
{
    uint64_t word;
    std::memcpy(&word, p, sizeof word);
    return word;
}

/** Bytes per stream in one block of the three-stream loop. */
constexpr size_t kStreamBytes = 256;

using ShiftTable = std::array<std::array<uint32_t, 256>, 4>;

/**
 * Tables that move a raw CRC register past kStreamBytes zero bytes (a
 * multiplication by x^(8*kStreamBytes) mod P): shifted(r) is the XOR of
 * table[k][byte k of r] over the register's four bytes.
 */
constexpr ShiftTable
MakeShiftTable()
{
    // The shift is linear in r, so it is the XOR of its shift of each bit.
    std::array<uint32_t, 32> bit_shifted{};
    for (int bit = 0; bit < 32; ++bit) {
        uint32_t r = 1u << bit;
        for (size_t n = 0; n < kStreamBytes; ++n)
            r = (r >> 8) ^ kTables[0][r & 0xFF];
        bit_shifted[bit] = r;
    }
    ShiftTable table{};
    for (int k = 0; k < 4; ++k) {
        for (uint32_t v = 0; v < 256; ++v) {
            for (int bit = 0; bit < 8; ++bit) {
                if ((v >> bit) & 1)
                    table[k][v] ^= bit_shifted[8 * k + bit];
            }
        }
    }
    return table;
}

constexpr ShiftTable kShift = MakeShiftTable();

/** The raw register `r` moved past kStreamBytes zero bytes. */
inline uint32_t
ShiftStream(uint32_t r)
{
    return kShift[0][r & 0xFF] ^ kShift[1][(r >> 8) & 0xFF] ^
           kShift[2][(r >> 16) & 0xFF] ^ kShift[3][r >> 24];
}

/**
 * The SSE4.2 `crc32` instruction, eight bytes per step. One `crc32` has
 * a latency of three cycles and a throughput of one, so blocks of three
 * kStreamBytes runs go as three interleaved streams: c carries the
 * running register over the first, c1 and c2 start from zero over the
 * second and third, and shift(shift(c) ^ c1) ^ c2 is the register one
 * stream over the whole block leaves.
 */
__attribute__((target("sse4.2"))) uint32_t
Crc32cExtendSse42(uint32_t crc, const void* data, size_t len)
{
    const auto* p = static_cast<const uint8_t*>(data);
    uint64_t c = ~crc;
    for (; len >= 3 * kStreamBytes;
         p += 3 * kStreamBytes, len -= 3 * kStreamBytes) {
        uint64_t c1 = 0;
        uint64_t c2 = 0;
        for (size_t i = 0; i < kStreamBytes; i += 8) {
            c = _mm_crc32_u64(c, Load64(p + i));
            c1 = _mm_crc32_u64(c1, Load64(p + kStreamBytes + i));
            c2 = _mm_crc32_u64(c2, Load64(p + 2 * kStreamBytes + i));
        }
        c = ShiftStream(ShiftStream(static_cast<uint32_t>(c)) ^
                        static_cast<uint32_t>(c1)) ^
            static_cast<uint32_t>(c2);
    }
    for (; len >= 8; p += 8, len -= 8)
        c = _mm_crc32_u64(c, Load64(p));
    auto c32 = static_cast<uint32_t>(c);
    for (; len > 0; ++p, --len)
        c32 = _mm_crc32_u8(c32, *p);
    return ~c32;
}
#endif

using Crc32cFn = uint32_t (*)(uint32_t, const void*, size_t);

Crc32cFn
SelectCrc32c()
{
#if defined(__x86_64__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("sse4.2"))
        return Crc32cExtendSse42;
#endif
    return Crc32cExtendPortable;
}

}  // namespace

uint32_t
Crc32cExtendPortable(uint32_t crc, const void* data, size_t len)
{
    const auto* p = static_cast<const uint8_t*>(data);
    crc = ~crc;
    for (; len >= 8; p += 8, len -= 8) {
        const uint32_t lo = crc ^ Load32(p);
        const uint32_t hi = Load32(p + 4);
        crc = kTables[7][lo & 0xFF] ^ kTables[6][(lo >> 8) & 0xFF] ^
              kTables[5][(lo >> 16) & 0xFF] ^ kTables[4][lo >> 24] ^
              kTables[3][hi & 0xFF] ^ kTables[2][(hi >> 8) & 0xFF] ^
              kTables[1][(hi >> 16) & 0xFF] ^ kTables[0][hi >> 24];
    }
    for (; len > 0; ++p, --len)
        crc = (crc >> 8) ^ kTables[0][(crc ^ *p) & 0xFF];
    return ~crc;
}

uint32_t
Crc32cExtend(uint32_t crc, const void* data, size_t len)
{
    static const Crc32cFn impl = SelectCrc32c();
    return impl(crc, data, len);
}

}  // namespace atum::util
