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
/** The SSE4.2 `crc32` instruction, eight bytes per step. */
__attribute__((target("sse4.2"))) uint32_t
Crc32cExtendSse42(uint32_t crc, const void* data, size_t len)
{
    const auto* p = static_cast<const uint8_t*>(data);
    uint64_t c = ~crc;
    for (; len >= 8; p += 8, len -= 8) {
        uint64_t word;
        std::memcpy(&word, p, sizeof word);
        c = _mm_crc32_u64(c, word);
    }
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
