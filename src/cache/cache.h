#ifndef ATUM_CACHE_CACHE_H_
#define ATUM_CACHE_CACHE_H_

/**
 * @file
 * Trace-driven cache model, in the style of the mid-80s memory-system
 * studies ATUM's traces enabled.
 *
 * Caches are virtually indexed and virtually tagged (the traces carry
 * virtual addresses). Two multiprogramming disciplines are modelled, the
 * comparison at the heart of experiment F4:
 *   - flush-on-switch: tags carry no process id, so the driver flushes the
 *     cache on every context switch;
 *   - PID tags: tags are extended with the process id (kernel references
 *     tag as pid 0, matching the shared system address space).
 *
 * Replacement is LRU or random, and a write miss always allocates its
 * block.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.h"
#include "util/status.h"

namespace atum::cache {

/** Replacement policies. */
enum class Replacement : uint8_t { kLru, kRandom };

struct CacheConfig {
    uint32_t size_bytes = 64u << 10;
    uint32_t block_bytes = 16;
    uint32_t assoc = 1;  ///< 0 means fully associative
    Replacement replacement = Replacement::kLru;
    bool write_back = true;
    bool pid_tags = false;  ///< extend tags with the process id
    /** One-block lookahead (Smith): a miss also fills block+1. */
    bool prefetch_next_on_miss = false;

    std::string ToString() const;
};

/**
 * Checks a geometry without constructing anything: powers of two, block
 * within bounds, associativity dividing the block count. Cache's
 * constructor Fatals on exactly these conditions; callers that must
 * survive a bad configuration (sweep workers) validate first.
 */
util::Status ValidateConfig(const CacheConfig& config);

struct CacheStats {
    uint64_t accesses = 0;
    uint64_t misses = 0;
    uint64_t reads = 0;
    uint64_t read_misses = 0;
    uint64_t writes = 0;
    uint64_t write_misses = 0;
    uint64_t writebacks = 0;
    uint64_t flushes = 0;
    uint64_t flushed_blocks = 0;
    uint64_t prefetch_fills = 0;  ///< blocks brought in by lookahead

    double MissRate() const
    {
        return accesses == 0
                   ? 0.0
                   : static_cast<double>(misses) /
                         static_cast<double>(accesses);
    }
};

class Cache
{
  public:
    /** Validates the configuration (power-of-two sizes); Fatal if bad. */
    explicit Cache(const CacheConfig& config);

    /**
     * Simulates one access. `pid` participates in the tag when pid_tags
     * is configured and is otherwise ignored. Returns true on hit.
     *
     * When `writeback_addr` is non-null and the access evicts a dirty
     * block, the evicted block's address is stored there (for driving a
     * next cache level); otherwise it is left untouched.
     */
    bool Access(uint32_t addr, bool is_write, uint16_t pid = 0,
                uint32_t* writeback_addr = nullptr)
    {
        return AccessIn<0>(tally_, addr, is_write, pid, writeback_addr);
    }

    /** Invalidates everything (a context-switch flush); dirty blocks of a
     *  write-back cache count as writebacks. */
    void Flush();

    const CacheConfig& config() const { return config_; }
    CacheStats stats() const
    {
        CacheStats stats = stats_;
        stats.accesses = tally_.accesses;
        stats.writes = tally_.writes;
        stats.reads = tally_.accesses - tally_.writes;
        return stats;
    }
    uint32_t num_sets() const { return set_mask_ + 1; }

  private:
    friend class TraceCacheDriver;  // its slice loop (FeedSlice)

    /** What every access updates besides its line: the access and
     *  write counts (reads are the rest) and the LRU tick. A replay loop
     *  keeps a copy in locals over a slice of records, so they stay in
     *  registers; the rarer counts stay in stats_. */
    struct Tally {
        uint64_t accesses = 0;
        uint64_t writes = 0;
        uint64_t tick = 0;
    };

    /**
     * One cache line in 16 bytes. `key` packs the tag (pid bits
     * included) above a dirty and a valid bit, so a hit is one compare
     * of the key with its dirty bit masked off.
     */
    struct Line {
        uint64_t key = 0;
        uint64_t stamp = 0;  ///< LRU stamp
    };
    static constexpr uint64_t kValid = 1;
    static constexpr uint64_t kDirty = 2;
    static constexpr unsigned kTagShift = 2;

    Line* SetBase(uint32_t set)
    {
        return &lines_[static_cast<size_t>(set) * assoc_];
    }

    /**
     * The access body, against `t`. `kWays` is the associativity when a
     * caller knows it at compile time (1, 2 or 4), 0 for the configured
     * one; the same body serves both, so a known way count only unrolls
     * the probe.
     */
    template <uint32_t kWays>
    [[gnu::always_inline]] bool AccessIn(Tally& t, uint32_t addr,
                                         bool is_write, uint16_t pid,
                                         uint32_t* writeback_addr);
    /** The miss path of an access: victim choice, writeback and fill.
     *  Takes the LRU tick and returns it advanced, so a caller's copy
     *  never leaves its register. */
    uint64_t Miss(uint64_t tick, uint32_t block, uint64_t tag, bool is_write,
                  uint32_t* writeback_addr);
    /** One-block lookahead: brings `block` in unless it is resident. */
    uint64_t Fill(uint64_t tick, uint32_t block, uint64_t tag_extra);
    Line& Victim(uint32_t set);

    CacheConfig config_;
    uint32_t assoc_;      ///< ways per set (a fully-associative cache: all)
    uint32_t set_mask_;   ///< sets - 1
    unsigned set_shift_;  ///< log2(sets): block -> tag
    unsigned block_shift_;
    bool lru_;
    bool write_back_;
    bool pid_tags_;
    bool prefetch_;
    std::vector<Line> lines_;
    Tally tally_;
    CacheStats stats_;  ///< all but accesses, reads and writes
    Rng rng_;
};

template <uint32_t kWays>
inline bool
Cache::AccessIn(Tally& t, uint32_t addr, bool is_write, uint16_t pid,
                uint32_t* writeback_addr)
{
    ++t.accesses;
    t.writes += is_write;

    const uint32_t block = addr >> block_shift_;
    uint64_t tag = block >> set_shift_;
    if (pid_tags_)
        tag |= static_cast<uint64_t>(pid) << 32;

    const uint64_t want = tag << kTagShift | kValid;
    const uint32_t ways = kWays != 0 ? kWays : assoc_;
    Line* base = &lines_[static_cast<size_t>(block & set_mask_) * ways];
    for (uint32_t w = 0; w < ways; ++w) {
        Line& line = base[w];
        if ((line.key & ~kDirty) == want) {
            if (lru_)
                line.stamp = ++t.tick;
            // Write-through: the write also goes to memory; the block
            // stays clean.
            if (is_write && write_back_)
                line.key |= kDirty;
            return true;
        }
    }

    t.tick = Miss(t.tick, block, tag, is_write, writeback_addr);
    return false;
}

}  // namespace atum::cache

#endif  // ATUM_CACHE_CACHE_H_
