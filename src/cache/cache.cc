#include "cache/cache.h"

#include <sstream>

#include "util/bitops.h"
#include "util/logging.h"

namespace atum::cache {

std::string
CacheConfig::ToString() const
{
    std::ostringstream os;
    os << size_bytes / 1024 << "K/" << block_bytes << "B/";
    if (assoc == 0)
        os << "full";
    else
        os << assoc << "w";
    os << (write_back ? "/wb" : "/wt");
    if (pid_tags)
        os << "/pid";
    if (prefetch_next_on_miss)
        os << "/obl";
    return os.str();
}

util::Status
ValidateConfig(const CacheConfig& config)
{
    if (!IsPowerOfTwo(config.size_bytes) || !IsPowerOfTwo(config.block_bytes))
        return util::InvalidArgument(
            "cache size and block size must be powers of two");
    if (config.block_bytes < 4 || config.block_bytes > config.size_bytes)
        return util::InvalidArgument("bad block size ", config.block_bytes);
    const uint32_t blocks = config.size_bytes / config.block_bytes;
    const uint32_t assoc = config.assoc == 0 ? blocks : config.assoc;
    if (assoc > blocks)
        return util::InvalidArgument("associativity ", assoc, " exceeds ",
                                     blocks, " blocks");
    if (blocks % assoc != 0)
        return util::InvalidArgument("blocks (", blocks,
                                     ") not divisible by associativity (",
                                     assoc, ")");
    const uint32_t sets = blocks / assoc;
    if (!IsPowerOfTwo(sets))
        return util::InvalidArgument(
            "set count must be a power of two, got ", sets);
    return util::OkStatus();
}

Cache::Cache(const CacheConfig& config)
    : config_(config), rng_(0x1badcafe)
{
    if (util::Status status = ValidateConfig(config); !status.ok())
        Fatal(status.message());
    const uint32_t blocks = config.size_bytes / config.block_bytes;
    assoc_ = config.assoc == 0 ? blocks : config.assoc;
    config_.assoc = assoc_;
    const uint32_t sets = blocks / assoc_;
    set_mask_ = sets - 1;
    set_shift_ = Log2Floor(sets);
    block_shift_ = Log2Floor(config.block_bytes);
    lru_ = config.replacement == Replacement::kLru;
    write_back_ = config.write_back;
    pid_tags_ = config.pid_tags;
    prefetch_ = config.prefetch_next_on_miss;
    lines_.resize(blocks);
}

Cache::Line&
Cache::Victim(uint32_t set)
{
    Line* base = SetBase(set);
    for (uint32_t w = 0; w < assoc_; ++w)
        if ((base[w].key & kValid) == 0)
            return base[w];
    if (!lru_)
        return base[rng_.Below(assoc_)];
    Line* victim = base;
    for (uint32_t w = 1; w < assoc_; ++w)
        if (base[w].stamp < victim->stamp)
            victim = &base[w];
    return *victim;
}

uint64_t
Cache::Miss(uint64_t tick, uint32_t block, uint64_t tag, bool is_write,
            uint32_t* writeback_addr)
{
    ++stats_.misses;
    if (is_write)
        ++stats_.write_misses;
    else
        ++stats_.read_misses;

    const uint32_t set = block & set_mask_;
    Line& victim = Victim(set);
    if ((victim.key & (kValid | kDirty)) == (kValid | kDirty)) {
        ++stats_.writebacks;
        if (writeback_addr != nullptr) {
            // Reconstruct the victim's block address (pid bits excluded).
            const auto victim_tag =
                static_cast<uint32_t>(victim.key >> kTagShift);
            *writeback_addr = ((victim_tag << set_shift_) | set)
                              << block_shift_;
        }
    }
    victim.key = tag << kTagShift | kValid |
                 (is_write && write_back_ ? kDirty : 0);
    victim.stamp = ++tick;

    if (prefetch_) {
        // One-block lookahead: bring in the sequentially next block too.
        tick = Fill(tick, block + 1, tag & ~0xffffffffull);  // same pid
    }
    return tick;
}

uint64_t
Cache::Fill(uint64_t tick, uint32_t block, uint64_t tag_extra)
{
    const uint32_t set = block & set_mask_;
    const uint64_t tag = (block >> set_shift_) | tag_extra;
    const uint64_t want = tag << kTagShift | kValid;
    Line* base = SetBase(set);
    for (uint32_t w = 0; w < assoc_; ++w) {
        if ((base[w].key & ~kDirty) == want)
            return tick;  // already resident: nothing to prefetch
    }
    Line& victim = Victim(set);
    if ((victim.key & (kValid | kDirty)) == (kValid | kDirty))
        ++stats_.writebacks;
    victim.key = want;
    victim.stamp = ++tick;
    ++stats_.prefetch_fills;
    return tick;
}

void
Cache::Flush()
{
    ++stats_.flushes;
    for (Line& line : lines_) {
        if (line.key & kValid) {
            ++stats_.flushed_blocks;
            if (line.key & kDirty)
                ++stats_.writebacks;
            line.key = 0;
        }
    }
}

}  // namespace atum::cache
