#ifndef ATUM_REPLAY_CONFIG_SPEC_H_
#define ATUM_REPLAY_CONFIG_SPEC_H_

/**
 * @file
 * The one grammar for a replay configuration. Every entry point that
 * names a cache, hierarchy or TLB to replay reads it through here:
 * atum-report's --cache/--tlb/--sweep flags, atum-submit's --config, the
 * serve wire protocol, and the serve journal that re-reads the specs on
 * recovery.
 *
 * The JSON form must round-trip byte-for-byte, because the serve
 * journal's per-config rows are the daemon's resume high-water mark
 * (invariant S5, docs/SERVE.md).
 *
 * Fields are checked at parse time: a value that is not a whole decimal
 * number, or does not fit the simulator's 32-bit field, is
 * kInvalidArgument. Geometry is deliberately NOT validated here. A sweep
 * isolates failures per row: a config with a nonsensical geometry
 * becomes one failed row (replay::ValidateJob catches it before any
 * simulator is built), never a rejected submission or a failed sweep.
 */

#include <cstdint>
#include <string>
#include <string_view>

#include "replay/sweep.h"
#include "util/json.h"
#include "util/status.h"

namespace atum::replay {

/**
 * One replayable configuration, in wire form. Kind selects which knobs
 * matter: "cache" uses size_kb/block/assoc, "hierarchy" applies them to
 * the unified L2 over default split L1s, "tlb" uses entries/ways.
 */
struct ConfigSpec {
    std::string kind = "cache";  ///< "cache" | "hierarchy" | "tlb"
    std::string label;           ///< optional row label (defaulted if empty)
    uint32_t size_kb = 64;       ///< cache (or L2) capacity in KiB
    uint32_t block = 16;         ///< block size in bytes
    uint32_t assoc = 1;          ///< associativity; 0 = fully associative
    uint32_t entries = 64;       ///< TLB entries
    uint32_t ways = 0;           ///< TLB ways; 0 = fully associative

    /** The replay-engine job this spec describes. */
    SweepConfig ToReplayConfig() const;

    /** Emits the spec as one JSON object into an open writer. */
    void WriteJson(util::JsonWriter& w) const;
};

/** Parses one spec object; kInvalidArgument for an unknown kind or a
 *  field that is not a whole number in its range. */
util::StatusOr<ConfigSpec> ParseConfigSpec(const util::JsonValue& doc);

/**
 * Parses the compact text form `kind[:key=value]...`, e.g.
 * "cache:size_kb=128:assoc=2", "hierarchy:size_kb=256:block=32",
 * "tlb:entries=32:ways=4", or the alias `SIZE_KB:BLOCK:ASSOC` for
 * `cache:size_kb=SIZE_KB:block=BLOCK:assoc=ASSOC`.
 *
 * A non-empty `only_kind` refuses every other kind, for a flag that
 * names one model. With `only_kind` "tlb", a bare entry count N means
 * `tlb:entries=N`.
 */
util::StatusOr<ConfigSpec> ParseConfigSpecText(std::string_view text,
                                               std::string_view only_kind = {});

}  // namespace atum::replay

#endif  // ATUM_REPLAY_CONFIG_SPEC_H_
