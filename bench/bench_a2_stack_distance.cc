// Ablation A2: one-pass stack-distance analysis vs direct simulation.
//
// Mattson's algorithm gives the exact fully-associative LRU miss rate at
// every capacity in a single pass over the trace. This harness (a) prints
// the full-system vs user-only miss-rate curves it produces and (b)
// cross-checks a few points against the direct cache model.

#include <cstdio>

#include "analysis/stack_distance.h"
#include "cache/cache.h"
#include "common.h"
#include "trace/ref_filter.h"
#include "util/table.h"

namespace atum {
namespace {

constexpr unsigned kBlockShift = 4;  // 16-byte blocks

int
Run()
{
    const bench::Capture cap =
        bench::CaptureFullSystem(bench::MixOfDegree(3));

    analysis::StackDistanceAnalyzer full(kBlockShift);
    analysis::StackDistanceAnalyzer user(kBlockShift);
    trace::RefFilter user_refs({.include_kernel = false});
    for (const trace::Record& r : cap.records) {
        full.Feed(r);
        if (user_refs.Classify(r) == trace::RefFilter::kRef)
            user.Feed(r);
    }

    std::printf("A2: fully-associative LRU miss rate from one-pass stack\n"
                "distances (16B blocks, no switch flushing)\n\n");
    Table table({"capacity", "full-system%", "user-only%"});
    bench::BenchReport report("a2_stack_distance");
    for (uint32_t kib : {1u, 4u, 16u, 64u, 256u}) {
        const uint64_t blocks = (kib << 10) >> kBlockShift;
        report.Add("miss_rate", 100.0 * full.MissRateForCapacity(blocks),
                   "%", {{"capacity_kb", std::to_string(kib)},
                         {"view", "full-system"}});
        table.AddRow({
            std::to_string(kib) + "K",
            Table::Fmt(100.0 * full.MissRateForCapacity(blocks), 3),
            Table::Fmt(100.0 * user.MissRateForCapacity(blocks), 3),
        });
    }
    std::printf("%s\n", table.ToString().c_str());
    std::printf("distinct blocks: full=%llu user=%llu; cold misses: "
                "full=%llu user=%llu\n\n",
                static_cast<unsigned long long>(full.distinct_blocks()),
                static_cast<unsigned long long>(user.distinct_blocks()),
                static_cast<unsigned long long>(full.cold_misses()),
                static_cast<unsigned long long>(user.cold_misses()));

    // Cross-check one capacity against the direct simulator.
    const uint64_t check_blocks = (16u << 10) >> kBlockShift;
    cache::Cache direct({.size_bytes = 16u << 10, .block_bytes = 16,
                         .assoc = 0});
    trace::RefFilter refs;
    for (const trace::Record& r : cap.records) {
        if (refs.Classify(r) == trace::RefFilter::kRef)
            direct.Access(r.addr, r.type == trace::RecordType::kWrite);
    }
    std::printf("cross-check @16K: one-pass misses=%llu, direct "
                "simulation misses=%llu (%s)\n",
                static_cast<unsigned long long>(
                    full.MissesForCapacity(check_blocks)),
                static_cast<unsigned long long>(direct.stats().misses),
                full.MissesForCapacity(check_blocks) ==
                        direct.stats().misses
                    ? "exact match"
                    : "MISMATCH");
    if (full.MissesForCapacity(check_blocks) != direct.stats().misses)
        Fatal("stack-distance analysis diverged from direct simulation");
    return 0;
}

}  // namespace
}  // namespace atum

int
main()
{
    return atum::Run();
}
