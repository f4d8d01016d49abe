// Experiment F2 (reconstructed): miss rate vs block size at a fixed
// 64 KiB direct-mapped cache, full-system trace.
//
// Paper shape to reproduce: growing blocks first exploits spatial
// locality (miss rate falls), with diminishing returns at large blocks as
// fewer, wider lines start thrashing — the classic curve.

#include <cstdio>

#include "common.h"
#include "replay/sweep.h"
#include "util/table.h"

namespace atum {
namespace {

int
Run()
{
    const bench::Capture full =
        bench::CaptureFullSystem(bench::MixOfDegree(3));
    cache::CacheConfig base{.size_bytes = 64u << 10, .assoc = 1};
    cache::DriverOptions opts;
    opts.flush_on_switch = true;

    const std::vector<uint32_t> blocks = {4, 8, 16, 32, 64, 128};
    std::vector<replay::SweepConfig> jobs;
    for (uint32_t block : blocks) {
        cache::CacheConfig c = base;
        c.block_bytes = block;
        jobs.push_back(replay::MakeCacheJob(c, opts));
    }
    const std::vector<replay::SweepResult> results =
        replay::SweepRunner().Run(full.records, jobs);

    std::printf("F2: miss rate vs block size (64K direct-mapped, "
                "full-system trace)\n\n");
    Table table({"block", "miss%", "misses", "traffic(B/ref)"});
    bench::BenchReport report("f2_miss_vs_blocksize");
    for (size_t i = 0; i < blocks.size(); ++i) {
        const cache::CacheStats& stats = results[i].cache_stats;
        // Memory traffic: every miss moves a block (plus writebacks).
        const double traffic =
            static_cast<double>((stats.misses + stats.writebacks)) *
            blocks[i] / static_cast<double>(stats.accesses);
        report.Add("miss_rate", 100.0 * stats.MissRate(), "%",
                   {{"block_bytes", std::to_string(blocks[i])}});
        report.Add("traffic", traffic, "B/ref",
                   {{"block_bytes", std::to_string(blocks[i])}});
        table.AddRow({
            std::to_string(blocks[i]) + "B",
            Table::Fmt(100.0 * stats.MissRate(), 2),
            std::to_string(stats.misses),
            Table::Fmt(traffic, 2),
        });
    }
    std::printf("%s\n", table.ToString().c_str());
    std::printf("Shape check: miss rate falls with block size (diminishing\n"
                "returns), while bus traffic per reference keeps rising.\n");
    return 0;
}

}  // namespace
}  // namespace atum

int
main()
{
    return atum::Run();
}
