// Ablation A10: crash-safety and recovery latency of the capture stack.
//
// Each row is a complete disaster drill through the chaos Vfs
// (chaos/campaign.h): a supervised full-system capture with rotating
// checkpoints runs against a seeded fault schedule — ENOSPC bursts, torn
// checkpoint publishes, power cuts mid-drain — then is recovered the way
// an operator would (resume from the newest durable checkpoint, or
// tolerant salvage) and the no-silent-loss invariant battery is applied.
// The run aborts on any violation.
//
// Reported per campaign: how much of the capture survived (deterministic
// per seed), how much loss was loudly declared, and the wall-clock
// latency of the recovery action itself — checkpoint load + trace reopen
// + state restore — as p50/p90/p99 across every power-cut drill.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "chaos/campaign.h"
#include "common.h"
#include "io/chaos.h"
#include "util/logging.h"
#include "util/table.h"

namespace atum {
namespace {

struct CampaignRow {
    std::string name;
    std::vector<std::string> campaigns;
    uint64_t seeds = 0;
};

int
Run()
{
    const chaos::CampaignSpec spec;  // the standard drill shape

    // The fault-free drill establishes what "everything survived" means.
    util::StatusOr<chaos::SeedResult> baseline =
        chaos::ReplaySchedule(spec, io::ChaosSchedule{});
    if (!baseline.ok() || !baseline->ok())
        Fatal("A10: fault-free baseline drill failed");
    const double total =
        static_cast<double>(baseline->data_records);
    std::printf("A10: fault recovery, %llu records per fault-free drill\n\n",
                static_cast<unsigned long long>(baseline->data_records));

    const std::vector<CampaignRow> rows = {
        {"powercut", {"powercut"}, 6},
        {"enospc", {"enospc"}, 4},
        {"torn-rename", {"torn-rename"}, 4},
        {"mixed", {"powercut", "enospc", "torn-rename"}, 10},
    };

    Table table({"campaign", "seeds", "faults", "cuts", "resumes",
                 "salvages", "survival%min", "lost-max"});
    bench::BenchReport report("a10_fault_recovery");
    std::vector<uint64_t> recovery_us;
    uint64_t drills = 0;

    for (const CampaignRow& row : rows) {
        chaos::CampaignSpec row_spec = spec;
        row_spec.campaigns = row.campaigns;

        double survival_min = 100.0;
        uint64_t lost_max = 0;
        util::StatusOr<chaos::CampaignResult> result = chaos::RunCampaign(
            row_spec, /*first_seed=*/1, row.seeds,
            [&](const chaos::SeedResult& r) {
                if (!r.ok())
                    Fatal("A10: invariant violated: ", r.Summary());
                const double survival =
                    100.0 * static_cast<double>(r.data_records) / total;
                survival_min = std::min(survival_min, survival);
                lost_max = std::max(lost_max, r.lost_records);
                if (r.recovery_us > 0)
                    recovery_us.push_back(r.recovery_us);
            });
        if (!result.ok())
            Fatal("A10: campaign failed to run: ",
                  result.status().ToString());
        drills += result->seeds_run;

        // Survival is deterministic per (campaign, seed) — exact-match
        // material for the regression gate. Latency is wall time (banded).
        report.Add("survival_min", survival_min, "%",
                   {{"campaign", row.name}});
        report.Add("declared_lost_max", static_cast<double>(lost_max),
                   "records", {{"campaign", row.name}});
        table.AddRow({row.name, std::to_string(result->seeds_run),
                      std::to_string(result->faults_fired),
                      std::to_string(result->power_cuts),
                      std::to_string(result->resumes),
                      std::to_string(result->salvages),
                      Table::Fmt(survival_min, 2),
                      std::to_string(lost_max)});
    }
    std::printf("%s\n", table.ToString().c_str());

    std::sort(recovery_us.begin(), recovery_us.end());
    const double p50 = bench::Percentile(recovery_us, 50);
    const double p90 = bench::Percentile(recovery_us, 90);
    const double p99 = bench::Percentile(recovery_us, 99);
    report.Add("recovery_latency_p50", p50, "us", {});
    report.Add("recovery_latency_p90", p90, "us", {});
    report.Add("recovery_latency_p99", p99, "us", {});
    std::printf("recovery latency over %zu power-cut drills: "
                "p50 %.0f us, p90 %.0f us, p99 %.0f us\n",
                recovery_us.size(), p50, p90, p99);
    std::printf("all invariants held on %llu drills\n",
                static_cast<unsigned long long>(drills));
    return 0;
}

}  // namespace
}  // namespace atum

int
main()
{
    return atum::Run();
}
