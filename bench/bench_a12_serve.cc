// Ablation A12: the serve daemon under load and under the axe.
//
// Three measurements against a ServeCore in drill mode on an in-memory
// disk (no host filesystem, no thread scheduling noise in the
// deterministic rows):
//
//   1. Admission latency — wall time of one submit round-trip, which
//      includes the J1 journal append+fsync the ack waits on, as p50/p99
//      across a burst of submissions; plus the deterministic shed count
//      when the burst overruns a bounded queue (kResourceExhausted).
//   2. Job throughput — jobs drained per second through the fair-share
//      scheduler, with the deterministic record total they produced.
//   3. Kill-restart recovery — a mixed-fault serve campaign
//      (chaos/campaign.h): power cuts, ENOSPC, torn renames against the
//      whole daemon, recovered and invariant-checked. Aborts on any
//      violation; reports the deterministic cut/resume/salvage counts.
//
// Latency and throughput are wall-clock (banded in the regression gate);
// everything else is deterministic and exact-matched.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "chaos/campaign.h"
#include "common.h"
#include "io/mem_vfs.h"
#include "obs/metrics.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "util/logging.h"
#include "util/table.h"

namespace atum {
namespace {

using Clock = std::chrono::steady_clock;

constexpr uint32_t kBurst = 128;     // submissions in the latency burst
constexpr uint32_t kQueueDepth = 8;  // bounded queue for the shed row
constexpr uint32_t kShedBurst = 24;  // submissions thrown at it

serve::ServeConfig
BenchConfig()
{
    serve::ServeConfig config;
    config.dir = ".";
    config.workers = 0;  // drill mode: synchronous, deterministic
    config.buffer_bytes = 4u << 10;
    config.chunk_records = 64;
    config.checkpoint_every_fills = 1;
    config.keep_checkpoints = 2;
    config.admission.max_queue_depth = kBurst + 8;
    config.admission.max_per_tenant = kBurst + 8;
    config.admission.default_max_instructions = 4000;
    return config;
}

std::string
SubmitPayload(uint32_t tenant)
{
    serve::Request request;
    request.op = serve::RequestOp::kSubmit;
    request.tenant = "tenant-" + std::to_string(tenant % 4);
    request.workload = "grep";
    return serve::SerializeRequest(request);
}

int
Run()
{
    bench::BenchReport report("a12_serve");
    Table table({"metric", "value", "unit"});

    // -- 1. admission latency + shed ---------------------------------------
    io::MemVfs vfs;
    obs::Registry registry;
    serve::ServeCore core(BenchConfig(), vfs, &registry);
    if (!core.Start().ok())
        Fatal("A12: daemon failed to start");

    std::vector<uint64_t> admit_us;
    admit_us.reserve(kBurst);
    for (uint32_t i = 0; i < kBurst; ++i) {
        const std::string payload = SubmitPayload(i);
        const Clock::time_point t0 = Clock::now();
        const std::string response = core.HandleRequest(payload);
        const Clock::time_point t1 = Clock::now();
        if (!serve::ResponseStatus(response).ok())
            Fatal("A12: burst submission refused: ", response);
        admit_us.push_back(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0)
                .count()));
    }
    std::sort(admit_us.begin(), admit_us.end());
    const double admit_p50 = bench::Percentile(admit_us, 50);
    const double admit_p99 = bench::Percentile(admit_us, 99);
    report.Add("admit_latency_p50", admit_p50, "us", {});
    report.Add("admit_latency_p99", admit_p99, "us", {});
    table.AddRow({"admit p50", Table::Fmt(admit_p50, 0), "us"});
    table.AddRow({"admit p99", Table::Fmt(admit_p99, 0), "us"});

    // -- 2. job throughput -------------------------------------------------
    const Clock::time_point run0 = Clock::now();
    uint32_t completed = 0;
    while (core.RunNextQueuedJob())
        ++completed;
    const double run_s =
        std::chrono::duration<double>(Clock::now() - run0).count();
    if (completed != kBurst)
        Fatal("A12: drained ", completed, " of ", kBurst, " jobs");

    uint64_t records_total = 0;
    for (const serve::JobInfo& job : core.Jobs()) {
        if (job.state != serve::JobState::kDone)
            Fatal("A12: job did not finish: id ", job.id, " ", job.detail);
        records_total += job.records;
    }
    core.Shutdown();
    const double throughput =
        run_s > 0.0 ? static_cast<double>(completed) / run_s : 0.0;
    report.Add("job_throughput", throughput, "/s", {});
    report.Add("jobs_completed", static_cast<double>(completed), "jobs", {});
    report.Add("records_total", static_cast<double>(records_total),
               "records", {});
    table.AddRow({"throughput", Table::Fmt(throughput, 1), "jobs/s"});
    table.AddRow({"records", std::to_string(records_total), "records"});

    // -- shed behavior under overload (deterministic) ----------------------
    io::MemVfs shed_vfs;
    obs::Registry shed_registry;
    serve::ServeConfig shed_config = BenchConfig();
    shed_config.admission.max_queue_depth = kQueueDepth;
    serve::ServeCore shed_core(shed_config, shed_vfs, &shed_registry);
    if (!shed_core.Start().ok())
        Fatal("A12: shed daemon failed to start");
    uint32_t shed = 0;
    for (uint32_t i = 0; i < kShedBurst; ++i) {
        const util::Status status = serve::ResponseStatus(
            shed_core.HandleRequest(SubmitPayload(i)));
        if (status.code() == util::StatusCode::kResourceExhausted)
            ++shed;
        else if (!status.ok())
            Fatal("A12: unexpected refusal: ", status.ToString());
    }
    shed_core.Shutdown();
    if (shed != kShedBurst - kQueueDepth)
        Fatal("A12: expected ", kShedBurst - kQueueDepth, " sheds, got ",
              shed);
    report.Add("jobs_shed", static_cast<double>(shed), "jobs", {});
    table.AddRow({"shed at depth " + std::to_string(kQueueDepth),
                  std::to_string(shed), "jobs"});

    // -- 3. kill-restart recovery campaign ---------------------------------
    chaos::ServeCampaignSpec spec;
    spec.campaigns = {"powercut", "enospc", "torn-rename"};
    spec.jobs = 3;
    spec.max_instructions = 4000;
    util::StatusOr<chaos::ServeCampaignResult> campaign =
        chaos::RunCampaign(spec, /*first_seed=*/1, /*seeds=*/10,
                           [](const chaos::ServeSeedResult& r) {
                               if (!r.ok())
                                   Fatal("A12: invariant violated: ",
                                         r.Summary());
                           });
    if (!campaign.ok())
        Fatal("A12: campaign failed to run: ",
              campaign.status().ToString());
    report.Add("drill_power_cuts",
               static_cast<double>(campaign->power_cuts), "cuts", {});
    report.Add("drill_resumes", static_cast<double>(campaign->resumes),
               "jobs", {});
    report.Add("drill_salvages", static_cast<double>(campaign->salvages),
               "jobs", {});
    table.AddRow({"drill cuts/resumes/salvages",
                  std::to_string(campaign->power_cuts) + "/" +
                      std::to_string(campaign->resumes) + "/" +
                      std::to_string(campaign->salvages),
                  ""});

    // -- 4. hostile-wire drill + exactly-once dedup (deterministic) --------
    // A small net campaign (chaos stream seam, docs/SERVE.md "Network
    // failure model") plus a duplicate-token burst, reporting the
    // serve.net.* side of the daemon: faults absorbed, kill-restarts,
    // retries deduplicated, and the dup_token_hits counter itself.
    constexpr uint32_t kDupBurst = 16;
    io::MemVfs net_vfs;
    obs::Registry net_registry;
    serve::ServeCore net_core(BenchConfig(), net_vfs, &net_registry);
    if (!net_core.Start().ok())
        Fatal("A12: net daemon failed to start");
    serve::Request tokened;
    tokened.op = serve::RequestOp::kSubmit;
    tokened.workload = "grep";
    tokened.client_token = "a12-dup-token";
    const std::string tokened_payload = serve::SerializeRequest(tokened);
    for (uint32_t i = 0; i < kDupBurst; ++i)
        if (!serve::ResponseStatus(net_core.HandleRequest(tokened_payload))
                 .ok())
            Fatal("A12: tokened submit refused");
    net_core.Shutdown();
    const uint64_t dup_hits =
        net_registry.GetCounter("serve.net.dup_token_hits").value();
    if (dup_hits != kDupBurst - 1)
        Fatal("A12: expected ", kDupBurst - 1, " dup token hits, got ",
              dup_hits);
    report.Add("net_dup_token_hits", static_cast<double>(dup_hits),
               "hits", {});
    table.AddRow({"serve.net.dup_token_hits",
                  std::to_string(dup_hits),
                  "of " + std::to_string(kDupBurst) + " sends"});

    chaos::NetCampaignSpec net_spec;
    net_spec.campaigns = {"net-flaky", "net-cut", "net-flip",
                          "net-stall", "net-dup", "net-kill"};
    net_spec.submits = 3;
    net_spec.max_instructions = 2000;
    util::StatusOr<chaos::NetCampaignResult> net_campaign =
        chaos::RunCampaign(net_spec, /*first_seed=*/1, /*seeds=*/10,
                           [](const chaos::NetSeedResult& r) {
                               if (!r.ok())
                                   Fatal("A12: net invariant violated: ",
                                         r.Summary());
                           });
    if (!net_campaign.ok())
        Fatal("A12: net campaign failed to run: ",
              net_campaign.status().ToString());
    report.Add("net_faults_fired",
               static_cast<double>(net_campaign->faults_fired), "faults",
               {});
    report.Add("net_kills", static_cast<double>(net_campaign->kills),
               "kills", {});
    report.Add("net_acks", static_cast<double>(net_campaign->acks), "acks",
               {});
    report.Add("net_dup_acks", static_cast<double>(net_campaign->dup_acks),
               "acks", {});
    report.Add("net_retries", static_cast<double>(net_campaign->retries),
               "retries", {});
    table.AddRow({"net faults/kills",
                  std::to_string(net_campaign->faults_fired) + "/" +
                      std::to_string(net_campaign->kills),
                  ""});
    table.AddRow({"net acks (dedup)/retries",
                  std::to_string(net_campaign->acks) + " (" +
                      std::to_string(net_campaign->dup_acks) + ")/" +
                      std::to_string(net_campaign->retries),
                  ""});

    std::printf("A12: serve daemon, %u-job burst, drill mode\n\n%s\n",
                kBurst, table.ToString().c_str());
    return 0;
}

}  // namespace
}  // namespace atum

int
main()
{
    return atum::Run();
}
