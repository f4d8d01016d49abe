// Ablation A13: resumable replay sweeps through the serve daemon.
//
// Four measurements against a ServeCore in drill mode on an in-memory
// disk (deterministic rows, wall-clock latencies banded in the gate):
//
//   1. Row latency — wall time of one single-config sweep job, which
//      includes the S4 journal append+fsync each row pays before it is
//      reported, as p50/p99 across a burst of sweeps.
//   2. Sweep throughput — config rows completed per second through one
//      wide sweep, with the deterministic row/record totals.
//   3. Resume cost — the wide sweep's journal cut back to one completed
//      row (the state a power cut mid-sweep leaves), a fresh core booted
//      on it, and the recovery + remainder re-run timed; aborts unless
//      the merged result is byte-identical to the clean run (S5).
//   4. Kill-restart sweep campaign — the mixed-fault serve drill with
//      seed-scripted sweeps (chaos/campaign.h), recovered and S1–S5
//      checked. Aborts on any violation; reports the deterministic
//      ack/row/partial-resume counts.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "chaos/campaign.h"
#include "common.h"
#include "io/mem_vfs.h"
#include "obs/metrics.h"
#include "serve/journal.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "util/logging.h"
#include "util/table.h"

namespace atum {
namespace {

using Clock = std::chrono::steady_clock;

constexpr uint32_t kRowBurst = 24;    // single-config sweeps in the burst
constexpr uint32_t kWideConfigs = 12; // configs in the throughput sweep

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
    config.admission.max_queue_depth = kRowBurst + 8;
    config.admission.max_per_tenant = kRowBurst + 8;
    config.admission.default_max_instructions = 4000;
    return config;
}

/** The three simulator kinds, cycled so the burst exercises each. */
replay::ConfigSpec
ConfigFor(uint32_t i)
{
    replay::ConfigSpec spec;
    switch (i % 3) {
      case 0:
        spec.kind = "cache";
        spec.size_kb = 4u << (i % 4);
        spec.assoc = 1u << (i % 2);
        break;
      case 1:
        spec.kind = "hierarchy";
        spec.size_kb = 32u << (i % 2);
        spec.assoc = 2;
        break;
      default:
        spec.kind = "tlb";
        spec.entries = 16u << (i % 3);
        spec.ways = (i % 2) != 0 ? 4 : 0;
        break;
    }
    return spec;
}

uint64_t
RequestId(serve::ServeCore& core, const serve::Request& request)
{
    const std::string response =
        core.HandleRequest(serve::SerializeRequest(request));
    util::StatusOr<util::JsonValue> doc = util::JsonValue::Parse(response);
    if (!doc.ok() || !doc->Get("ok").AsBool())
        Fatal("A13: request refused: ", response);
    return doc->Get("id").AsU64();
}

uint64_t
SubmitSweep(serve::ServeCore& core, uint64_t of,
            const std::vector<replay::ConfigSpec>& configs)
{
    serve::Request request;
    request.op = serve::RequestOp::kSweep;
    request.sweep_of = of;
    request.sweep_configs = configs;
    return RequestId(core, request);
}

const serve::JobInfo*
FindJob(const std::vector<serve::JobInfo>& jobs, uint64_t id)
{
    for (const serve::JobInfo& job : jobs)
        if (job.id == id)
            return &job;
    return nullptr;
}

int
Run()
{
    bench::BenchReport report("a13_serve_sweep");
    Table table({"metric", "value", "unit"});

    // One finished capture feeds every sweep below.
    io::MemVfs vfs;
    obs::Registry registry;
    serve::ServeCore core(BenchConfig(), vfs, &registry);
    if (!core.Start().ok())
        Fatal("A13: daemon failed to start");
    serve::Request submit;
    submit.op = serve::RequestOp::kSubmit;
    const uint64_t capture = RequestId(core, submit);
    if (!core.RunNextQueuedJob())
        Fatal("A13: capture did not run");

    // -- 1. row latency burst ----------------------------------------------
    std::vector<uint64_t> row_us;
    row_us.reserve(kRowBurst);
    for (uint32_t i = 0; i < kRowBurst; ++i) {
        SubmitSweep(core, capture, {ConfigFor(i)});
        const Clock::time_point t0 = Clock::now();
        if (!core.RunNextQueuedJob())
            Fatal("A13: burst sweep did not run");
        row_us.push_back(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                Clock::now() - t0)
                .count()));
    }
    std::sort(row_us.begin(), row_us.end());
    const double row_p50 = bench::Percentile(row_us, 50);
    const double row_p99 = bench::Percentile(row_us, 99);
    report.Add("sweep_row_p50", row_p50, "us", {});
    report.Add("sweep_row_p99", row_p99, "us", {});
    table.AddRow({"row p50", Table::Fmt(row_p50, 0), "us"});
    table.AddRow({"row p99", Table::Fmt(row_p99, 0), "us"});

    // -- 2. wide-sweep throughput ------------------------------------------
    std::vector<replay::ConfigSpec> wide;
    for (uint32_t i = 0; i < kWideConfigs; ++i)
        wide.push_back(ConfigFor(i));
    const uint64_t sweep = SubmitSweep(core, capture, wide);
    const Clock::time_point wide0 = Clock::now();
    if (!core.RunNextQueuedJob())
        Fatal("A13: wide sweep did not run");
    const double wide_s =
        std::chrono::duration<double>(Clock::now() - wide0).count();

    std::vector<serve::JobInfo> jobs = core.Jobs();
    const serve::JobInfo* wide_job = FindJob(jobs, sweep);
    if (wide_job == nullptr || wide_job->outcome != "done")
        Fatal("A13: wide sweep did not finish clean");
    const std::vector<std::string> golden = wide_job->sweep_rows;
    const double rows_per_s =
        wide_s > 0.0 ? static_cast<double>(kWideConfigs) / wide_s : 0.0;
    report.Add("sweep_throughput", rows_per_s, "/s", {});
    report.Add("rows_completed",
               static_cast<double>(wide_job->configs_done), "rows", {});
    table.AddRow({"throughput", Table::Fmt(rows_per_s, 1), "rows/s"});
    table.AddRow({"rows", std::to_string(wide_job->configs_done), "rows"});
    // The core is dropped without Shutdown below, like a SIGKILL.

    // -- 3. resume from a one-row journal prefix ---------------------------
    std::string bytes;
    {
        util::StatusOr<std::unique_ptr<io::ReadableFile>> in =
            vfs.OpenRead("serve.journal");
        if (!in.ok())
            Fatal("A13: journal unreadable: ", in.status().ToString());
        char buf[4096];
        for (;;) {
            util::StatusOr<size_t> n = (*in)->Read(buf, sizeof buf);
            if (!n.ok())
                Fatal("A13: journal read: ", n.status().ToString());
            if (*n == 0)
                break;
            bytes.append(buf, *n);
        }
    }
    // Cut just past the wide sweep's first kSweepConfig frame. Frames map
    // 1:1 onto the scan's record order: [u32 len][u32 crc][payload].
    const std::vector<serve::JournalRecord> records =
        serve::ScanJournalBytes(bytes, nullptr, nullptr);
    size_t cut = 0;
    bool found = false;
    {
        size_t off = 0;
        for (const serve::JournalRecord& record : records) {
            uint32_t len = 0;
            for (int b = 0; b < 4; ++b)
                len |= static_cast<uint32_t>(static_cast<unsigned char>(
                           bytes[off + static_cast<size_t>(b)]))
                       << (8 * b);
            off += 8 + len;
            if (record.kind == serve::JournalKind::kSweepConfig &&
                record.id == sweep) {
                cut = off;
                found = true;
                break;
            }
        }
    }
    if (!found)
        Fatal("A13: no sweep row record in the journal");
    {
        util::StatusOr<std::unique_ptr<io::WritableFile>> out =
            vfs.Create("serve.journal");
        if (!out.ok() ||
            !(*out)->Write(bytes.data(), cut).ok() ||
            !(*out)->Sync().ok() || !(*out)->Close().ok())
            Fatal("A13: journal cut failed");
    }

    obs::Registry registry2;
    serve::ServeCore core2(BenchConfig(), vfs, &registry2);
    const Clock::time_point resume0 = Clock::now();
    if (!core2.Start().ok())
        Fatal("A13: recovery boot failed");
    while (core2.RunNextQueuedJob()) {
    }
    const double resume_ms =
        std::chrono::duration<double>(Clock::now() - resume0).count() *
        1000.0;
    jobs = core2.Jobs();
    const serve::JobInfo* resumed = FindJob(jobs, sweep);
    if (resumed == nullptr || resumed->outcome != "done" ||
        !resumed->resumed)
        Fatal("A13: sweep did not resume to done");
    if (resumed->sweep_rows != golden)
        Fatal("A13: resumed sweep diverged from the clean run (S5)");
    core2.Shutdown();
    report.Add("resume_wall", resume_ms, "ms", {});
    report.Add("resume_rows_rerun",
               static_cast<double>(kWideConfigs - 1), "rows", {});
    report.Add("resume_identical", 1.0, "bool", {});
    table.AddRow({"resume wall", Table::Fmt(resume_ms, 1), "ms"});
    table.AddRow({"resume re-ran", std::to_string(kWideConfigs - 1),
                  "rows"});

    // -- 4. kill-restart sweep campaign ------------------------------------
    chaos::ServeCampaignSpec spec;
    spec.campaigns = {"powercut", "enospc", "torn-rename"};
    spec.jobs = 2;
    spec.max_instructions = 2000;
    spec.buffer_bytes = 8u << 10;
    spec.sweeps = 2;
    spec.sweep_configs = 3;
    util::StatusOr<chaos::ServeCampaignResult> campaign =
        chaos::RunCampaign(spec, /*first_seed=*/1, /*seeds=*/10,
                           [](const chaos::ServeSeedResult& r) {
                               if (!r.ok())
                                   Fatal("A13: invariant violated: ",
                                         r.Summary());
                           });
    if (!campaign.ok())
        Fatal("A13: campaign failed to run: ",
              campaign.status().ToString());
    report.Add("drill_power_cuts",
               static_cast<double>(campaign->power_cuts), "cuts", {});
    report.Add("drill_sweeps_acked",
               static_cast<double>(campaign->sweeps_acked), "sweeps", {});
    report.Add("drill_sweep_rows",
               static_cast<double>(campaign->sweep_rows), "rows", {});
    report.Add("drill_partial_resumes",
               static_cast<double>(campaign->sweep_partial_resumes),
               "seeds", {});
    table.AddRow({"drill cuts/acked/rows/partial",
                  std::to_string(campaign->power_cuts) + "/" +
                      std::to_string(campaign->sweeps_acked) + "/" +
                      std::to_string(campaign->sweep_rows) + "/" +
                      std::to_string(campaign->sweep_partial_resumes),
                  ""});

    std::printf("A13: replay sweeps through the serve daemon, "
                "%u-row burst, %u-config sweep\n\n%s\n",
                kRowBurst, kWideConfigs, table.ToString().c_str());
    return 0;
}

}  // namespace
}  // namespace atum

int
main()
{
    return atum::Run();
}
