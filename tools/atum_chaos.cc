// atum-chaos: seeded crash campaigns against the capture stack, with a
// no-silent-loss verdict.
//
// Usage:
//   atum-chaos --campaign powercut,enospc,torn-rename [--seeds N]
//              [--first-seed S] [--workload NAME] [--scale N]
//              [--max-instructions N] [--buffer-kb N] [--chunk-records N]
//              [--checkpoint-every FILLS] [--checkpoint-keep K]
//              [--out-dir DIR] [--no-minimize] [--verbose]
//   atum-chaos --serve --campaign ... [--jobs N] [--tenants N]
//              [--sweeps [N]] [--sweep-configs N] [... shared shape flags]
//   atum-chaos --net [--campaign net-flaky,net-cut,...] [--submits N]
//              [--tenants N] [--attempts N] [... shared shape flags]
//   atum-chaos --fuzz-protocol [--seeds N] [--first-seed S]
//   atum-chaos --replay FILE [--serve|--net] [--minimize] [... shape flags]
//   atum-chaos --probe [--serve|--net] [... shape flags]
//   atum-chaos --version
//
// Each seed runs one complete disaster drill inside an in-memory
// filesystem: a supervised capture is subjected to a deterministic fault
// schedule (ENOSPC bursts, torn renames, bit-flips, power cuts), then
// recovered the way an operator would — resume from the newest loadable
// checkpoint or salvage the trace with the tolerant scanner — and the
// no-silent-loss invariants are checked (docs/CHAOS.md).
//
// With --serve the subject is the whole atum-serve daemon instead of one
// capture: each seed scripts a multi-tenant mix of submits, runs and a
// cancel into a drill-mode ServeCore, kills it mid-flight when the
// schedule's power cut fires, restarts it on the crash-consistent disk
// image, and checks the recovery invariants — no acked job lost, no job
// double-run, journal and traces clean (docs/SERVE.md).
//
// --serve --sweeps adds a replay-sweep phase to every drill: after its
// captures drain, each seed submits seed-scripted sweeps (some with a
// deliberately invalid config) and the kill can land mid-sweep, with
// some per-config rows journaled and some not. The battery then also
// enforces S4 (no journaled row lost or altered after it was reported)
// and S5 (the recovered sweep is bit-identical to a clean run). With no
// --campaign, --sweeps defaults to powercut,enospc,torn-rename.
//
// With --net the subject is the daemon's WIRE instead of its disk: each
// seed scripts a multi-tenant client that delivers tokened submits over
// a simulated hostile connection (short/failed sends, mid-frame
// disconnects, bit flips, stalls, duplicated retries, SIGKILL-restarts
// of the daemon itself), and the battery checks the network-robustness
// invariants — N1 no submit double-runs however often it is delivered,
// N2 the daemon answers garbage with a structured error and never
// wedges, N3 every ack for one idempotency token names the same job
// (docs/SERVE.md "Network failure model"). With no --campaign, --net
// defaults to all six net fault mixes.
//
// --fuzz-protocol skips the drill machinery and feeds --seeds seeded
// mutations of framed traffic (bit flips, truncations, tampered length
// prefixes, splices, raw noise) straight through FrameParser and the
// request codec, checking the codec contract: bounded buffering,
// bounded stepping, structured rejections, and accepted requests that
// survive their own round trip.
//
// A failing seed's schedule is minimized (unless --no-minimize) and, with
// --out-dir, written as DIR/failing-seed-N.schedule (failing-serve-seed-N
// and failing-net-seed-N for the other drills); such a file replays the
// identical failure forever via --replay and belongs in
// tests/chaos_corpus/ as a regression test.
//
// Exit codes follow the shared contract in util/status.h:
//   0  every seed upheld every invariant
//   1  at least one invariant violation (schedules reported/written)
//   2  usage error
//   3  I/O failure (replay file unreadable, --out-dir unwritable)

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <type_traits>
#include <vector>

#include "cli.h"
#include "chaos/campaign.h"
#include "io/chaos.h"
#include "io/vfs.h"
#include "obs/flight.h"
#include "util/logging.h"
#include "util/parse.h"
#include "util/status.h"

namespace atum {
namespace {

struct Options {
    std::vector<std::string> campaigns;
    uint64_t seeds = 50;
    uint64_t first_seed = 1;
    std::string replay;   // schedule file to replay instead of a campaign
    std::string out_dir;  // where failing schedules are written
    bool probe = false;   // print the fault-free op counts and exit
    bool serve = false;   // drill the serve daemon, not a lone capture
    bool net = false;     // drill the daemon's wire, not its disk
    bool fuzz = false;    // fuzz the frame/request codec, no drill
    bool minimize = true;
    bool verbose = false;

    chaos::CampaignSpec spec;
    chaos::ServeCampaignSpec serve_spec;
    chaos::NetCampaignSpec net_spec;
};

Options
ParseArgs(int argc, char** argv)
{
    Options opts;
    bool jobs_set = false;
    bool max_instructions_set = false;
    bool buffer_set = false;
    cli::ArgReader args("atum-chaos", argc, argv);
    while (args.Next()) {
        const std::string& arg = args.arg();
        if (arg == "--campaign")
            opts.campaigns = util::SplitCommas(args.Value());
        else if (arg == "--seeds")
            opts.seeds = args.Uint<uint64_t>();
        else if (arg == "--first-seed")
            opts.first_seed = args.Uint<uint64_t>();
        else if (arg == "--replay")
            opts.replay = args.Value();
        else if (arg == "--probe")
            opts.probe = true;
        else if (arg == "--serve")
            opts.serve = true;
        else if (arg == "--net")
            opts.net = true;
        else if (arg == "--fuzz-protocol")
            opts.fuzz = true;
        else if (arg == "--submits")
            opts.net_spec.submits = args.Uint<uint32_t>();
        else if (arg == "--attempts")
            opts.net_spec.max_attempts = args.Uint<uint32_t>();
        else if (arg == "--jobs") {
            opts.serve_spec.jobs = args.Uint<uint32_t>();
            jobs_set = true;
        }
        else if (arg == "--tenants")
            opts.serve_spec.tenants = opts.net_spec.tenants =
                args.Uint<uint32_t>();
        else if (arg == "--sweeps") {
            // Bare --sweeps enables the default sweep mix; a following
            // number sets how many sweeps each drill submits.
            opts.serve_spec.sweeps = 2;
            if (const char* count = args.Peek();
                count != nullptr && util::ParseUint(count, UINT32_MAX).ok())
                opts.serve_spec.sweeps = args.Uint<uint32_t>();
        } else if (arg == "--sweep-configs")
            opts.serve_spec.sweep_configs = args.Uint<uint32_t>();
        else if (arg == "--out-dir")
            opts.out_dir = args.Value();
        else if (arg == "--no-minimize")
            opts.minimize = false;
        else if (arg == "--minimize")
            opts.minimize = true;
        else if (arg == "--verbose")
            opts.verbose = true;
        else if (arg == "--workload")
            opts.spec.workload = opts.serve_spec.workload =
                opts.net_spec.workload = args.Value();
        else if (arg == "--scale")
            opts.spec.scale = opts.serve_spec.scale = opts.net_spec.scale =
                args.Uint<uint32_t>();
        else if (arg == "--max-instructions") {
            opts.spec.max_instructions = opts.serve_spec.max_instructions =
                opts.net_spec.max_instructions = args.Uint<uint64_t>();
            max_instructions_set = true;
        } else if (arg == "--buffer-kb") {
            opts.spec.buffer_bytes = opts.serve_spec.buffer_bytes =
                opts.net_spec.buffer_bytes =
                    args.Uint<uint32_t>(UINT32_MAX >> 10) << 10;
            buffer_set = true;
        }
        else if (arg == "--chunk-records")
            opts.spec.chunk_records = opts.serve_spec.chunk_records =
                opts.net_spec.chunk_records = args.Uint<uint32_t>();
        else if (arg == "--checkpoint-every")
            opts.spec.checkpoint_every_fills =
                opts.serve_spec.checkpoint_every_fills =
                    opts.net_spec.checkpoint_every_fills =
                        args.Uint<uint64_t>();
        else if (arg == "--checkpoint-keep")
            opts.spec.keep_checkpoints = opts.serve_spec.keep_checkpoints =
                opts.net_spec.keep_checkpoints = args.Uint<uint32_t>();
        else {
            args.Fail("unknown argument: ", arg,
                      " (see the header of tools/atum_chaos.cc)");
        }
    }
    if (opts.serve && opts.serve_spec.sweeps > 0) {
        // Sweep drills want the kill to have a real chance of landing
        // mid-sweep; the classic capture shape buries the sweep phase
        // under thousands of capture I/O ops. Lighten the captures
        // unless the caller shaped them explicitly.
        if (!jobs_set)
            opts.serve_spec.jobs = 2;
        if (!max_instructions_set)
            opts.serve_spec.max_instructions = 2000;
        if (!buffer_set)
            opts.serve_spec.buffer_bytes = 8u << 10;
    }
    if (opts.serve && opts.net)
        args.Fail("--serve and --net are mutually exclusive");
    if (opts.replay.empty() && opts.campaigns.empty() && !opts.probe &&
        !opts.fuzz) {
        // Bare --serve --sweeps and bare --net work out of the box with
        // their natural mixes; everything else still requires an
        // explicit mode.
        if (opts.serve && opts.serve_spec.sweeps > 0)
            opts.campaigns = {"powercut", "enospc", "torn-rename"};
        else if (opts.net)
            opts.campaigns = {"net-flaky", "net-cut",   "net-flip",
                              "net-stall", "net-dup", "net-kill"};
        else
            args.Fail("--campaign, --replay, --probe or "
                      "--fuzz-protocol is required");
    }
    if (!opts.replay.empty() && !opts.campaigns.empty())
        args.Fail("--campaign and --replay are mutually exclusive");
    if (opts.seeds == 0)
        args.Fail("--seeds must be at least 1");
    return opts;
}

/** Exits with the I/O code when the host filesystem fails us. */
template <typename... Args>
[[noreturn]] void
IoFatal(Args&&... args)
{
    std::fprintf(stderr, "atum-chaos: %s\n",
                 internal::StrCat(std::forward<Args>(args)...).c_str());
    std::exit(util::kExitIo);
}

void
WriteFileOrDie(const std::string& path, const std::string& body)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << body;
    out.flush();
    if (!out)
        IoFatal("cannot write ", path);
}

/** What the shared paths below call each drill. */
struct DrillNames {
    const char* campaign;  ///< totals-line and error-message label
    const char* repro;     ///< repro file name, up to the seed number
};

DrillNames
NamesOf(const chaos::CampaignSpec&)
{
    return {"campaign", "failing-seed-"};
}

DrillNames
NamesOf(const chaos::ServeCampaignSpec&)
{
    return {"serve campaign", "failing-serve-seed-"};
}

DrillNames
NamesOf(const chaos::NetCampaignSpec&)
{
    return {"net campaign", "failing-net-seed-"};
}

/** Minimizes (optionally) and reports one failing seed; writes the
 *  repro schedule under --out-dir when given. */
template <typename Spec, typename Seed>
void
ReportFailure(const Options& opts, const Spec& spec, const Seed& failure)
{
    io::ChaosSchedule repro = failure.schedule;
    if (opts.minimize) {
        util::StatusOr<io::ChaosSchedule> minimized =
            chaos::Minimize(spec, failure.schedule);
        if (minimized.ok())
            repro = *minimized;
        else
            std::fprintf(stderr, "atum-chaos: minimize failed: %s\n",
                         minimized.status().ToString().c_str());
    }
    std::fprintf(stderr, "FAIL %s\n", failure.Summary().c_str());
    obs::flight::Note("chaos.seed-failure", failure.Summary().c_str(),
                      failure.seed, 0);
    if (!opts.out_dir.empty()) {
        const std::string path = opts.out_dir + "/" + NamesOf(spec).repro +
                                 std::to_string(failure.seed) + ".schedule";
        WriteFileOrDie(path, repro.Serialize());
        std::fprintf(stderr, "  repro written to %s\n", path.c_str());
    } else {
        std::fprintf(stderr, "  repro schedule:\n%s",
                     repro.Serialize().c_str());
    }
}

/** Prints the fault-free op counts schedules aim into (for authoring). */
int
RunProbe(const Options& opts)
{
    util::StatusOr<io::OpCounts> probe =
        opts.net
            ? chaos::ProbeOpCounts(opts.net_spec, opts.first_seed)
        : opts.serve
            ? chaos::ProbeOpCounts(opts.serve_spec, opts.first_seed)
            : chaos::ProbeOpCounts(opts.spec);
    if (!probe.ok())
        IoFatal("probe failed: ", probe.status().ToString());
    std::printf("writes %llu\nsyncs %llu\nreads %llu\nrenames %llu\n"
                "unlinks %llu\ndirsyncs %llu\n"
                "sends %llu\nrecvs %llu\nrequests %llu\n",
                static_cast<unsigned long long>(probe->writes),
                static_cast<unsigned long long>(probe->syncs),
                static_cast<unsigned long long>(probe->reads),
                static_cast<unsigned long long>(probe->renames),
                static_cast<unsigned long long>(probe->unlinks),
                static_cast<unsigned long long>(probe->dirsyncs),
                static_cast<unsigned long long>(probe->sends),
                static_cast<unsigned long long>(probe->recvs),
                static_cast<unsigned long long>(probe->requests));
    return util::kExitOk;
}

/** Replays one schedule file through the selected drill (--replay). */
template <typename Spec>
int
RunReplay(const Options& opts, Spec spec)
{
    util::StatusOr<std::string> text =
        io::ReadFile(io::RealVfs(), opts.replay);
    if (!text.ok())
        IoFatal("--replay: ", text.status().ToString());
    util::StatusOr<io::ChaosSchedule> schedule =
        io::ChaosSchedule::Parse(*text);
    if (!schedule.ok())
        IoFatal(opts.replay, ": ", schedule.status().ToString());
    if (spec.campaigns.empty())
        spec.campaigns = schedule->campaigns;

    auto result = chaos::ReplaySchedule(spec, *schedule);
    if (!result.ok())
        IoFatal("replay failed to run: ", result.status().ToString());

    std::printf("%s\n", result->Summary().c_str());
    if (result->ok())
        return util::kExitOk;
    ReportFailure(opts, spec, *result);
    return util::kExitError;
}

/** The protocol codec fuzzer (--fuzz-protocol): --seeds is the input
 *  count, --first-seed picks the deterministic mutation stream. */
int
RunFuzz(const Options& opts)
{
    const chaos::FuzzReport report =
        chaos::FuzzProtocol(opts.first_seed, opts.seeds);
    std::printf("%s\n", report.Summary().c_str());
    return report.ok() ? util::kExitOk : util::kExitError;
}

/** The closing totals of a capture or serve campaign (the disk drills);
 *  the net drill's overload below prints its wire counts instead. */
template <typename Spec, typename Result>
void
PrintTotals(const Spec& spec, const Result& result)
{
    std::printf(
        "%s: %llu seeds, %llu faults fired, %llu power cuts, "
        "%llu resumes, %llu salvages, %zu failing\n",
        NamesOf(spec).campaign,
        static_cast<unsigned long long>(result.seeds_run),
        static_cast<unsigned long long>(result.faults_fired),
        static_cast<unsigned long long>(result.power_cuts),
        static_cast<unsigned long long>(result.resumes),
        static_cast<unsigned long long>(result.salvages),
        result.failures.size());
    if constexpr (std::is_same_v<Spec, chaos::ServeCampaignSpec>) {
        if (spec.sweeps > 0)
            std::printf(
                "  sweeps: %llu acked, %llu rows complete, "
                "%llu partial-journal resumes\n",
                static_cast<unsigned long long>(result.sweeps_acked),
                static_cast<unsigned long long>(result.sweep_rows),
                static_cast<unsigned long long>(
                    result.sweep_partial_resumes));
    }
}

void
PrintTotals(const chaos::NetCampaignSpec& spec,
            const chaos::NetCampaignResult& result)
{
    std::printf(
        "%s: %llu seeds, %llu faults fired, %llu kills, "
        "%llu acks (%llu dedup), %llu retries, %zu failing\n",
        NamesOf(spec).campaign,
        static_cast<unsigned long long>(result.seeds_run),
        static_cast<unsigned long long>(result.faults_fired),
        static_cast<unsigned long long>(result.kills),
        static_cast<unsigned long long>(result.acks),
        static_cast<unsigned long long>(result.dup_acks),
        static_cast<unsigned long long>(result.retries),
        result.failures.size());
}

/** A seeded campaign over the selected drill (--campaign, --serve,
 *  --net): progress lines, totals, then every failure reported. */
template <typename Spec>
int
RunSeeds(const Options& opts, Spec spec)
{
    spec.campaigns = opts.campaigns;
    uint64_t done = 0;
    const auto on_seed = [&](const auto& r) {
        ++done;
        if (opts.verbose || !r.ok())
            std::printf("%s\n", r.Summary().c_str());
        else if (done % 50 == 0)
            std::printf("... %llu/%llu seeds\n",
                        static_cast<unsigned long long>(done),
                        static_cast<unsigned long long>(opts.seeds));
    };

    auto result =
        chaos::RunCampaign(spec, opts.first_seed, opts.seeds, on_seed);
    if (!result.ok())
        IoFatal(NamesOf(spec).campaign, " failed to run: ",
                result.status().ToString());

    PrintTotals(spec, *result);
    for (const auto& failure : result->failures)
        ReportFailure(opts, spec, failure);
    if (!result->ok() && obs::flight::Armed() &&
        obs::flight::DumpNow("campaign-failure"))
        std::fprintf(stderr, "  flight recorder: %s/chaos.flight.json\n",
                     opts.out_dir.c_str());
    return result->ok() ? util::kExitOk : util::kExitError;
}

}  // namespace
}  // namespace atum

int
main(int argc, char** argv)
{
    atum::Options opts = atum::ParseArgs(argc, argv);
    if (!opts.out_dir.empty()) {
        // Failing seeds leave a post-mortem alongside the repro
        // schedules; without --out-dir there is nowhere durable to put
        // one, so the recorder stays disarmed.
        const std::string flight_path =
            opts.out_dir + "/chaos.flight.json";
        atum::obs::flight::SetDumpPath(flight_path.c_str());
        atum::obs::flight::InstallCrashHandler();
    }
    if (opts.fuzz)
        return atum::RunFuzz(opts);
    if (opts.probe)
        return atum::RunProbe(opts);
    if (!opts.replay.empty())
        return opts.net     ? atum::RunReplay(opts, opts.net_spec)
               : opts.serve ? atum::RunReplay(opts, opts.serve_spec)
                            : atum::RunReplay(opts, opts.spec);
    return opts.net     ? atum::RunSeeds(opts, opts.net_spec)
           : opts.serve ? atum::RunSeeds(opts, opts.serve_spec)
                        : atum::RunSeeds(opts, opts.spec);
}
