// atum-report: analyze a captured trace file.
//
// Usage:
//   atum-report trace.atum [--head N] [--cache SPEC] [--tlb SPEC]
//                [--sweep SPEC,SPEC,...] [--jobs N]
//                [--flush-on-switch] [--pid-tags] [--no-kernel]
//                [--working-sets] [--stack-distance]
//                [--stats] [--spans SPANS.json]
//   atum-report trace.atf --verify
//   atum-report trace.atf --salvage repaired.atf
//   atum-report trace.atf --crosscheck [--prefix]
//   atum-report --version
//
// A SPEC is one replay config (replay/config_spec.h, docs/SERVE.md):
// `kind[:key=value]...` for a cache, hierarchy or tlb, or
// SIZE_KB:BLOCK:ASSOC for a cache. --cache takes a cache spec, --tlb a
// tlb spec or a bare entry count, --sweep any mix, replayed concurrently
// (--jobs workers), one row per config in input order. --flush-on-switch,
// --pid-tags and --no-kernel apply to every cache, in any order. A bad
// spec or --cache/--tlb geometry exits 2 before the trace is read; a bad
// --sweep geometry fails its own row.
//
// --stats appends a dump of the process's metrics registry (replay.*
// counters, per-config wall-time histogram...) after the analyses — a
// quick look at what the replay engine actually did. Each stage books
// its wall time there as report.<stage>_us: load, cache, sweep, tlb,
// working_sets and stack_distance, or scan under --verify/--salvage.
// The same registry is also written as a run manifest to
// <trace>.report.json (the RUN.json schema), so the times outlive the run.
//
// --spans FILE exports the report's own span trace (load, each
// analysis, every sweep config across the worker pool) as Chrome
// trace-event JSON for Perfetto / chrome://tracing (docs/TRACING.md).
//
// Default output is the trace-characterization summary (T1-style). Each
// additional flag appends the corresponding analysis.
//
// --verify runs the tolerant container scanner and prints its damage
// report without analyzing anything; --salvage additionally writes every
// recoverable record to a fresh sealed container.
//
// --crosscheck re-derives the hardware event counters from the record
// stream and compares them against the cpu.ev.* finals in the capture's
// run manifest (<trace>.run.json); any counter outside its derived
// interval fails the run with the corrupt exit code. --prefix marks the
// trace as a salvaged prefix (lower bounds only). See docs/COUNTERS.md.
//
// --verify/--salvage and --crosscheck run instead of the analyses: an
// analysis flag beside them, --crosscheck beside a scan, or --prefix or
// --manifest without --crosscheck exits 2. --stats works in every mode.
//
// Exit codes: 0 success (--verify: file intact), 1 internal failure,
// 2 usage error, 3 input missing/unreadable, 4 input corrupt
// (--verify: damage found; --crosscheck: counter mismatch).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/crosscheck.h"
#include "analysis/parallel_profiles.h"
#include "analysis/stack_distance.h"
#include "analysis/working_set.h"
#include "cli.h"
#include "io/vfs.h"
#include "obs/metrics.h"
#include "obs/spans.h"
#include "obs/stats_emitter.h"
#include "replay/config_spec.h"
#include "replay/sweep.h"
#include "util/build_info.h"
#include "trace/container.h"
#include "trace/sink.h"
#include "trace/stats.h"
#include "util/logging.h"
#include "util/parse.h"
#include "util/signals.h"
#include "util/status.h"
#include "util/table.h"

namespace atum {
namespace {

struct Options {
    std::string path;
    uint32_t head = 0;
    std::optional<replay::SweepConfig> cache;  ///< --cache: one cache job
    std::optional<replay::SweepConfig> tlb;    ///< --tlb: one TLB job
    std::vector<replay::SweepConfig> sweep;    ///< --sweep: jobs of any kind
    cache::DriverOptions driver_options;
    uint32_t jobs = 0;  ///< replay workers; 0 = one per hardware thread
    bool working_sets = false;
    bool stack_distance = false;
    bool verify = false;        ///< scan and report damage, nothing else
    std::string salvage_out;    ///< write recovered records here
    bool stats = false;         ///< dump the metrics registry at the end
    bool crosscheck = false;    ///< validate counters against the manifest
    bool prefix = false;        ///< trace is a salvaged prefix
    std::string manifest;       ///< run manifest; default <trace>.run.json
    std::string spans_out;      ///< Chrome trace-event export ("" = off)
};

Options
ParseArgs(int argc, char** argv)
{
    Options opts;
    cli::ArgReader args("atum-report", argc, argv);
    const auto spec = [&args](const std::string& text,
                              std::string_view only_kind = {}) {
        util::StatusOr<replay::ConfigSpec> parsed =
            replay::ParseConfigSpecText(text, only_kind);
        if (!parsed.ok())
            args.Fail(args.arg(), " ", parsed.status().message());
        return *parsed;
    };
    std::optional<replay::ConfigSpec> cache_spec, tlb_spec;
    std::vector<replay::ConfigSpec> sweep_specs;
    bool pid_tags = false;
    // The analysis flags: the scan and crosscheck modes run none of them.
    static constexpr std::string_view kAnalysisFlags[] = {
        "--head",       "--cache",           "--sweep",
        "--jobs",       "--flush-on-switch", "--pid-tags",
        "--no-kernel",  "--tlb",             "--working-sets",
        "--stack-distance"};
    std::string analysis_flag;
    while (args.Next()) {
        const std::string& arg = args.arg();
        for (std::string_view flag : kAnalysisFlags) {
            if (arg == flag)
                analysis_flag = arg;
        }
        if (arg == "--head")
            opts.head = args.Uint<uint32_t>();
        else if (arg == "--cache")
            cache_spec = spec(args.Value(), "cache");
        else if (arg == "--sweep") {
            sweep_specs.clear();
            for (const std::string& text : util::SplitCommas(args.Value()))
                sweep_specs.push_back(spec(text));
        } else if (arg == "--jobs")
            opts.jobs = args.Uint<uint32_t>();
        else if (arg == "--flush-on-switch")
            opts.driver_options.flush_on_switch = true;
        else if (arg == "--pid-tags")
            pid_tags = true;
        else if (arg == "--no-kernel")
            opts.driver_options.include_kernel = false;
        else if (arg == "--tlb")
            tlb_spec = spec(args.Value(), "tlb");
        else if (arg == "--working-sets")
            opts.working_sets = true;
        else if (arg == "--stack-distance")
            opts.stack_distance = true;
        else if (arg == "--verify")
            opts.verify = true;
        else if (arg == "--salvage")
            opts.salvage_out = args.Value();
        else if (arg == "--stats")
            opts.stats = true;
        else if (arg == "--crosscheck")
            opts.crosscheck = true;
        else if (arg == "--prefix")
            opts.prefix = true;
        else if (arg == "--manifest")
            opts.manifest = args.Value();
        else if (arg == "--spans")
            opts.spans_out = args.Value();
        else if (!arg.empty() && arg[0] != '-')
            opts.path = arg;
        else
            args.Fail("unknown argument: ", arg);
    }
    if (opts.path.empty())
        args.Fail("usage: atum-report TRACE [options]");
    // A flag the chosen mode would not act on is a usage error, not a
    // silent no-op.
    const bool scan = opts.verify || !opts.salvage_out.empty();
    const char* mode = scan ? "--verify/--salvage" : "--crosscheck";
    if ((scan || opts.crosscheck) && !analysis_flag.empty())
        args.Fail(analysis_flag, " does not apply with ", mode);
    if (scan && opts.crosscheck)
        args.Fail("--crosscheck does not apply with --verify/--salvage");
    if (!opts.crosscheck && opts.prefix)
        args.Fail("--prefix applies only with --crosscheck");
    if (!opts.crosscheck && !opts.manifest.empty())
        args.Fail("--manifest applies only with --crosscheck");

    // The model flags apply to every cache job, whatever the flag order.
    const auto to_job = [&](const replay::ConfigSpec& s) {
        replay::SweepConfig job = s.ToReplayConfig();
        if (job.kind != replay::SweepConfig::Kind::kCache)
            return job;
        job.cache.pid_tags = pid_tags;
        return replay::MakeCacheJob(job.cache, opts.driver_options, s.label);
    };
    for (const replay::ConfigSpec& s : sweep_specs)
        opts.sweep.push_back(to_job(s));
    // A single model's bad geometry is a usage error before the trace is
    // read; a sweep isolates it in its row instead.
    const auto checked = [&](const char* flag, const replay::ConfigSpec& s) {
        replay::SweepConfig job = to_job(s);
        if (util::Status status = replay::ValidateJob(job); !status.ok())
            args.Fail(flag, " ", status.message());
        return job;
    };
    if (cache_spec)
        opts.cache = checked("--cache", *cache_spec);
    if (tlb_spec)
        opts.tlb = checked("--tlb", *tlb_spec);
    return opts;
}

/** Books the scope's wall time as histogram `name` (microseconds). */
class StageTimer
{
  public:
    explicit StageTimer(const char* name)
        : name_(name), start_(std::chrono::steady_clock::now())
    {
    }
    ~StageTimer()
    {
        obs::Registry::Global().GetHistogram(name_).Add(
            static_cast<uint64_t>(
                std::chrono::duration_cast<std::chrono::microseconds>(
                    std::chrono::steady_clock::now() - start_)
                    .count()));
    }

    StageTimer(const StageTimer&) = delete;
    StageTimer& operator=(const StageTimer&) = delete;

  private:
    const char* name_;
    std::chrono::steady_clock::time_point start_;
};

void
PrintStats()
{
    std::printf("%s", obs::Registry::Global().Snapshot().ToText().c_str());
}

const char*
TypeName(trace::RecordType type)
{
    static const char* const kNames[] = {"ifetch",  "read",   "write",
                                         "pte",     "ctxsw",  "tlbmiss",
                                         "except",  "opcode", "loss",
                                         "dma"};
    return kNames[static_cast<unsigned>(type)];
}

/** `--crosscheck`: validate the trace against the run manifest. */
int
RunCrosscheck(const Options& opts, io::Vfs& vfs)
{
    const std::string manifest_path =
        opts.manifest.empty() ? opts.path + ".run.json" : opts.manifest;
    util::StatusOr<cpu::EventCounters> actual =
        analysis::ReadCountersFromManifest(manifest_path, vfs);
    if (!actual.ok()) {
        std::fprintf(stderr, "atum-report: %s\n",
                     actual.status().ToString().c_str());
        return util::ExitCodeFor(actual.status());
    }
    util::StatusOr<std::vector<trace::Record>> loaded =
        trace::LoadTrace(opts.path, vfs);
    if (!loaded.ok()) {
        std::fprintf(stderr, "atum-report: %s\n",
                     loaded.status().ToString().c_str());
        return util::ExitCodeFor(loaded.status());
    }
    analysis::CrosscheckOptions cc_opts;
    cc_opts.prefix = opts.prefix;
    const analysis::CrosscheckReport report =
        analysis::Crosscheck(*loaded, *actual, cc_opts);
    std::printf("%s", report.ToString().c_str());
    return report.passed() ? util::kExitOk : util::kExitCorrupt;
}

/** `--verify` / `--salvage`: tolerant scan, report, optional rewrite. */
int
RunSalvage(const Options& opts, io::Vfs& vfs)
{
    auto source = trace::FileByteSource::Open(opts.path, vfs);
    if (!source.ok()) {
        std::fprintf(stderr, "atum-report: %s\n",
                     source.status().ToString().c_str());
        return util::ExitCodeFor(source.status());
    }
    std::vector<trace::Record> records;
    const trace::ScanReport report = [&] {
        StageTimer timer("report.scan_us");
        return trace::ScanTrace(
            **source, opts.salvage_out.empty() ? nullptr : &records);
    }();
    std::printf("%s", report.ToString().c_str());

    if (!report.recognized)
        return util::kExitCorrupt;

    if (!opts.salvage_out.empty()) {
        auto out = trace::FileByteSink::Open(opts.salvage_out, vfs);
        if (!out.ok()) {
            std::fprintf(stderr, "atum-report: %s\n",
                         out.status().ToString().c_str());
            return util::ExitCodeFor(out.status());
        }
        util::Status status = trace::WriteAtf2(**out, records);
        if (status.ok())
            status = (*out)->Close();
        if (!status.ok()) {
            std::fprintf(stderr, "atum-report: salvage write failed: %s\n",
                         status.ToString().c_str());
            return util::ExitCodeFor(status);
        }
        std::printf("salvaged %zu records -> %s\n", records.size(),
                    opts.salvage_out.c_str());
        return util::kExitOk;
    }
    return report.intact() ? util::kExitOk : util::kExitCorrupt;
}

int
Run(const Options& opts, io::Vfs& vfs)
{
    if (opts.verify || !opts.salvage_out.empty() || opts.crosscheck) {
        const int code = opts.crosscheck ? RunCrosscheck(opts, vfs)
                                         : RunSalvage(opts, vfs);
        if (opts.stats)
            PrintStats();
        return code;
    }

    util::StatusOr<std::vector<trace::Record>> loaded = [&] {
        StageTimer timer("report.load_us");
        ATUM_SPAN_NAMED(load_span, "report", "load");
        load_span.set_detail(opts.path);
        return trace::LoadTrace(opts.path, vfs);
    }();
    if (!loaded.ok()) {
        std::fprintf(stderr, "atum-report: %s\n",
                     loaded.status().ToString().c_str());
        return util::ExitCodeFor(loaded.status());
    }
    const std::vector<trace::Record>& records = *loaded;
    obs::Registry::Global().GetCounter("report.records").Set(records.size());

    if (opts.head > 0) {
        for (size_t i = 0; i < opts.head && i < records.size(); ++i) {
            const trace::Record& r = records[i];
            std::printf("%8zu  %-7s %c 0x%08x size=%u info=%u\n", i,
                        TypeName(r.type), r.kernel() ? 'K' : 'U', r.addr,
                        r.size(), r.info);
        }
        std::printf("\n");
    }

    trace::TraceStats stats;
    {
        ATUM_SPAN("report", "characterize");
        for (const auto& r : records)
            stats.Accumulate(r);
    }
    std::printf("%s\n", stats.ToString().c_str());

    // --cache and --tlb passed ValidateJob, so a failed replay is internal.
    const auto replay_one = [&records](const replay::SweepConfig& job) {
        replay::SweepResult result = replay::ReplayOne(records, job);
        if (!result.status.ok())
            Fatal(job.label, ": ", result.status.ToString());
        return result;
    };

    if (opts.cache) {
        ATUM_SPAN("report", "cache");
        StageTimer timer("report.cache_us");
        const cache::CacheStats stats = replay_one(*opts.cache).cache_stats;
        // The line names the resolved way count ("1024w", not "full").
        cache::CacheConfig shown = opts.cache->cache;
        if (shown.assoc == 0)
            shown.assoc = shown.size_bytes / shown.block_bytes;
        std::printf("cache %s: accesses=%llu miss-rate=%.3f%% "
                    "writebacks=%llu\n",
                    shown.ToString().c_str(),
                    static_cast<unsigned long long>(stats.accesses),
                    100.0 * stats.MissRate(),
                    static_cast<unsigned long long>(stats.writebacks));
    }

    if (!opts.sweep.empty()) {
        StageTimer timer("report.sweep_us");
        const replay::SweepRunner runner(opts.jobs);
        const std::vector<replay::SweepResult> results =
            runner.Run(records, opts.sweep);
        std::printf("sweep: %zu configs\n", results.size());
        Table table({"cache", "accesses", "miss%", "writebacks", "status"});
        for (const replay::SweepResult& r : results) {
            const bool is_cache = r.kind == replay::SweepConfig::Kind::kCache;
            table.AddRow({
                r.label,
                std::to_string(r.Accesses()),
                Table::Fmt(100.0 * r.MissRate(), 3),
                is_cache ? std::to_string(r.cache_stats.writebacks) : "-",
                r.status.ok() ? "ok" : r.status.ToString(),
            });
        }
        std::printf("%s\n", table.ToString().c_str());
    }

    if (opts.tlb) {
        ATUM_SPAN("report", "tlb");
        StageTimer timer("report.tlb_us");
        const tlbsim::TlbSimStats stats = replay_one(*opts.tlb).tlb_stats;
        const tlbsim::TlbSimConfig& tlb = opts.tlb->tlb;
        std::string geometry = std::to_string(tlb.entries) + " entries";
        if (tlb.ways != 0)
            geometry += ", " + std::to_string(tlb.ways) + "-way";
        std::printf("tlb %s: accesses=%llu miss-rate=%.3f%%\n",
                    geometry.c_str(),
                    static_cast<unsigned long long>(stats.accesses),
                    100.0 * stats.MissRate());
    }

    if (opts.working_sets) {
        ATUM_SPAN("report", "working-sets");
        StageTimer timer("report.working_sets_us");
        analysis::WorkingSetAnalyzer ws({100, 1000, 10000, 100000});
        for (const auto& r : records)
            ws.Feed(r);
        Table table({"window(refs)", "avg-ws(pages)"});
        for (size_t i = 0; i < ws.windows().size(); ++i) {
            table.AddRow({std::to_string(ws.windows()[i]),
                          Table::Fmt(ws.AverageWorkingSet(i), 1)});
        }
        std::printf("%s", table.ToString().c_str());
        std::printf("distinct pages: %llu\n\n",
                    static_cast<unsigned long long>(ws.distinct_pages()));
    }

    if (opts.stack_distance) {
        ATUM_SPAN("report", "stack-distance");
        StageTimer timer("report.stack_distance_us");
        analysis::StackDistanceAnalyzer sd(4);
        for (const auto& r : records)
            sd.Feed(r);
        Table table({"fully-assoc LRU", "miss-rate%"});
        for (uint32_t kib : {1u, 4u, 16u, 64u, 256u}) {
            table.AddRow({std::to_string(kib) + "K",
                          Table::Fmt(100.0 * sd.MissRateForCapacity(
                                                 (kib << 10) >> 4),
                                     3)});
        }
        std::printf("%s\n", table.ToString().c_str());

        // Per-process locality, one worker per process substream.
        const auto profiles = analysis::PerProcessStackProfiles(
            records, opts.driver_options.include_kernel, opts.jobs);
        Table per_pid({"pid", "refs", "blocks", "1K-miss%", "16K-miss%"});
        for (const analysis::ProcessProfile& p : profiles) {
            per_pid.AddRow({
                p.pid == 0 ? "kernel" : std::to_string(p.pid),
                std::to_string(p.accesses),
                std::to_string(p.distinct_blocks),
                Table::Fmt(100.0 * p.MissRateAt(0), 3),
                Table::Fmt(100.0 * p.MissRateAt(1), 3),
            });
        }
        std::printf("%s\n", per_pid.ToString().c_str());
    }

    if (opts.stats)
        PrintStats();
    return 0;
}

/** The analyses `opts` asked for, as the manifest's config block. */
std::vector<std::pair<std::string, std::string>>
ManifestConfig(const Options& opts)
{
    std::vector<std::pair<std::string, std::string>> config;
    if (opts.verify)
        config.emplace_back("verify", "1");
    if (!opts.salvage_out.empty())
        config.emplace_back("salvage", opts.salvage_out);
    if (opts.crosscheck)
        config.emplace_back("crosscheck", "1");
    if (opts.cache)
        config.emplace_back("cache", opts.cache->label);
    std::string sweep;
    for (const replay::SweepConfig& job : opts.sweep) {
        if (!sweep.empty())
            sweep += ',';
        sweep += job.label;
    }
    if (!sweep.empty())
        config.emplace_back("sweep", sweep);
    if (opts.tlb) {
        config.emplace_back("tlb_entries",
                            std::to_string(opts.tlb->tlb.entries));
        if (opts.tlb->tlb.ways != 0)
            config.emplace_back("tlb_ways",
                                std::to_string(opts.tlb->tlb.ways));
    }
    if (opts.working_sets)
        config.emplace_back("working_sets", "1");
    if (opts.stack_distance)
        config.emplace_back("stack_distance", "1");
    config.emplace_back("jobs", std::to_string(opts.jobs));
    return config;
}

/** Writes <trace>.report.json: the --stats registry, stage times
 *  included, as a run manifest. A failure is a warning only. */
void
WriteReportManifest(const Options& opts, uint64_t started_ms, int code,
                    io::Vfs& vfs)
{
    obs::RunManifest manifest;
    manifest.tool = "atum-report";
    manifest.version = util::kGitDescribe;
    manifest.build_type = util::kBuildType;
    manifest.trace_path = opts.path;
    manifest.started_ms = started_ms;
    manifest.ended_ms = obs::WallClockMs();
    manifest.exit_code = code;
    manifest.stop_cause = "completed";
    manifest.config = ManifestConfig(opts);
    manifest.finals = obs::Registry::Global().Snapshot();
    const util::Status status =
        obs::WriteRunManifest(opts.path + ".report.json", manifest, vfs);
    if (!status.ok())
        Warn("writing report manifest: ", status.ToString());
}

/** Runs the report, writes its manifest if --stats asked, then exports
 *  its span trace if --spans asked. */
int
RunAndExport(const Options& opts, io::Vfs& vfs)
{
    const uint64_t started_ms = obs::WallClockMs();
    const int code = Run(opts, vfs);
    if (opts.stats)
        WriteReportManifest(opts, started_ms, code, vfs);
    if (!opts.spans_out.empty()) {
        const util::Status status =
            obs::WriteSpansFile(opts.spans_out, "atum-report", vfs);
        if (status.ok())
            std::printf("spans %s\n", opts.spans_out.c_str());
        else
            Warn("writing span trace: ", status.ToString());
    }
    return code;
}

}  // namespace
}  // namespace atum

int
main(int argc, char** argv)
{
    // Reports are made to be piped (`atum-report t.atum | head`): ignore
    // SIGPIPE and treat a broken pipe at exit as success.
    atum::util::IgnoreSigpipe();
    return atum::util::FinishStdout(
        atum::RunAndExport(atum::ParseArgs(argc, argv),
                           atum::io::RealVfs()));
}
