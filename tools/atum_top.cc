// atum-top: live terminal dashboard over a capture's metrics stream, or
// over a serve daemon's job table.
//
// Usage:
//   atum-top METRICS.jsonl [--interval-ms N] [--once]
//   atum-top --serve DIR   [--interval-ms N] [--once]
//   atum-top --version
//
// Default mode follows the JSON Lines file that `atum-capture
// --metrics-out` streams (schema atum-metrics-v1), re-reading it every
// --interval-ms (default 500) and repainting one compact frame: capture
// totals, throughput rates computed from the last two snapshots, and the
// drain/write latency percentiles. Runs until the stream reports a
// "final" phase or the user interrupts.
//
// --serve DIR follows DIR/serve.status.json (schema atum-serve-status-v1,
// rewritten atomically by atum-serve on every job transition): queue
// depth, per-job state, quota consumption, sweep config progress and
// outcomes. A missing or unparseable status file is TRANSIENT in this
// mode — the daemon may not have started yet, may be mid-rename, or may
// be rebooting after a crash — so follow mode renders a waiting
// placeholder and retries every tick instead of exiting; --once retries
// briefly and then exits 7 (unavailable), never 4.
//
// --once renders a single frame from the newest snapshot (no ANSI
// clearing, no waiting) — the scriptable/testable mode.
//
// Exit codes: 0 clean (final snapshot seen, --once, or SIGINT), 2 usage
// error, 3 file unreadable, 4 no parseable snapshot in metrics mode,
// 7 serve status document unavailable under --serve --once.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "io/vfs.h"
#include "util/build_info.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/signals.h"
#include "util/status.h"

namespace atum {
namespace {

volatile std::sig_atomic_t g_stop = 0;

/** Command-line mistakes exit with the usage code, not Fatal's 1. */
template <typename... Args>
[[noreturn]] void
UsageError(Args&&... args)
{
    std::fprintf(stderr, "atum-top: %s\n",
                 internal::StrCat(std::forward<Args>(args)...).c_str());
    std::exit(util::kExitUsage);
}

struct Options {
    std::string path;
    uint64_t interval_ms = 500;
    bool once = false;
    bool serve = false;  ///< path is a serve dir; follow its status file
};

Options
ParseArgs(int argc, char** argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                UsageError(arg, " requires a value");
            return argv[++i];
        };
        if (arg == "--interval-ms")
            opts.interval_ms = std::strtoull(next().c_str(), nullptr, 0);
        else if (arg == "--once")
            opts.once = true;
        else if (arg == "--serve") {
            opts.serve = true;
            opts.path = next();
        }
        else if (arg == "--version") {
            std::printf("%s\n", util::VersionString("atum-top").c_str());
            std::exit(util::kExitOk);
        }
        else if (!arg.empty() && arg[0] != '-')
            opts.path = arg;
        else
            UsageError("unknown argument: ", arg);
    }
    if (opts.path.empty())
        UsageError("usage: atum-top METRICS.jsonl | --serve DIR "
                   "[--interval-ms N] [--once]");
    return opts;
}

/** One parsed atum-metrics-v1 line, flattened to what the frame needs. */
struct Snapshot {
    uint64_t seq = 0;
    uint64_t ts_ms = 0;
    std::string phase;
    double instructions = 0;
    double records = 0;
    double buffer_fills = 0;
    double sink_bytes = 0;
    double lost_records = 0;
    double checkpoints = 0;
    double degraded = 0;
    double buffered_records = 0;
    double drain_p50 = 0;
    double drain_p99 = 0;
    double write_p50 = 0;
    double write_p99 = 0;
};

double
CounterOf(const util::JsonValue& section, const char* name)
{
    const util::JsonValue& v = section.Get(name);
    return v.kind() == util::JsonValue::Kind::kNumber ? v.AsDouble() : 0.0;
}

std::optional<Snapshot>
ParseLine(const std::string& line)
{
    util::StatusOr<util::JsonValue> doc = util::JsonValue::Parse(line);
    if (!doc.ok())
        return std::nullopt;
    const util::JsonValue& schema = doc->Get("schema");
    if (schema.kind() != util::JsonValue::Kind::kString ||
        schema.AsString() != "atum-metrics-v1")
        return std::nullopt;

    Snapshot snap;
    snap.seq = static_cast<uint64_t>(CounterOf(*doc, "seq"));
    snap.ts_ms = static_cast<uint64_t>(CounterOf(*doc, "ts_ms"));
    if (doc->Get("phase").kind() == util::JsonValue::Kind::kString)
        snap.phase = doc->Get("phase").AsString();

    const util::JsonValue& counters = doc->Get("counters");
    snap.instructions = CounterOf(counters, "cpu.instructions");
    snap.records = CounterOf(counters, "tracer.records");
    snap.buffer_fills = CounterOf(counters, "tracer.buffer_fills");
    snap.sink_bytes = CounterOf(counters, "trace.sink.bytes");
    snap.lost_records = CounterOf(counters, "tracer.lost_records");
    snap.checkpoints = CounterOf(counters, "supervisor.checkpoints");

    const util::JsonValue& gauges = doc->Get("gauges");
    snap.degraded = CounterOf(gauges, "tracer.degraded");
    snap.buffered_records = CounterOf(gauges, "tracer.buffered_records");

    const util::JsonValue& histograms = doc->Get("histograms");
    const util::JsonValue& drain = histograms.Get("tracer.drain_us");
    snap.drain_p50 = CounterOf(drain, "p50");
    snap.drain_p99 = CounterOf(drain, "p99");
    const util::JsonValue& write = histograms.Get("trace.sink.write_us");
    snap.write_p50 = CounterOf(write, "p50");
    snap.write_p99 = CounterOf(write, "p99");
    return snap;
}

/**
 * Reads every complete line of the stream and returns the last two
 * parseable snapshots (previous, newest); a torn tail line (the emitter
 * may be mid-write) is simply skipped until it grows its newline.
 */
std::vector<Snapshot>
ReadTail(std::FILE* file)
{
    std::rewind(file);
    std::vector<Snapshot> last_two;
    std::string line;
    int c;
    while ((c = std::fgetc(file)) != EOF) {
        if (c != '\n') {
            line.push_back(static_cast<char>(c));
            continue;
        }
        if (std::optional<Snapshot> snap = ParseLine(line)) {
            if (last_two.size() == 2)
                last_two.erase(last_two.begin());
            last_two.push_back(*snap);
        }
        line.clear();
    }
    std::clearerr(file);
    return last_two;
}

/** Per-second rate between two snapshots (0 when not computable). */
double
Rate(double newer, double older, uint64_t ms_newer, uint64_t ms_older)
{
    if (ms_newer <= ms_older)
        return 0.0;
    const double per_ms = (newer - older) / static_cast<double>(ms_newer -
                                                                ms_older);
    return per_ms * 1000.0;
}

void
RenderFrame(const std::vector<Snapshot>& snaps, bool ansi)
{
    const Snapshot& now = snaps.back();
    const Snapshot* prev = snaps.size() > 1 ? &snaps.front() : nullptr;

    if (ansi)
        std::printf("\033[H\033[2J");  // home + clear
    std::printf("atum-top  seq=%llu  phase=%s  ts=%llu\n",
                static_cast<unsigned long long>(now.seq), now.phase.c_str(),
                static_cast<unsigned long long>(now.ts_ms));
    std::printf("  instructions %14.0f    records %14.0f    fills %8.0f\n",
                now.instructions, now.records, now.buffer_fills);
    std::printf("  trace bytes  %14.0f    buffered records %8.0f\n",
                now.sink_bytes, now.buffered_records);
    if (prev) {
        std::printf("  rates: %.0f instr/s  %.0f records/s  %.2f fills/s  "
                    "%.2f MB/s\n",
                    Rate(now.instructions, prev->instructions, now.ts_ms,
                         prev->ts_ms),
                    Rate(now.records, prev->records, now.ts_ms, prev->ts_ms),
                    Rate(now.buffer_fills, prev->buffer_fills, now.ts_ms,
                         prev->ts_ms),
                    Rate(now.sink_bytes, prev->sink_bytes, now.ts_ms,
                         prev->ts_ms) /
                        (1024.0 * 1024.0));
    }
    std::printf("  drain p50/p99 %6.0f/%6.0f us    write p50/p99 "
                "%6.0f/%6.0f us\n",
                now.drain_p50, now.drain_p99, now.write_p50, now.write_p99);
    std::printf("  checkpoints %4.0f    lost %8.0f    degraded %s\n",
                now.checkpoints, now.lost_records,
                now.degraded != 0 ? "YES" : "no");
    std::fflush(stdout);
}

/**
 * --serve mode: render one frame of DIR/serve.status.json. The file is
 * replaced atomically by the daemon, so a whole-file read never sees a
 * torn document — at worst a missing one for the instant between unlink
 * and rename, which the follow loop just retries.
 */
bool
RenderServeFrame(const std::string& path, bool ansi, bool* rendered)
{
    util::StatusOr<std::string> body = io::ReadFile(io::RealVfs(), path);
    if (!body.ok())
        return false;

    util::StatusOr<util::JsonValue> doc = util::JsonValue::Parse(*body);
    if (!doc.ok() || doc->Get("v").AsString() != "atum-serve-status-v1")
        return false;

    if (ansi)
        std::printf("\033[H\033[2J");
    std::printf("atum-serve  draining=%s  queue=%llu  running=%llu  "
                "workers=%llu\n",
                doc->Get("draining").AsBool() ? "YES" : "no",
                static_cast<unsigned long long>(
                    doc->Get("queue_depth").AsU64()),
                static_cast<unsigned long long>(doc->Get("running").AsU64()),
                static_cast<unsigned long long>(
                    doc->Get("workers").AsU64()));
    std::printf("  %4s  %-12s %-12s %-11s %10s %12s %12s %9s  %s\n", "ID",
                "TENANT", "WORKLOAD", "STATE", "RECORDS", "BYTES",
                "INSTR", "CONFIGS", "OUTCOME");
    for (const util::JsonValue& job : doc->Get("jobs").AsArray()) {
        std::string outcome = job.Get("outcome").AsString();
        if (job.Get("resumed").AsBool())
            outcome += outcome.empty() ? "(resumed)" : " (resumed)";
        // Sweep jobs report per-config progress; captures show a dash.
        char configs[32] = "-";
        if (job.Get("kind").AsString() == "sweep") {
            const unsigned long long done =
                job.Get("configs_done").AsU64();
            const unsigned long long failed =
                job.Get("configs_failed").AsU64();
            const unsigned long long total =
                job.Get("configs_total").AsU64();
            if (failed != 0)
                std::snprintf(configs, sizeof configs, "%llu/%llu!%llu",
                              done, total, failed);
            else
                std::snprintf(configs, sizeof configs, "%llu/%llu", done,
                              total);
        }
        std::printf("  %4llu  %-12s %-12s %-11s %10llu %12llu %12llu %9s"
                    "  %s\n",
                    static_cast<unsigned long long>(job.Get("id").AsU64()),
                    job.Get("tenant").AsString().c_str(),
                    job.Get("workload").AsString().c_str(),
                    job.Get("state").AsString().c_str(),
                    static_cast<unsigned long long>(
                        job.Get("records").AsU64()),
                    static_cast<unsigned long long>(
                        job.Get("trace_bytes").AsU64()),
                    static_cast<unsigned long long>(
                        job.Get("instructions").AsU64()),
                    configs, outcome.c_str());
    }
    std::fflush(stdout);
    *rendered = true;
    return true;
}

int
RunServe(const Options& opts)
{
    const std::string path = opts.path + "/serve.status.json";
    bool rendered_any = false;
    // A missing or unparseable status file is transient here: the daemon
    // may not have started, may be in the instant between unlink and
    // rename, or may be rebooting after a kill. Follow mode waits it out
    // indefinitely (the operator is watching a screen, not a script);
    // --once gives it a bounded ~1 s grace and then reports the daemon
    // unavailable — exit 7, never the corrupt-data 4.
    uint32_t once_retries = 0;
    while (g_stop == 0) {
        const bool drew =
            RenderServeFrame(path, /*ansi=*/!opts.once, &rendered_any);
        if (opts.once) {
            if (drew)
                break;
            if (++once_retries >= 20) {
                std::fprintf(stderr,
                             "atum-top: no atum-serve-status-v1 document "
                             "in %s (daemon not running?)\n",
                             path.c_str());
                return util::kExitUnavailable;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
            continue;
        }
        if (!drew && !rendered_any) {
            std::printf("\033[H\033[2Jatum-top: waiting for %s ...\n",
                        path.c_str());
            std::fflush(stdout);
        }
        std::this_thread::sleep_for(
            std::chrono::milliseconds(opts.interval_ms));
    }
    return util::kExitOk;
}

int
Run(const Options& opts)
{
    if (opts.serve)
        return RunServe(opts);
    std::FILE* file = std::fopen(opts.path.c_str(), "rb");
    if (!file) {
        std::fprintf(stderr, "atum-top: cannot open %s\n",
                     opts.path.c_str());
        return util::kExitIo;
    }

    uint64_t rendered_seq = UINT64_MAX;
    bool rendered_any = false;
    while (g_stop == 0) {
        const std::vector<Snapshot> snaps = ReadTail(file);
        if (!snaps.empty() && (!rendered_any ||
                               snaps.back().seq != rendered_seq)) {
            RenderFrame(snaps, /*ansi=*/!opts.once);
            rendered_seq = snaps.back().seq;
            rendered_any = true;
        }
        if (opts.once || (!snaps.empty() && snaps.back().phase == "final"))
            break;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(opts.interval_ms));
    }
    std::fclose(file);

    if (!rendered_any) {
        std::fprintf(stderr, "atum-top: no atum-metrics-v1 snapshot in %s\n",
                     opts.path.c_str());
        return util::kExitCorrupt;
    }
    return util::kExitOk;
}

}  // namespace
}  // namespace atum

int
main(int argc, char** argv)
{
    atum::util::IgnoreSigpipe();
    atum::util::InstallStopSignalHandlers(&atum::g_stop);
    return atum::util::FinishStdout(atum::Run(atum::ParseArgs(argc, argv)));
}
