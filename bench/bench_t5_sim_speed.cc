// Experiment T5: engineering throughput numbers (google-benchmark).
//
// Not a paper table — this is the repo's own speed sheet: how fast the
// microcoded machine executes guest instructions with and without the
// ATUM patches installed, and how fast the trace-driven cache model
// consumes records.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "analysis/compare.h"
#include "common.h"
#include "obs/spans.h"

namespace atum {
namespace {

void
BM_MachineUntraced(benchmark::State& state)
{
    uint64_t instructions = 0;
    for (auto _ : state) {
        cpu::Machine machine(bench::StandardMachineConfig());
        kernel::BootSystem(machine, {workloads::MakeHash(1500)});
        const auto r = core::RunUntraced(machine, 400'000'000);
        instructions += r.instructions;
    }
    state.counters["instr/s"] = benchmark::Counter(
        static_cast<double>(instructions), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MachineUntraced)->Unit(benchmark::kMillisecond);

void
BM_MachineTraced(benchmark::State& state)
{
    uint64_t instructions = 0;
    for (auto _ : state) {
        cpu::Machine machine(bench::StandardMachineConfig());
        trace::CountingSink sink;
        core::AtumTracer tracer(machine, sink);
        kernel::BootSystem(machine, {workloads::MakeHash(1500)});
        const auto r = core::RunSupervised(
            machine, tracer, {.max_instructions = 400'000'000});
        instructions += r.instructions;
    }
    state.counters["instr/s"] = benchmark::Counter(
        static_cast<double>(instructions), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MachineTraced)->Unit(benchmark::kMillisecond);

void
BM_CacheSimulation(benchmark::State& state)
{
    static const std::vector<trace::Record>& records = [] {
        return *new std::vector<trace::Record>(
            bench::CaptureFullSystem(bench::MixOfDegree(2)).records);
    }();
    uint64_t fed = 0;
    for (auto _ : state) {
        cache::Cache c({.size_bytes = 64u << 10,
                        .block_bytes = 16,
                        .assoc = static_cast<uint32_t>(state.range(0))});
        cache::TraceCacheDriver driver(c, {});
        for (const auto& r : records)
            driver.Feed(r);
        fed += driver.fed();
        benchmark::DoNotOptimize(c.stats().misses);
    }
    state.counters["records/s"] = benchmark::Counter(
        static_cast<double>(fed), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CacheSimulation)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void
BM_TraceCaptureOnly(benchmark::State& state)
{
    // Capture cost alone: boot + traced run + drain, per guest instruction.
    uint64_t records = 0;
    for (auto _ : state) {
        const auto cap = bench::CaptureFullSystem(
            {workloads::MakeGrep(4096, 2)});
        records += cap.records.size();
    }
    state.counters["records/s"] = benchmark::Counter(
        static_cast<double>(records), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TraceCaptureOnly)->Unit(benchmark::kMillisecond);

/**
 * One supervised hash capture; returns wall milliseconds. The profiler
 * (may be null) attributes the run across the dispatch/translate/
 * memory/tracer/drain phases; `spans` toggles the span tracing layer so
 * the enabled-vs-disabled ratio measures its hot-path cost.
 */
double
SupervisedCaptureMs(obs::PhaseProfiler* profiler, bool spans)
{
    obs::SetSpansEnabled(spans);
    cpu::Machine machine(bench::StandardMachineConfig());
    trace::CountingSink sink;
    core::AtumTracer tracer(machine, sink);
    kernel::BootSystem(machine, {workloads::MakeHash(1500)});
    core::SupervisorOptions sup;
    sup.max_instructions = 400'000'000;
    sup.profiler = profiler;
    const uint64_t t0 = obs::MonotonicNowNs();
    const core::SessionResult r = core::RunSupervised(machine, tracer, sup);
    const uint64_t wall_ns = obs::MonotonicNowNs() - t0;
    if (!r.halted)
        Fatal("phase-breakdown capture did not run to completion");
    obs::SetSpansEnabled(true);
    return static_cast<double>(wall_ns) / 1e6;
}

/**
 * The dispatch-vs-drain speed sheet: a profiled supervised capture's
 * per-phase split plus the span layer's measured overhead, written as
 * BENCH_t5_phase_breakdown.json next to the google-benchmark report.
 */
void
EmitPhaseBreakdown()
{
    bench::BenchReport report("t5_phase_breakdown");

    obs::PhaseProfiler profiler;
    const double wall_ms = SupervisedCaptureMs(&profiler, true);
    report.Add("wall_ms", wall_ms, "ms");

    const std::vector<obs::PhaseProfiler::Row> rows = profiler.Breakdown();
    const double run_ms =
        static_cast<double>(profiler.run_ns()) / 1e6;
    for (const obs::PhaseProfiler::Row& row : rows) {
        if (row.ns == 0)
            continue;  // unexercised here (checkpoint/io): a zero
                       // baseline makes any later drift look infinite
        const double pct =
            run_ms > 0.0
                ? 100.0 * (static_cast<double>(row.ns) / 1e6) / run_ms
                : 0.0;
        report.Add("phase_pct", pct, "pct", {{"phase", row.name}});
    }
    report.Add("coverage_pct", 100.0 * profiler.CoverageFraction(), "pct");

    // Span-layer cost: the best of three supervised captures with the
    // tracing layer on vs off (min-of is robust to scheduler noise; the
    // ISSUE budget for the layer is <= 5%, i.e. a ratio of 1.05).
    double on_ms = SupervisedCaptureMs(nullptr, true);
    double off_ms = SupervisedCaptureMs(nullptr, false);
    for (int i = 0; i < 2; ++i) {
        on_ms = std::min(on_ms, SupervisedCaptureMs(nullptr, true));
        off_ms = std::min(off_ms, SupervisedCaptureMs(nullptr, false));
    }
    report.Add("span_overhead", off_ms > 0.0 ? on_ms / off_ms : 1.0, "x");

    report.Write();
    std::printf("phase breakdown: wall=%.1fms coverage=%.1f%% "
                "span-overhead=%.3fx -> BENCH_t5_phase_breakdown.json\n",
                wall_ms, 100.0 * profiler.CoverageFraction(),
                off_ms > 0.0 ? on_ms / off_ms : 1.0);
}

}  // namespace
}  // namespace atum

// Custom main: console output as usual, plus the full google-benchmark
// JSON report written to ${ATUM_BENCH_DIR:-.}/BENCH_t5_sim_speed.json so
// the speed sheet lands next to the other BENCH_*.json files. An explicit
// --benchmark_out on the command line wins over the default.
int
main(int argc, char** argv)
{
    const char* dir = std::getenv("ATUM_BENCH_DIR");
    const std::string out_flag = "--benchmark_out=" +
                                 std::string(dir && *dir ? dir : ".") +
                                 "/BENCH_t5_sim_speed.json";
    std::vector<char*> args(argv, argv + argc);
    bool has_out = false;
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]).rfind("--benchmark_out=", 0) == 0)
            has_out = true;
    }
    std::string flag_storage = out_flag;
    std::string format_storage = "--benchmark_out_format=json";
    if (!has_out) {
        args.push_back(flag_storage.data());
        args.push_back(format_storage.data());
    }
    int args_count = static_cast<int>(args.size());
    benchmark::Initialize(&args_count, args.data());
    if (benchmark::ReportUnrecognizedArguments(args_count, args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    atum::EmitPhaseBreakdown();
    return 0;
}
