// Experiment T5: where a supervised capture's time goes.
//
// Not a paper table — this is the repo's own phase sheet: a profiled
// supervised capture split across the dispatch/translate/memory/tracer/
// drain phases, and the span tracing layer's cost, written as
// BENCH_t5_phase_breakdown.json. Machine and cache-sim speeds come from
// the repository benchmark (perfbench: untraced_mips, capture_mips,
// cache.mrec_s).

#include <algorithm>
#include <cstdio>
#include <vector>

#include "common.h"
#include "obs/spans.h"

namespace atum {
namespace {

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

int
Run()
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
    // tracing layer on vs off (min-of is robust to scheduler noise). The
    // baseline gives this ratio no band of its own, so
    // check_bench_regression.py holds it only to the default +-60% of
    // the baseline's value; the layer's 5% budget is not gated.
    double on_ms = SupervisedCaptureMs(nullptr, true);
    double off_ms = SupervisedCaptureMs(nullptr, false);
    for (int i = 0; i < 2; ++i) {
        on_ms = std::min(on_ms, SupervisedCaptureMs(nullptr, true));
        off_ms = std::min(off_ms, SupervisedCaptureMs(nullptr, false));
    }
    const double span_overhead = off_ms > 0.0 ? on_ms / off_ms : 1.0;
    report.Add("span_overhead", span_overhead, "x");

    report.Write();
    std::printf("phase breakdown: wall=%.1fms coverage=%.1f%% "
                "span-overhead=%.3fx -> BENCH_t5_phase_breakdown.json\n",
                wall_ms, 100.0 * profiler.CoverageFraction(), span_overhead);
    return 0;
}

}  // namespace
}  // namespace atum

int
main()
{
    return atum::Run();
}
