// Ablation A11: counter cross-validation over the whole workload zoo.
//
// Every workload — the six paper-style generators plus the adversarial
// zoo — is captured twice in-process: once cleanly and once against a
// sink that refuses a full drain episode (forcing the tracer through its
// degrade-and-recover path, leaving a kLoss marker in the stream). Both
// traces are then cross-checked against the machine's independent event
// counters (analysis/crosscheck.h). The run aborts on any mismatch:
// a capture whose trace disagrees with the hardware is a correctness
// bug, not a data point.
//
// Reported per workload: stream length, instructions executed, loudly
// declared loss in the degraded run, and the pass verdicts (all exact-
// match material for the regression gate), plus the banded wall-clock
// throughput of the derivation pass itself.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/crosscheck.h"
#include "common.h"
#include "core/atum_tracer.h"
#include "core/session.h"
#include "cpu/machine.h"
#include "kernel/boot.h"
#include "trace/sink.h"
#include "util/logging.h"
#include "util/table.h"
#include "workloads/workloads.h"

namespace atum {
namespace {

/** Sink that refuses the first `failures` appends, then accepts. */
class FlakySink : public trace::TraceSink
{
  public:
    explicit FlakySink(uint64_t failures) : remaining_(failures) {}

    util::Status Append(const trace::Record& record) override
    {
        if (remaining_ > 0) {
            --remaining_;
            return util::Unavailable("sink offline");
        }
        records_.push_back(record);
        return util::OkStatus();
    }

    const std::vector<trace::Record>& records() const { return records_; }

  private:
    uint64_t remaining_;
    std::vector<trace::Record> records_;
};

struct RunOutcome {
    std::vector<trace::Record> records;
    cpu::EventCounters ev;
    uint64_t lost = 0;
};

RunOutcome
Capture(const std::string& workload, trace::TraceSink& sink,
        const std::vector<trace::Record>& records_view)
{
    cpu::Machine machine(bench::StandardMachineConfig());
    core::AtumConfig config;
    config.buffer_bytes = 64u << 10;
    config.record_opcodes = true;
    core::AtumTracer tracer(machine, sink, config);
    kernel::BootSystem(machine, {workloads::MakeWorkload(workload)});
    const core::SessionResult result =
        core::RunSupervised(machine, tracer, {.max_instructions = 500'000'000});
    if (!result.halted)
        Fatal("A11: workload '", workload, "' did not halt");
    RunOutcome out;
    out.records = records_view;
    out.ev = machine.event_counters();
    out.lost = result.lost_records;
    return out;
}

int
Run()
{
    std::printf("A11: trace-vs-counter crosscheck over %zu workloads\n\n",
                workloads::AllWorkloadNames().size());

    Table table({"workload", "records", "instructions", "clean",
                 "degraded-lost", "degraded"});
    bench::BenchReport report("a11_crosscheck");
    uint64_t total_records = 0;
    double derive_seconds = 0.0;

    for (const std::string& name : workloads::AllWorkloadNames()) {
        // Clean capture: every interval must pin its counter exactly.
        trace::VectorSink clean_sink;
        const RunOutcome clean =
            Capture(name, clean_sink, clean_sink.records());

        const auto derive_start = std::chrono::steady_clock::now();
        const analysis::CrosscheckReport clean_report =
            analysis::Crosscheck(clean.records, clean.ev);
        derive_seconds += std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - derive_start)
                              .count();
        total_records += clean.records.size();
        if (!clean_report.passed())
            Fatal("A11: clean crosscheck failed for '", name, "':\n",
                  clean_report.ToString());
        if (clean.lost != 0)
            Fatal("A11: clean capture of '", name, "' lost records");

        // Degraded capture: one failed drain episode; the loss-widened
        // intervals must still cover the true counters.
        FlakySink flaky(4);
        const RunOutcome degraded = Capture(name, flaky, flaky.records());
        const analysis::CrosscheckReport degraded_report =
            analysis::Crosscheck(degraded.records, degraded.ev);
        if (!degraded_report.passed())
            Fatal("A11: degraded crosscheck failed for '", name, "':\n",
                  degraded_report.ToString());
        if (degraded.lost == 0)
            Fatal("A11: degrade drill for '", name,
                  "' lost nothing; the scenario has gone soft");

        report.Add("records", static_cast<double>(clean.records.size()),
                   "records", {{"workload", name}});
        report.Add("instructions",
                   static_cast<double>(clean.ev.instructions),
                   "records", {{"workload", name}});
        report.Add("degraded_lost", static_cast<double>(degraded.lost),
                   "records", {{"workload", name}});
        table.AddRow({name, std::to_string(clean.records.size()),
                      std::to_string(clean.ev.instructions), "pass",
                      std::to_string(degraded.lost), "pass"});
    }
    std::printf("%s\n", table.ToString().c_str());

    const double rate =
        derive_seconds > 0.0
            ? static_cast<double>(total_records) / derive_seconds
            : 0.0;
    report.Add("derive_rate", rate, "records/s", {});
    std::printf("derivation throughput: %.0f records/s over %llu records\n",
                rate, static_cast<unsigned long long>(total_records));
    std::printf("all crosschecks held\n");
    return 0;
}

}  // namespace
}  // namespace atum

int
main()
{
    return atum::Run();
}
