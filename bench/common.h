#ifndef ATUM_BENCH_COMMON_H_
#define ATUM_BENCH_COMMON_H_

/**
 * @file
 * Shared plumbing for the experiment harnesses: standard machines,
 * full-system capture, and the workload mixes each table/figure uses.
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/atum_tracer.h"
#include "core/session.h"
#include "core/user_tracer.h"
#include "cpu/machine.h"
#include "kernel/boot.h"
#include "trace/record.h"
#include "trace/sink.h"
#include "util/build_info.h"
#include "util/json.h"
#include "util/logging.h"
#include "workloads/workloads.h"

namespace atum::bench {

/**
 * Machine-readable experiment output: collects named metrics and writes
 * them as BENCH_<name>.json into ${ATUM_BENCH_DIR} (default: the current
 * directory), next to the human tables the bench prints. Schema:
 *
 *   {"bench":"t2_slowdown","version":"<git describe>","build":"Release",
 *    "schema":1,
 *    "metrics":[{"name":"slowdown","value":21.4,"unit":"x",
 *                "config":{"mix":"degree-2"}}, ...]}
 *
 * The destructor writes the file if the bench forgot to; a write failure
 * is a warning, never a bench failure (the printed tables remain the
 * source of truth).
 */
class BenchReport
{
  public:
    explicit BenchReport(std::string name) : name_(std::move(name)) {}

    ~BenchReport()
    {
        if (!written_)
            Write();
    }

    BenchReport(const BenchReport&) = delete;
    BenchReport& operator=(const BenchReport&) = delete;

    /** Records one metric row; `config` keys identify the data point. */
    void Add(const std::string& metric, double value,
             const std::string& unit,
             std::vector<std::pair<std::string, std::string>> config = {})
    {
        metrics_.push_back(
            Metric{metric, value, unit, std::move(config)});
    }

    /** Writes BENCH_<name>.json; called automatically at destruction. */
    void Write()
    {
        written_ = true;
        util::JsonWriter w;
        w.BeginObject();
        w.KeyValue("bench", name_);
        w.KeyValue("version", util::kGitDescribe);
        w.KeyValue("build", util::kBuildType);
        w.KeyValue("schema", uint64_t{1});
        w.Key("metrics");
        w.BeginArray();
        for (const Metric& m : metrics_) {
            w.BeginObject();
            w.KeyValue("name", m.name);
            w.KeyValue("value", m.value);
            w.KeyValue("unit", m.unit);
            w.Key("config");
            w.BeginObject();
            for (const auto& [key, value] : m.config)
                w.KeyValue(key, value);
            w.EndObject();
            w.EndObject();
        }
        w.EndArray();
        w.EndObject();

        const char* dir = std::getenv("ATUM_BENCH_DIR");
        const std::string path = std::string(dir && *dir ? dir : ".") +
                                 "/BENCH_" + name_ + ".json";
        std::FILE* file = std::fopen(path.c_str(), "w");
        if (!file) {
            Warn("cannot write ", path);
            return;
        }
        std::fputs(w.str().c_str(), file);
        std::fputc('\n', file);
        if (std::fclose(file) != 0)
            Warn("short write to ", path);
    }

  private:
    struct Metric {
        std::string name;
        double value;
        std::string unit;
        std::vector<std::pair<std::string, std::string>> config;
    };

    std::string name_;
    std::vector<Metric> metrics_;
    bool written_ = false;
};

/** The standard experiment machine: 4 MiB, 2-way 64-entry TB. */
inline cpu::Machine::Config
StandardMachineConfig(uint32_t timer_reload = 2000)
{
    cpu::Machine::Config config;
    config.mem_bytes = 4u << 20;
    config.timer_reload = timer_reload;
    return config;
}

/** Result of one full-system capture. */
struct Capture {
    std::vector<trace::Record> records;
    core::SessionResult session;
    std::string console;
    uint32_t page_faults = 0;
    uint32_t context_switches = 0;
};

/** Boots `programs`, traces the whole run with ATUM, returns the trace. */
inline Capture
CaptureFullSystem(std::vector<kernel::GuestProgram> programs,
                  const core::AtumConfig& tracer_config = {},
                  uint32_t timer_reload = 2000)
{
    cpu::Machine machine(StandardMachineConfig(timer_reload));
    trace::VectorSink sink;
    core::AtumTracer tracer(machine, sink, tracer_config);
    kernel::BootInfo info = kernel::BootSystem(machine, std::move(programs));
    Capture capture;
    capture.session = core::RunSupervised(
        machine, tracer, {.max_instructions = 400'000'000});
    if (!capture.session.halted)
        Fatal("capture did not run to completion");
    capture.records = sink.TakeRecords();
    capture.console = machine.console_output();
    capture.page_faults = machine.memory().Read32(
        info.layout.kdata_pa + kernel::KdataOffsets::kPfCount);
    capture.context_switches = machine.memory().Read32(
        info.layout.kdata_pa + kernel::KdataOffsets::kCsCount);
    return capture;
}

/** Same run, but through the pre-ATUM user-only software probe. */
inline Capture
CaptureUserOnly(std::vector<kernel::GuestProgram> programs,
                uint16_t target_pid = 1, uint32_t timer_reload = 2000)
{
    cpu::Machine machine(StandardMachineConfig(timer_reload));
    trace::VectorSink sink;
    core::UserTracerConfig config;
    config.target_pid = target_pid;
    core::UserOnlyTracer tracer(machine, sink, config);
    kernel::BootSystem(machine, std::move(programs));
    Capture capture;
    capture.session = core::RunBaseline(machine, tracer, 400'000'000);
    if (!capture.session.halted)
        Fatal("capture did not run to completion");
    capture.records = sink.TakeRecords();
    capture.console = machine.console_output();
    return capture;
}

/** The multiprogrammed mixes used across experiments, by degree. The
 *  default scale gives each workload a multi-page footprint so cache
 *  curves have texture beyond tiny sizes. */
inline std::vector<kernel::GuestProgram>
MixOfDegree(uint32_t degree, uint32_t scale = 2)
{
    const std::vector<std::string>& names = workloads::AllWorkloadNames();
    std::vector<kernel::GuestProgram> programs;
    for (uint32_t i = 0; i < degree; ++i)
        programs.push_back(
            workloads::MakeWorkload(names[i % names.size()], scale));
    return programs;
}

}  // namespace atum::bench

#endif  // ATUM_BENCH_COMMON_H_
