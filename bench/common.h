#ifndef ATUM_BENCH_COMMON_H_
#define ATUM_BENCH_COMMON_H_

/**
 * @file
 * Shared plumbing for the experiment harnesses: the BENCH JSON report,
 * the standard machine and a percentile.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "cpu/machine.h"
#include "util/build_info.h"
#include "util/json.h"
#include "util/logging.h"

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

/** The `p`th percentile (0-100) of an ascending sample; 0 when empty. */
inline double
Percentile(const std::vector<uint64_t>& sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    const size_t idx = static_cast<size_t>(
        p * static_cast<double>(sorted.size() - 1) / 100.0 + 0.5);
    return static_cast<double>(sorted[std::min(idx, sorted.size() - 1)]);
}

}  // namespace atum::bench

#endif  // ATUM_BENCH_COMMON_H_
