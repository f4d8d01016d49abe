#include "replay/sweep.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <utility>

#include "obs/metrics.h"
#include "obs/spans.h"
#include "replay/thread_pool.h"

namespace atum::replay {

SweepConfig
MakeCacheJob(const cache::CacheConfig& cache,
             const cache::DriverOptions& driver, std::string label)
{
    SweepConfig job;
    job.kind = SweepConfig::Kind::kCache;
    job.cache = cache;
    job.driver = driver;
    job.label = label.empty() ? cache.ToString() : std::move(label);
    return job;
}

SweepConfig
MakeHierarchyJob(const cache::HierarchyConfig& hierarchy, std::string label)
{
    SweepConfig job;
    job.kind = SweepConfig::Kind::kHierarchy;
    job.hierarchy = hierarchy;
    job.label = label.empty() ? "L2 " + hierarchy.l2.ToString()
                              : std::move(label);
    return job;
}

SweepConfig
MakeTlbJob(const tlbsim::TlbSimConfig& tlb, std::string label)
{
    SweepConfig job;
    job.kind = SweepConfig::Kind::kTlb;
    job.tlb = tlb;
    job.label = label.empty()
                    ? "tlb " + std::to_string(tlb.entries) + "e"
                    : std::move(label);
    return job;
}

uint64_t
SweepResult::Accesses() const
{
    switch (kind) {
      case SweepConfig::Kind::kCache:
        return cache_stats.accesses;
      case SweepConfig::Kind::kHierarchy:
        return hierarchy_accesses;
      case SweepConfig::Kind::kTlb:
        return tlb_stats.accesses;
    }
    return 0;
}

double
SweepResult::MissRate() const
{
    switch (kind) {
      case SweepConfig::Kind::kCache:
        return cache_stats.MissRate();
      case SweepConfig::Kind::kHierarchy:
        return global_miss_rate;
      case SweepConfig::Kind::kTlb:
        return tlb_stats.MissRate();
    }
    return 0.0;
}

util::Status
ValidateJob(const SweepConfig& config)
{
    switch (config.kind) {
      case SweepConfig::Kind::kCache:
        return cache::ValidateConfig(config.cache);
      case SweepConfig::Kind::kHierarchy:
        if (util::Status s = cache::ValidateConfig(config.hierarchy.l1i);
            !s.ok())
            return util::InvalidArgument("l1i: ", s.message());
        if (util::Status s = cache::ValidateConfig(config.hierarchy.l1d);
            !s.ok())
            return util::InvalidArgument("l1d: ", s.message());
        if (util::Status s = cache::ValidateConfig(config.hierarchy.l2);
            !s.ok())
            return util::InvalidArgument("l2: ", s.message());
        return util::OkStatus();
      case SweepConfig::Kind::kTlb:
        return tlbsim::ValidateConfig(config.tlb);
    }
    return util::InvalidArgument("unknown sweep job kind");
}

namespace {

/** Records between two checks of a ReplayControl (a power of two). */
constexpr uint64_t kSliceRecords = 4096;

/**
 * Watches the slice-boundary stop conditions for one config's replay.
 * The deadline is sampled lazily: the clock is only read at slice
 * boundaries, and only when a deadline is set at all, so the
 * control-free replay pays nothing but a masked counter test.
 */
class ReplayGovernor
{
  public:
    explicit ReplayGovernor(const ReplayControl& control)
        : control_(control),
          armed_(control.stop_flag != nullptr || control.deadline_ms > 0)
    {
        if (control_.deadline_ms > 0)
            deadline_ = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(control_.deadline_ms);
    }

    /** True when the replay must stop; Verdict() then says why. */
    bool ShouldStop(uint64_t index)
    {
        if (!armed_ || (index & (kSliceRecords - 1)) != 0)
            return false;
        if (control_.stop_flag != nullptr && *control_.stop_flag != 0) {
            verdict_ = util::Interrupted("replay stopped at record ",
                                         index, " of a sweep config");
            return true;
        }
        if (control_.deadline_ms > 0 &&
            std::chrono::steady_clock::now() >= deadline_) {
            verdict_ = util::Unavailable("replay timed out after ",
                                         control_.deadline_ms,
                                         " ms at record ", index);
            return true;
        }
        return false;
    }

    const util::Status& Verdict() const { return verdict_; }

  private:
    const ReplayControl& control_;
    const bool armed_;
    std::chrono::steady_clock::time_point deadline_;
    util::Status verdict_;
};

/** The replay body; runs after ValidateJob has passed. Returns non-OK
 *  (leaving the result to be zeroed by the caller) when the control
 *  stopped the replay early. */
util::Status
ReplayOneChecked(const std::vector<trace::Record>& records,
                 const SweepConfig& config, const ReplayControl& control,
                 SweepResult& result)
{
    ReplayGovernor governor(control);
    switch (config.kind) {
      case SweepConfig::Kind::kCache: {
        cache::Cache c(config.cache);
        cache::TraceCacheDriver driver(c, config.driver);
        for (uint64_t i = 0; i < records.size(); i += kSliceRecords) {
            if (governor.ShouldStop(i))
                return governor.Verdict();
            driver.FeedSlice(records.data() + i,
                             std::min<uint64_t>(kSliceRecords,
                                                records.size() - i));
        }
        result.cache_stats = c.stats();
        result.fed = driver.fed();
        result.filtered = driver.filtered();
        break;
      }
      case SweepConfig::Kind::kHierarchy: {
        cache::CacheHierarchy h(config.hierarchy);
        for (uint64_t i = 0; i < records.size(); ++i) {
            if (governor.ShouldStop(i))
                return governor.Verdict();
            h.Feed(records[i]);
        }
        result.l1i_stats = h.l1i().stats();
        result.l1d_stats = h.l1d().stats();
        result.l2_stats = h.l2().stats();
        result.hierarchy_accesses = h.accesses();
        result.memory_accesses = h.memory_accesses();
        result.global_miss_rate = h.GlobalMissRate();
        result.amat = h.Amat();
        break;
      }
      case SweepConfig::Kind::kTlb: {
        tlbsim::TlbSim sim(config.tlb);
        for (uint64_t i = 0; i < records.size(); ++i) {
            if (governor.ShouldStop(i))
                return governor.Verdict();
            sim.Feed(records[i]);
        }
        result.tlb_stats = sim.stats();
        break;
      }
    }
    return util::OkStatus();
}

/** A row with zeroed statistics: the job's kind and label, and `status`.
 *  A replay that did not finish reports one, so partial simulator state
 *  never reads as a finished row. */
SweepResult
EmptyRow(const SweepConfig& config, util::Status status)
{
    SweepResult row;
    row.kind = config.kind;
    row.label = config.label;
    row.status = std::move(status);
    return row;
}

}  // namespace

SweepResult
ReplayOne(const std::vector<trace::Record>& records,
          const SweepConfig& config)
{
    return ReplayOne(records, config, ReplayControl{});
}

SweepResult
ReplayOne(const std::vector<trace::Record>& records,
          const SweepConfig& config, const ReplayControl& control)
{
    // Validate before constructing: the simulators Fatal on a bad
    // geometry, and one bad row must not take down a 100-config sweep.
    SweepResult result = EmptyRow(config, ValidateJob(config));
    if (!result.status.ok())
        return result;
    try {
        util::Status ran = ReplayOneChecked(records, config, control,
                                            result);
        if (!ran.ok())
            return EmptyRow(config, std::move(ran));
    } catch (const std::exception& e) {
        return EmptyRow(config,
                        util::InternalError("replay failed: ", e.what()));
    }
    return result;
}

std::vector<SweepResult>
SweepRunner::Run(const std::vector<trace::Record>& records,
                 const std::vector<SweepConfig>& configs) const
{
    std::vector<SweepResult> results(configs.size());
    if (configs.empty())
        return results;

    unsigned jobs = jobs_;
    if (jobs == 0)
        jobs = std::thread::hardware_concurrency();
    if (jobs == 0)
        jobs = 1;
    jobs = std::min<unsigned>(jobs, static_cast<unsigned>(configs.size()));

    obs::Registry& registry = obs::Registry::Global();
    registry.GetCounter("replay.sweeps").Add(1);
    obs::Counter& configs_done = registry.GetCounter("replay.configs");
    obs::Gauge& active_workers = registry.GetGauge("replay.active_workers");
    obs::Histogram& config_wall_ms =
        registry.GetHistogram("replay.config_wall_ms");

    ATUM_SPAN_NAMED(sweep_span, "replay", "sweep.run");
    sweep_span.set_arg("configs", configs.size());
    sweep_span.set_arg("jobs", jobs);

    // Each task owns its simulator and writes one pre-sized result slot;
    // the trace is shared read-only. No synchronization on the hot path —
    // the metrics below are relaxed atomics, updated once per config.
    ThreadPool pool(jobs);
    for (std::size_t i = 0; i < configs.size(); ++i) {
        pool.Submit([&records, &configs, &results, &configs_done,
                     &active_workers, &config_wall_ms, i] {
            ATUM_SPAN_NAMED(config_span, "replay", "sweep.config");
            config_span.set_detail(configs[i].label);
            active_workers.Add(1);
            const auto t0 = std::chrono::steady_clock::now();
            results[i] = ReplayOne(records, configs[i]);
            config_wall_ms.Add(static_cast<uint64_t>(
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    std::chrono::steady_clock::now() - t0)
                    .count()));
            configs_done.Add(1);
            active_workers.Add(-1);
        });
    }
    pool.Wait();
    return results;
}

}  // namespace atum::replay
