#ifndef ATUM_REPLAY_SWEEP_H_
#define ATUM_REPLAY_SWEEP_H_

/**
 * @file
 * Parallel multi-configuration trace replay. One captured trace is read
 * by many simulator configurations at once: the record vector is shared
 * read-only, each worker owns a private simulator (Cache + driver,
 * CacheHierarchy, or TlbSim), and results land in a pre-sized table slot
 * keyed by input position. Nothing on the hot path takes a lock, and the
 * output is bit-identical to running the same configs serially in input
 * order — replay order across configs is irrelevant because configs
 * never interact.
 */

#include <csignal>
#include <cstdint>
#include <string>
#include <vector>

#include "cache/cache.h"
#include "cache/hierarchy.h"
#include "cache/trace_driver.h"
#include "tlbsim/tlb_sim.h"
#include "trace/record.h"
#include "util/status.h"

namespace atum::replay {

/** One replay job: which simulator to run over the shared trace. */
struct SweepConfig {
    enum class Kind : uint8_t { kCache, kHierarchy, kTlb };

    Kind kind = Kind::kCache;
    std::string label;  ///< row label in reports (defaults to a config string)

    // kCache: a single cache behind the record filter/discipline driver.
    cache::CacheConfig cache;
    cache::DriverOptions driver;

    // kHierarchy: split L1s + unified L2.
    cache::HierarchyConfig hierarchy;

    // kTlb: translation-buffer simulation.
    tlbsim::TlbSimConfig tlb;
};

/** Builds a kCache job. */
SweepConfig MakeCacheJob(const cache::CacheConfig& cache,
                         const cache::DriverOptions& driver = {},
                         std::string label = {});
/** Builds a kHierarchy job. */
SweepConfig MakeHierarchyJob(const cache::HierarchyConfig& hierarchy,
                             std::string label = {});
/** Builds a kTlb job. */
SweepConfig MakeTlbJob(const tlbsim::TlbSimConfig& tlb,
                       std::string label = {});

/** Final statistics of one job, at the same index as its SweepConfig. */
struct SweepResult {
    SweepConfig::Kind kind = SweepConfig::Kind::kCache;
    std::string label;

    /**
     * Per-row outcome. A config that fails validation (or whose simulator
     * throws) reports its error here with zeroed statistics; the other
     * rows of the sweep are unaffected.
     */
    util::Status status;

    // kCache
    cache::CacheStats cache_stats;
    uint64_t fed = 0;       ///< records accepted by the driver filters
    uint64_t filtered = 0;  ///< records rejected by the driver filters

    // kHierarchy
    cache::CacheStats l1i_stats;
    cache::CacheStats l1d_stats;
    cache::CacheStats l2_stats;
    uint64_t hierarchy_accesses = 0;
    uint64_t memory_accesses = 0;
    double global_miss_rate = 0.0;
    double amat = 0.0;

    // kTlb
    tlbsim::TlbSimStats tlb_stats;

    /** The job's reference count and headline miss rate, whatever its
     *  kind. */
    uint64_t Accesses() const;
    double MissRate() const;
};

/** Geometry checks for every simulator the job would construct: a job
 *  that passes replays without Fatal. */
util::Status ValidateJob(const SweepConfig& config);

/**
 * Slice-boundary controls for one config's replay. The record loop
 * checks them every `slice_records` records, so a long replay can be
 * stopped (serve cancellation/drain) or bounded in wall time (per-config
 * timeout) without any cost on the per-record hot path beyond a masked
 * counter test. Both default off; the default-constructed control is the
 * legacy unbounded replay.
 */
struct ReplayControl {
    /** Cooperative stop latch; non-zero stops at the next slice with
     *  status kInterrupted. May be null. */
    volatile std::sig_atomic_t* stop_flag = nullptr;
    /** Wall-clock budget for this one config; 0 = unbounded. Exceeding
     *  it stops at the next slice with status kUnavailable (the row is
     *  retryable, unlike a bad geometry). */
    uint64_t deadline_ms = 0;
    /** Records between control checks (power of two; default 4096). */
    uint32_t slice_records = 4096;
};

/** Replays one job over `records` serially (the legacy inner loop). */
SweepResult ReplayOne(const std::vector<trace::Record>& records,
                      const SweepConfig& config);

/** ReplayOne with slice-boundary cancellation and a wall-clock budget.
 *  A stopped or timed-out replay reports it in the row's status with
 *  zeroed statistics; partial simulator state is never published. */
SweepResult ReplayOne(const std::vector<trace::Record>& records,
                      const SweepConfig& config,
                      const ReplayControl& control);

/**
 * Evaluates many configurations over one in-memory trace concurrently.
 * Results are returned in input order regardless of which worker
 * finished first, and are bit-identical to calling ReplayOne in a loop.
 */
class SweepRunner
{
  public:
    /** `jobs` worker threads; 0 means one per hardware thread. */
    explicit SweepRunner(unsigned jobs = 0) : jobs_(jobs) {}

    std::vector<SweepResult> Run(
        const std::vector<trace::Record>& records,
        const std::vector<SweepConfig>& configs) const;

  private:
    unsigned jobs_;
};

}  // namespace atum::replay

#endif  // ATUM_REPLAY_SWEEP_H_
