// Unit tests for the parallel replay engine: thread pool semantics, the
// determinism contract (N threads == 1 thread == the legacy serial loop,
// bit for bit), and the replay-config grammar (ConfigSpec.*, also run in
// the quick lane as ctest replay_config_spec).

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "analysis/compare.h"
#include "analysis/parallel_profiles.h"
#include "analysis/stack_distance.h"
#include "replay/config_spec.h"
#include "replay/sweep.h"
#include "replay/thread_pool.h"
#include "trace/record.h"
#include "util/json.h"
#include "util/rng.h"

namespace atum::replay {
namespace {

using trace::MakeCtxSwitch;
using trace::MakeFlags;
using trace::Record;
using trace::RecordType;

TEST(ThreadPool, RunsSubmittedTasks)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.Submit([&count] { ++count; });
    pool.Wait();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitWithNoTasksReturnsImmediately)
{
    ThreadPool pool(2);
    pool.Wait();  // must not hang
    SUCCEED();
}

TEST(ThreadPool, SingleThreadStillDrainsQueue)
{
    ThreadPool pool(1);
    std::atomic<int> count{0};
    for (int i = 0; i < 50; ++i)
        pool.Submit([&count] { ++count; });
    pool.Wait();
    EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, ZeroMeansHardwareConcurrency)
{
    ThreadPool pool(0);
    EXPECT_GE(pool.thread_count(), 1u);
}

TEST(ThreadPool, TaskExceptionDoesNotDeadlock)
{
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    pool.Submit([] { throw std::runtime_error("boom"); });
    for (int i = 0; i < 20; ++i)
        pool.Submit([&ran] { ++ran; });
    EXPECT_THROW(pool.Wait(), std::runtime_error);
    EXPECT_EQ(ran.load(), 20);  // later tasks still ran
    // The pool stays usable after an exception.
    pool.Submit([&ran] { ++ran; });
    pool.Wait();
    EXPECT_EQ(ran.load(), 21);
}

TEST(ThreadPool, CancelledTokenAbandonsQueuedWork)
{
    // One worker pinned on a gate guarantees the rest of the queue is
    // still pending when we cancel: those tasks must never run.
    ThreadPool pool(1);
    CancellationToken token;
    std::atomic<bool> gate{false};
    std::atomic<int> ran{0};
    pool.Submit([&gate] {
        while (!gate.load())
            std::this_thread::yield();
    });
    for (int i = 0; i < 10; ++i)
        pool.Submit([&ran] { ++ran; }, &token);
    token.Cancel();
    gate.store(true);
    pool.Wait();
    EXPECT_EQ(ran.load(), 0);
    EXPECT_EQ(pool.abandoned(), 10u);
    // Submitting against an already-cancelled token drops immediately.
    pool.Submit([&ran] { ++ran; }, &token);
    pool.Wait();
    EXPECT_EQ(ran.load(), 0);
    EXPECT_EQ(pool.abandoned(), 11u);
}

TEST(ThreadPool, AbandonPendingDropsOnlyUnstartedWork)
{
    ThreadPool pool(1);
    std::atomic<bool> gate{false};
    std::atomic<int> started{0};
    std::atomic<int> ran{0};
    pool.Submit([&] {
        ++started;
        while (!gate.load())
            std::this_thread::yield();
        ++ran;
    });
    while (started.load() == 0)
        std::this_thread::yield();
    for (int i = 0; i < 7; ++i)
        pool.Submit([&ran] { ++ran; });
    EXPECT_EQ(pool.AbandonPending(), 7u);
    gate.store(true);
    pool.Wait();
    // The in-flight task finished; the queued backlog never ran.
    EXPECT_EQ(ran.load(), 1);
    EXPECT_EQ(pool.abandoned(), 7u);
    // The pool is still usable after a drain.
    pool.Submit([&ran] { ++ran; });
    pool.Wait();
    EXPECT_EQ(ran.load(), 2);
}

TEST(ThreadPool, CancelRacesSubmitWithoutLossOrDoubleRun)
{
    // The stop/enqueue race the serve daemon hits on SIGTERM: one thread
    // floods the queue while another cancels mid-stream. Under TSan this
    // exercises the token read against concurrent Submit/dequeue; the
    // invariant is every task either ran once or was counted abandoned.
    for (int round = 0; round < 8; ++round) {
        ThreadPool pool(4);
        CancellationToken token;
        std::atomic<int> ran{0};
        constexpr int kTasks = 400;
        std::thread submitter([&] {
            for (int i = 0; i < kTasks; ++i)
                pool.Submit([&ran] { ++ran; }, &token);
        });
        std::thread canceller([&] { token.Cancel(); });
        submitter.join();
        canceller.join();
        pool.Wait();
        EXPECT_EQ(static_cast<std::size_t>(ran.load()) + pool.abandoned(),
                  static_cast<std::size_t>(kTasks));
    }
}

TEST(ThreadPool, AbandonPendingRacesSubmit)
{
    // AbandonPending from one thread against a flood of Submits from
    // another: conservation must hold and Wait must not hang.
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    constexpr int kTasks = 300;
    std::size_t dropped = 0;
    std::thread submitter([&] {
        for (int i = 0; i < kTasks; ++i)
            pool.Submit([&ran] { ++ran; });
    });
    std::thread drainer([&] { dropped = pool.AbandonPending(); });
    submitter.join();
    drainer.join();
    pool.Wait();
    EXPECT_EQ(pool.abandoned(), dropped);
    EXPECT_EQ(static_cast<std::size_t>(ran.load()) + dropped,
              static_cast<std::size_t>(kTasks));
}

TEST(ThreadPool, WaitCanBeCalledRepeatedly)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    pool.Submit([&count] { ++count; });
    pool.Wait();
    pool.Submit([&count] { ++count; });
    pool.Wait();
    EXPECT_EQ(count.load(), 2);
}

/** A multiprogrammed-looking synthetic trace: three processes with
 *  distinct looping footprints, kernel interludes, context switches. */
std::vector<Record>
SyntheticTrace(int refs)
{
    Rng rng(0xa7a7);
    std::vector<Record> records;
    uint16_t pid = 1;
    records.push_back(MakeCtxSwitch(pid, 0));
    for (int i = 0; i < refs; ++i) {
        if (i % 997 == 0 && i > 0) {
            pid = static_cast<uint16_t>(1 + (pid % 3));
            records.push_back(MakeCtxSwitch(pid, 0));
        }
        Record r;
        const uint32_t roll = rng.Below(10);
        if (roll < 5) {
            r.type = RecordType::kIFetch;
            r.addr = 0x1000 * pid + (i % 600) * 4;
        } else if (roll < 8) {
            r.type = RecordType::kRead;
            r.addr = 0x40000 * pid + rng.Below(1u << 14);
        } else {
            r.type = RecordType::kWrite;
            r.addr = 0x40000 * pid + rng.Below(1u << 12);
        }
        const bool kernel = roll == 9;
        if (kernel)
            r.addr |= 0x80000000u;
        r.flags = MakeFlags(kernel, 4);
        records.push_back(r);
    }
    return records;
}

std::vector<SweepConfig>
MixedConfigs()
{
    std::vector<SweepConfig> jobs;
    cache::DriverOptions flush_opts;
    flush_opts.flush_on_switch = true;
    for (uint32_t kib : {1u, 4u, 16u, 64u}) {
        cache::CacheConfig config{.size_bytes = kib << 10,
                                  .block_bytes = 16, .assoc = 2,
                                  .pid_tags = true};
        jobs.push_back(MakeCacheJob(config, {}));
        config.pid_tags = false;
        jobs.push_back(MakeCacheJob(config, flush_opts));
    }
    // Random replacement exercises the per-cache deterministic RNG.
    cache::CacheConfig random_cfg{.size_bytes = 8u << 10, .block_bytes = 16,
                                  .assoc = 4,
                                  .replacement = cache::Replacement::kRandom};
    jobs.push_back(MakeCacheJob(random_cfg, {}));
    cache::HierarchyConfig hier;
    hier.flush_on_switch = true;
    jobs.push_back(MakeHierarchyJob(hier));
    jobs.push_back(MakeTlbJob({.entries = 64}));
    return jobs;
}

void
ExpectIdentical(const SweepResult& a, const SweepResult& b, size_t i)
{
    EXPECT_EQ(a.cache_stats.accesses, b.cache_stats.accesses) << i;
    EXPECT_EQ(a.cache_stats.misses, b.cache_stats.misses) << i;
    EXPECT_EQ(a.cache_stats.writebacks, b.cache_stats.writebacks) << i;
    EXPECT_EQ(a.fed, b.fed) << i;
    EXPECT_EQ(a.filtered, b.filtered) << i;
    EXPECT_EQ(a.l1d_stats.misses, b.l1d_stats.misses) << i;
    EXPECT_EQ(a.l2_stats.misses, b.l2_stats.misses) << i;
    EXPECT_EQ(a.memory_accesses, b.memory_accesses) << i;
    EXPECT_EQ(a.tlb_stats.accesses, b.tlb_stats.accesses) << i;
    EXPECT_EQ(a.tlb_stats.misses, b.tlb_stats.misses) << i;
    // Miss rates are derived from integer counts: bit-identical, not
    // merely close.
    EXPECT_EQ(a.MissRate(), b.MissRate()) << i;
    EXPECT_EQ(a.amat, b.amat) << i;
}

TEST(SweepRunner, DeterministicAcrossThreadCounts)
{
    const std::vector<Record> records = SyntheticTrace(20000);
    const std::vector<SweepConfig> jobs = MixedConfigs();
    ASSERT_GE(jobs.size(), 8u);

    // Legacy serial loop is the reference.
    std::vector<SweepResult> serial;
    for (const SweepConfig& job : jobs)
        serial.push_back(ReplayOne(records, job));

    for (unsigned threads : {1u, 2u, 4u, 8u}) {
        const auto results = SweepRunner(threads).Run(records, jobs);
        ASSERT_EQ(results.size(), jobs.size());
        for (size_t i = 0; i < jobs.size(); ++i)
            ExpectIdentical(results[i], serial[i], i);
    }
}

TEST(SweepRunner, MatchesLegacyAnalysisSweep)
{
    // The SweepRunner must agree with analysis::SimulateCache, a plain
    // serial cache loop that shares no code with the replay engine.
    const std::vector<Record> records = SyntheticTrace(10000);
    cache::CacheConfig base{.block_bytes = 16, .assoc = 1};
    const std::vector<uint32_t> sizes = {1024, 4096, 16384, 65536};
    std::vector<cache::CacheStats> legacy;
    std::vector<SweepConfig> jobs;
    for (uint32_t size : sizes) {
        base.size_bytes = size;
        legacy.push_back(analysis::SimulateCache(records, base, {}));
        jobs.push_back(MakeCacheJob(base, {}));
    }
    const auto results = SweepRunner(4).Run(records, jobs);
    for (size_t i = 0; i < sizes.size(); ++i) {
        EXPECT_EQ(results[i].cache_stats.accesses, legacy[i].accesses) << i;
        EXPECT_EQ(results[i].MissRate(), legacy[i].MissRate()) << i;
    }
}

/** Every CacheStats field, for one-line comparison. */
std::vector<uint64_t>
StatFields(const cache::CacheStats& s)
{
    return {s.accesses,   s.misses,       s.reads,      s.read_misses,
            s.writes,     s.write_misses, s.writebacks, s.flushes,
            s.flushed_blocks, s.prefetch_fills};
}

TEST(SweepRunner, SliceKernelMatchesPerRecordDriver)
{
    // ReplayOne feeds a cache row 4,096 records at a time through the
    // slice kernel; TraceCacheDriver::Feed is the per-record path. Every
    // probe width, discipline, filter and policy must count the same.
    std::vector<Record> records;
    for (const Record& r : SyntheticTrace(40000)) {
        records.push_back(r);
        if (records.size() % 50 == 0) {  // filtered: physical
            Record pte = r;
            pte.type = RecordType::kPte;
            records.push_back(pte);
        }
        if (records.size() % 301 == 0) {  // not a reference
            Record marker;
            marker.type = RecordType::kException;
            records.push_back(marker);
        }
    }
    ASSERT_GT(records.size(), 8u * 4096);

    const cache::DriverOptions flush{.flush_on_switch = true};
    const cache::DriverOptions user_only{.include_kernel = false};
    const cache::DriverOptions pid2{.only_pid = 2};
    auto geometry = [](uint32_t kib, uint32_t assoc) {
        return cache::CacheConfig{.size_bytes = kib << 10,
                                  .block_bytes = 16, .assoc = assoc};
    };
    std::vector<SweepConfig> jobs;
    for (uint32_t assoc : {1u, 2u, 4u, 8u, 0u}) {
        jobs.push_back(MakeCacheJob(geometry(4, assoc)));
        jobs.push_back(MakeCacheJob(geometry(16, assoc), flush));
    }
    cache::CacheConfig config = geometry(8, 2);
    config.pid_tags = true;
    jobs.push_back(MakeCacheJob(config));
    jobs.push_back(MakeCacheJob(geometry(8, 4), user_only));
    jobs.push_back(MakeCacheJob(geometry(8, 1), pid2));
    config = geometry(8, 2);
    config.write_back = false;
    jobs.push_back(MakeCacheJob(config, flush));
    config = geometry(8, 4);
    config.replacement = cache::Replacement::kRandom;
    jobs.push_back(MakeCacheJob(config));
    for (uint32_t assoc : {1u, 2u, 4u}) {
        config = geometry(8, assoc);
        config.prefetch_next_on_miss = true;
        jobs.push_back(MakeCacheJob(config));
    }

    for (const SweepConfig& job : jobs) {
        cache::Cache c(job.cache);
        cache::TraceCacheDriver driver(c, job.driver);
        for (const Record& r : records)
            driver.Feed(r);
        const SweepResult row = ReplayOne(records, job);
        ASSERT_TRUE(row.status.ok()) << job.label;
        EXPECT_EQ(StatFields(row.cache_stats), StatFields(c.stats()))
            << job.label;
        EXPECT_EQ(row.fed, driver.fed()) << job.label;
        EXPECT_EQ(row.filtered, driver.filtered()) << job.label;
        EXPECT_GT(row.cache_stats.misses, 0u) << job.label;
    }
}

TEST(SweepRunner, EmptyConfigListAndEmptyTrace)
{
    EXPECT_TRUE(SweepRunner(2).Run(SyntheticTrace(100), {}).empty());
    const auto results =
        SweepRunner(2).Run({}, {MakeCacheJob({.size_bytes = 1024})});
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].cache_stats.accesses, 0u);
}

TEST(SweepRunner, ResultsStayInInputOrder)
{
    const std::vector<Record> records = SyntheticTrace(2000);
    std::vector<SweepConfig> jobs;
    for (uint32_t kib : {64u, 1u, 16u, 4u})  // deliberately unsorted
        jobs.push_back(MakeCacheJob({.size_bytes = kib << 10}));
    const auto results = SweepRunner(4).Run(records, jobs);
    ASSERT_EQ(results.size(), 4u);
    EXPECT_EQ(results[0].label, jobs[0].label);
    EXPECT_EQ(results[1].label, jobs[1].label);
    // Bigger cache can't miss more on the same LRU-friendly stream.
    EXPECT_LE(results[0].cache_stats.misses, results[1].cache_stats.misses);
}

TEST(SweepRunner, BadConfigErrorsItsRowOnly)
{
    const std::vector<Record> records = SyntheticTrace(5000);
    std::vector<SweepConfig> jobs;
    jobs.push_back(MakeCacheJob(
        {.size_bytes = 16u << 10, .block_bytes = 16, .assoc = 1}));
    // 17K is not a power of two: constructing this Cache would Fatal.
    jobs.push_back(MakeCacheJob(
        {.size_bytes = 17u << 10, .block_bytes = 16, .assoc = 1}, {},
        "bad-cache"));
    jobs.push_back(MakeTlbJob({.entries = 63}, "bad-tlb"));
    cache::HierarchyConfig hier;
    hier.l2.assoc = 3;  // 4096 blocks do not divide into 3 ways
    jobs.push_back(MakeHierarchyJob(hier, "bad-hier"));
    jobs.push_back(MakeTlbJob({.entries = 64}));

    const auto results = SweepRunner(2).Run(records, jobs);
    ASSERT_EQ(results.size(), 5u);

    // Healthy rows are untouched by their neighbors' failures.
    EXPECT_TRUE(results[0].status.ok());
    EXPECT_GT(results[0].cache_stats.accesses, 0u);
    EXPECT_TRUE(results[4].status.ok());
    EXPECT_GT(results[4].tlb_stats.accesses, 0u);

    // Bad rows carry their error and zeroed statistics, labels intact.
    EXPECT_EQ(results[1].status.code(),
              util::StatusCode::kInvalidArgument);
    EXPECT_EQ(results[1].cache_stats.accesses, 0u);
    EXPECT_EQ(results[1].label, "bad-cache");
    EXPECT_EQ(results[2].status.code(),
              util::StatusCode::kInvalidArgument);
    EXPECT_EQ(results[2].label, "bad-tlb");
    EXPECT_FALSE(results[3].status.ok());
    EXPECT_NE(results[3].status.message().find("l2"), std::string::npos);
}

TEST(SweepRunner, ReplayOneValidatesBeforeConstructing)
{
    const SweepResult result =
        ReplayOne({}, MakeCacheJob({.size_bytes = 1u << 10,
                                    .block_bytes = 2048}));
    EXPECT_EQ(result.status.code(), util::StatusCode::kInvalidArgument);
}

TEST(PerProcessProfiles, ParallelMatchesSerialSubstreams)
{
    const std::vector<Record> records = SyntheticTrace(20000);
    const auto one = analysis::PerProcessStackProfiles(records, true, 1);
    const auto four = analysis::PerProcessStackProfiles(records, true, 4);
    ASSERT_EQ(one.size(), four.size());
    ASSERT_GE(one.size(), 3u);  // kernel + three user pids
    for (size_t i = 0; i < one.size(); ++i) {
        EXPECT_EQ(one[i].pid, four[i].pid);
        EXPECT_EQ(one[i].accesses, four[i].accesses);
        EXPECT_EQ(one[i].cold_misses, four[i].cold_misses);
        EXPECT_EQ(one[i].distinct_blocks, four[i].distinct_blocks);
        EXPECT_EQ(one[i].misses_at_capacity, four[i].misses_at_capacity);
    }

    // Cross-check one pid against a hand-built serial analyzer.
    const uint16_t pid = one[1].pid;
    analysis::StackDistanceAnalyzer sd(0);
    uint16_t current = 0;
    for (const Record& r : records) {
        if (r.type == RecordType::kCtxSwitch) {
            current = r.info;
            continue;
        }
        if (!r.IsMemory() || r.type == RecordType::kPte || r.kernel())
            continue;
        if (current == pid)
            sd.TouchBlock(r.addr >> 4);  // 16-byte blocks
    }
    EXPECT_EQ(one[1].accesses, sd.total_accesses());
    EXPECT_EQ(one[1].cold_misses, sd.cold_misses());
    EXPECT_EQ(one[1].misses_at_capacity[1], sd.MissesForCapacity(1024));
}

TEST(PerProcessProfiles, KernelExclusionDropsPidZero)
{
    const std::vector<Record> records = SyntheticTrace(5000);
    const auto profiles = analysis::PerProcessStackProfiles(records, false, 2);
    for (const auto& p : profiles)
        EXPECT_NE(p.pid, 0);
}

/** The spec as its canonical JSON, or "error" when it did not parse. */
std::string
SpecJson(util::StatusOr<ConfigSpec> spec)
{
    if (!spec.ok()) {
        EXPECT_EQ(spec.status().code(), util::StatusCode::kInvalidArgument);
        return "error";
    }
    util::JsonWriter w;
    spec->WriteJson(w);
    return w.TakeStr();
}

TEST(ConfigSpec, TextGrammarTable)
{
    struct Case {
        const char* text;
        const char* only_kind;  ///< "" = any kind, as --sweep takes
        const char* want;       ///< canonical JSON, or "error"
    };
    const Case kCases[] = {
        // The alias, for --cache and --sweep alike.
        {"16:16:1", "",
         R"({"kind":"cache","size_kb":16,"block":16,"assoc":1})"},
        {"64:32:0", "cache",
         R"({"kind":"cache","size_kb":64,"block":32,"assoc":0})"},
        // All three kinds.
        {"cache:size_kb=128:assoc=2", "",
         R"({"kind":"cache","size_kb":128,"block":16,"assoc":2})"},
        {"hierarchy:size_kb=256:block=32", "",
         R"({"kind":"hierarchy","size_kb":256,"block":32,"assoc":1})"},
        {"tlb:entries=64:ways=2", "",
         R"({"kind":"tlb","entries":64,"ways":2})"},
        {"tlb:entries=64:ways=2", "tlb",
         R"({"kind":"tlb","entries":64,"ways":2})"},
        {"cache:label=l1:block=32", "",
         R"({"kind":"cache","label":"l1","size_kb":64,"block":32,"assoc":1})"},
        {"cache:size_kb=4194303", "",
         R"({"kind":"cache","size_kb":4194303,"block":16,"assoc":1})"},
        // --tlb N is tlb:entries=N; nowhere else is a bare count a spec.
        {"32", "tlb", R"({"kind":"tlb","entries":32,"ways":0})"},
        {"32", "", "error"},
        {"32", "cache", "error"},
        // Wrong kind for the flag.
        {"tlb:entries=64", "cache", "error"},
        {"hierarchy:size_kb=256", "cache", "error"},
        {"16:16:1", "tlb", "error"},
        // Geometry is judged at replay time, not here.
        {"17:16:1", "cache",
         R"({"kind":"cache","size_kb":17,"block":16,"assoc":1})"},
        {"cache:block=24", "",
         R"({"kind":"cache","size_kb":64,"block":24,"assoc":1})"},
        // Trailing garbage, signs, hex and the wrong field count.
        {"16:16:1junk", "", "error"},
        {"16:16:-1", "", "error"},
        {"cache:block=0x20", "", "error"},
        {"cache:block=+32", "", "error"},
        {"16:16", "", "error"},
        {"16:16:1:4", "", "error"},
        // Empty fields.
        {"", "", "error"},
        {"16::1", "", "error"},
        {"cache::block=32", "", "error"},
        {"cache:block=", "", "error"},
        {"cache:=32", "", "error"},
        {"cache:", "", "error"},
        // Unknown kinds and keys.
        {"bogus:size_kb=1", "", "error"},
        {"cache:no_such_knob=1", "", "error"},
        {"cache:size_kb", "", "error"},
    };
    for (const Case& c : kCases)
        EXPECT_EQ(SpecJson(ParseConfigSpecText(c.text, c.only_kind)), c.want)
            << "text '" << c.text << "' only_kind '" << c.only_kind << "'";
}

// `size_kb << 10` must fit the 32-bit byte count: 4194320 KiB once
// wrapped to 16 KiB and replayed a 16K cache without a word.
TEST(ConfigSpec, TextRejectsSizeThatWrapsTheByteCount)
{
    EXPECT_EQ(SpecJson(ParseConfigSpecText("cache:size_kb=4194320")),
              "error");
    EXPECT_EQ(SpecJson(ParseConfigSpecText("hierarchy:size_kb=4194304")),
              "error");
}

// A value past 32 bits once truncated (4294967312 -> 16).
TEST(ConfigSpec, TextRejectsValueOver32Bits)
{
    EXPECT_EQ(SpecJson(ParseConfigSpecText("cache:size_kb=4294967312")),
              "error");
    EXPECT_EQ(SpecJson(ParseConfigSpecText("tlb:entries=4294967312")),
              "error");
    EXPECT_EQ(SpecJson(ParseConfigSpecText("cache:assoc=4294967295")),
              R"({"kind":"cache","size_kb":64,"block":16,"assoc":4294967295})");
}

util::StatusOr<ConfigSpec>
ParseJsonSpec(const std::string& text)
{
    util::StatusOr<util::JsonValue> doc = util::JsonValue::Parse(text);
    EXPECT_TRUE(doc.ok()) << text;
    return ParseConfigSpec(*doc);
}

TEST(ConfigSpec, JsonRejectsSizeThatWrapsTheByteCount)
{
    EXPECT_EQ(SpecJson(ParseJsonSpec(R"({"kind":"cache","size_kb":4194320})")),
              "error");
    EXPECT_EQ(SpecJson(ParseJsonSpec(R"({"kind":"cache","size_kb":4194303})")),
              R"({"kind":"cache","size_kb":4194303,"block":16,"assoc":1})");
}

TEST(ConfigSpec, JsonRejectsValueOver32Bits)
{
    EXPECT_EQ(
        SpecJson(ParseJsonSpec(R"({"kind":"cache","size_kb":4294967312})")),
        "error");
    EXPECT_EQ(SpecJson(ParseJsonSpec(R"({"kind":"tlb","entries":4294967312})")),
              "error");
}

TEST(ConfigSpec, JsonRejectsFraction)
{
    EXPECT_EQ(SpecJson(ParseJsonSpec(R"({"kind":"cache","assoc":1.5})")),
              "error");
    EXPECT_EQ(SpecJson(ParseJsonSpec(R"({"kind":"tlb","ways":-1})")),
              "error");
    EXPECT_EQ(SpecJson(ParseJsonSpec(R"({"kind":"tlb","ways":"2"})")),
              "error");
}

TEST(ConfigSpec, JsonRoundTripsAndBuildsTheJob)
{
    util::StatusOr<ConfigSpec> spec =
        ParseConfigSpecText("tlb:entries=64:ways=2:label=machine-tb");
    ASSERT_TRUE(spec.ok()) << spec.status().ToString();
    const std::string json = SpecJson(spec);
    EXPECT_EQ(SpecJson(ParseJsonSpec(json)), json);

    const SweepConfig job = spec->ToReplayConfig();
    EXPECT_EQ(job.kind, SweepConfig::Kind::kTlb);
    EXPECT_EQ(job.tlb.entries, 64u);
    EXPECT_EQ(job.tlb.ways, 2u);
    EXPECT_EQ(job.label, "machine-tb");
    EXPECT_TRUE(ValidateJob(job).ok());

    const SweepConfig cache = ParseConfigSpecText("16:16:1")->ToReplayConfig();
    EXPECT_EQ(cache.kind, SweepConfig::Kind::kCache);
    EXPECT_EQ(cache.cache.size_bytes, 16u << 10);
    EXPECT_EQ(cache.label, "16K/16B/1w/wb");
    EXPECT_FALSE(
        ValidateJob(ParseConfigSpecText("17:16:1")->ToReplayConfig()).ok());
}

}  // namespace
}  // namespace atum::replay
