// Serve daemon tests: frame codec fuzz, protocol validation, journal
// recovery under a corruption matrix, admission/fair-share policy, the
// ServeCore job lifecycle in drill mode, kill-restart recovery on an
// in-memory disk, connection governance, idempotency-token dedup, the
// pinned protocol fuzz corpus, and small seeded serve/net chaos
// campaigns.

#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "chaos/campaign.h"
#include "io/chaos.h"
#include "io/mem_vfs.h"
#include "obs/metrics.h"
#include "serve/admission.h"
#include "serve/journal.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/socket.h"
#include "util/json.h"
#include "util/status.h"

#ifndef ATUM_PROTOCOL_CORPUS_DIR
#error "ATUM_PROTOCOL_CORPUS_DIR must point at tests/protocol_corpus"
#endif

namespace atum::serve {
namespace {

std::string
ReadAll(io::Vfs& vfs, const std::string& path)
{
    util::StatusOr<std::unique_ptr<io::ReadableFile>> in = vfs.OpenRead(path);
    EXPECT_TRUE(in.ok()) << in.status().ToString();
    if (!in.ok())
        return {};
    std::string bytes;
    char buf[512];
    for (;;) {
        util::StatusOr<size_t> n = (*in)->Read(buf, sizeof buf);
        EXPECT_TRUE(n.ok()) << n.status().ToString();
        if (!n.ok() || *n == 0)
            break;
        bytes.append(buf, *n);
    }
    return bytes;
}

void
WriteAll(io::Vfs& vfs, const std::string& path, const std::string& bytes)
{
    util::StatusOr<std::unique_ptr<io::WritableFile>> out = vfs.Create(path);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    ASSERT_TRUE((*out)->Write(bytes.data(), bytes.size()).ok());
    ASSERT_TRUE((*out)->Sync().ok());
    ASSERT_TRUE((*out)->Close().ok());
}

// ---------------------------------------------------------------------------
// Frame codec.

TEST(FrameParser, RoundTripsAcrossArbitraryChunking)
{
    const std::vector<std::string> payloads = {"{}", R"({"op":"ping"})",
                                               std::string(1000, 'x'), ""};
    std::string stream;
    for (const std::string& p : payloads)
        stream += EncodeFrame(p);

    // Every chunk size from 1 byte to the whole stream must reassemble
    // the identical payload sequence.
    for (size_t chunk = 1; chunk <= stream.size(); chunk += 7) {
        FrameParser parser;
        std::vector<std::string> got;
        for (size_t pos = 0; pos < stream.size(); pos += chunk) {
            parser.Feed(stream.data() + pos,
                        std::min(chunk, stream.size() - pos));
            for (;;) {
                std::string payload;
                util::StatusOr<bool> next = parser.Next(&payload);
                ASSERT_TRUE(next.ok()) << next.status().ToString();
                if (!*next)
                    break;
                got.push_back(payload);
            }
        }
        EXPECT_EQ(got, payloads);
        EXPECT_EQ(parser.pending_bytes(), 0u);
    }
}

TEST(FrameParser, OversizedFramePoisonsForever)
{
    std::string evil;
    const uint32_t huge = kMaxFrameBytes + 1;
    for (int i = 0; i < 4; ++i)
        evil.push_back(static_cast<char>((huge >> (8 * i)) & 0xFF));
    FrameParser parser;
    parser.Feed(evil.data(), evil.size());
    std::string payload;
    EXPECT_FALSE(parser.Next(&payload).ok());
    // Even a valid frame afterwards must not resurrect the connection.
    const std::string good = EncodeFrame("{}");
    parser.Feed(good.data(), good.size());
    EXPECT_FALSE(parser.Next(&payload).ok());
}

// The boundary frames: a zero-length payload is a legal frame and must
// round-trip (the protocol's smallest message), and the size limit is
// exact — a payload of kMaxFrameBytes passes, one more byte poisons.
TEST(FrameParser, ZeroLengthAndMaxLengthFramesAreExactBoundaries)
{
    {
        const std::string frame = EncodeFrame("");
        FrameParser parser;
        parser.Feed(frame.data(), frame.size());
        std::string payload = "sentinel";
        util::StatusOr<bool> next = parser.Next(&payload);
        ASSERT_TRUE(next.ok()) << next.status().ToString();
        EXPECT_TRUE(*next);
        EXPECT_TRUE(payload.empty());
        EXPECT_EQ(parser.pending_bytes(), 0u);
    }
    {
        const std::string frame = EncodeFrame(std::string(kMaxFrameBytes, 'x'));
        FrameParser parser;
        parser.Feed(frame.data(), frame.size());
        std::string payload;
        util::StatusOr<bool> next = parser.Next(&payload);
        ASSERT_TRUE(next.ok()) << next.status().ToString();
        EXPECT_TRUE(*next);
        EXPECT_EQ(payload.size(), kMaxFrameBytes);
    }
    {
        const std::string frame =
            EncodeFrame(std::string(kMaxFrameBytes + 1, 'x'));
        FrameParser parser;
        parser.Feed(frame.data(), frame.size());
        std::string payload;
        EXPECT_FALSE(parser.Next(&payload).ok());
    }
}

TEST(FrameParser, TruncatedFrameReportsPendingBytes)
{
    const std::string frame = EncodeFrame(R"({"op":"ping"})");
    FrameParser parser;
    parser.Feed(frame.data(), frame.size() - 3);
    std::string payload;
    util::StatusOr<bool> next = parser.Next(&payload);
    ASSERT_TRUE(next.ok());
    EXPECT_FALSE(*next);
    EXPECT_GT(parser.pending_bytes(), 0u);  // the tear is detectable
}

// Seeded fuzz: random byte soup must never crash the parser — each
// stream either yields frames, waits for more, or poisons cleanly.
TEST(FrameParser, RandomByteSoupNeverCrashes)
{
    std::mt19937_64 rng(42);
    for (int round = 0; round < 200; ++round) {
        std::string soup(1 + rng() % 300, '\0');
        for (char& c : soup)
            c = static_cast<char>(rng() & 0xFF);
        FrameParser parser;
        parser.Feed(soup.data(), soup.size());
        for (int step = 0; step < 64; ++step) {
            std::string payload;
            util::StatusOr<bool> next = parser.Next(&payload);
            if (!next.ok() || !*next)
                break;
            EXPECT_LE(payload.size(), kMaxFrameBytes);
        }
    }
}

// ---------------------------------------------------------------------------
// Protocol validation.

TEST(Protocol, RequestRoundTrip)
{
    Request request;
    request.op = RequestOp::kSubmit;
    request.tenant = "team-a";
    request.workload = "sort";
    request.scale = 3;
    request.quota.max_instructions = 12345;
    request.quota.max_trace_bytes = 777;
    request.quota.deadline_ms = 42;
    util::StatusOr<Request> parsed = ParseRequest(SerializeRequest(request));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed->tenant, "team-a");
    EXPECT_EQ(parsed->workload, "sort");
    EXPECT_EQ(parsed->scale, 3u);
    EXPECT_EQ(parsed->quota.max_instructions, 12345u);
    EXPECT_EQ(parsed->quota.max_trace_bytes, 777u);
    EXPECT_EQ(parsed->quota.deadline_ms, 42u);
}

TEST(Protocol, RejectsWrongVersionAndMalformedFrames)
{
    EXPECT_FALSE(ParseRequest("not json").ok());
    EXPECT_FALSE(ParseRequest("{}").ok());
    EXPECT_FALSE(ParseRequest(R"({"v":"atum-serve-v0","op":"ping"})").ok());
    EXPECT_FALSE(
        ParseRequest(R"({"v":"atum-serve-v1","op":"explode"})").ok());
    EXPECT_TRUE(ParseRequest(R"({"v":"atum-serve-v1","op":"ping"})").ok());
}

TEST(Protocol, SweepRequestRoundTrip)
{
    Request request;
    request.op = RequestOp::kSweep;
    request.tenant = "team-b";
    request.sweep_of = 7;
    request.sweep_timeout_ms = 1500;
    request.sweep_retries = 2;
    replay::ConfigSpec cache;
    cache.kind = "cache";
    cache.size_kb = 128;
    cache.assoc = 2;
    replay::ConfigSpec tlb;
    tlb.kind = "tlb";
    tlb.entries = 32;
    tlb.ways = 4;
    request.sweep_configs = {cache, tlb};

    util::StatusOr<Request> parsed = ParseRequest(SerializeRequest(request));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed->op, RequestOp::kSweep);
    EXPECT_EQ(parsed->sweep_of, 7u);
    EXPECT_EQ(parsed->sweep_timeout_ms, 1500u);
    EXPECT_EQ(parsed->sweep_retries, 2u);
    ASSERT_EQ(parsed->sweep_configs.size(), 2u);
    EXPECT_EQ(parsed->sweep_configs[0].kind, "cache");
    EXPECT_EQ(parsed->sweep_configs[0].size_kb, 128u);
    EXPECT_EQ(parsed->sweep_configs[0].assoc, 2u);
    EXPECT_EQ(parsed->sweep_configs[1].kind, "tlb");
    EXPECT_EQ(parsed->sweep_configs[1].entries, 32u);
    EXPECT_EQ(parsed->sweep_configs[1].ways, 4u);
}

TEST(Protocol, ErrorResponseRoundTripsStatusCode)
{
    const util::Status shed = util::ResourceExhausted("queue full");
    const util::Status extracted = ResponseStatus(ErrorResponse(shed));
    EXPECT_EQ(extracted.code(), util::StatusCode::kResourceExhausted);
    EXPECT_TRUE(ResponseStatus(R"({"ok":true})").ok());
    EXPECT_FALSE(ResponseStatus("garbage").ok());
}

// ---------------------------------------------------------------------------
// Journal recovery.

JournalRecord
Submitted(uint64_t id)
{
    JournalRecord r;
    r.kind = JournalKind::kSubmitted;
    r.id = id;
    // Appended, not assigned: GCC 12 at -O3 misreports assigning a
    // literal to a fresh string as an overlapping copy (-Wrestrict).
    r.tenant += "t";
    r.workload += "grep";
    return r;
}

JournalRecord
Finished(uint64_t id, const std::string& outcome)
{
    JournalRecord r;
    r.kind = JournalKind::kFinished;
    r.id = id;
    r.outcome = outcome;
    return r;
}

TEST(JobJournal, AppendThenRecover)
{
    io::MemVfs vfs;
    {
        util::StatusOr<std::unique_ptr<JobJournal>> journal =
            JobJournal::Open("j", vfs);
        ASSERT_TRUE(journal.ok()) << journal.status().ToString();
        EXPECT_TRUE((*journal)->Append(Submitted(1)).ok());
        EXPECT_TRUE((*journal)->Append(Submitted(2)).ok());
        EXPECT_TRUE((*journal)->Append(Finished(1, "done")).ok());
    }
    util::StatusOr<std::unique_ptr<JobJournal>> journal =
        JobJournal::Open("j", vfs);
    ASSERT_TRUE(journal.ok()) << journal.status().ToString();
    EXPECT_FALSE((*journal)->tail_dropped());
    ASSERT_EQ((*journal)->recovered().size(), 3u);
    EXPECT_EQ((*journal)->recovered()[0].id, 1u);
    EXPECT_EQ((*journal)->recovered()[2].outcome, "done");
}

// The corruption matrix: flip every byte of a three-record journal in
// turn. Recovery must never crash, never fabricate records, and always
// return a prefix of what was written.
TEST(JobJournal, SingleByteCorruptionAlwaysLeavesACleanPrefix)
{
    io::MemVfs vfs;
    {
        util::StatusOr<std::unique_ptr<JobJournal>> journal =
            JobJournal::Open("j", vfs);
        ASSERT_TRUE(journal.ok());
        ASSERT_TRUE((*journal)->Append(Submitted(1)).ok());
        ASSERT_TRUE((*journal)->Append(Submitted(2)).ok());
        ASSERT_TRUE((*journal)->Append(Finished(1, "done")).ok());
    }
    const std::string clean = ReadAll(vfs, "j");
    ASSERT_FALSE(clean.empty());

    for (size_t pos = 0; pos < clean.size(); ++pos) {
        std::string dirty = clean;
        dirty[pos] = static_cast<char>(dirty[pos] ^ 0x5A);
        const std::vector<JournalRecord> records =
            ScanJournalBytes(dirty, nullptr, nullptr);
        ASSERT_LE(records.size(), 3u) << "byte " << pos;
        // Whatever survives must be the written prefix, id for id.
        const uint64_t want_ids[] = {1, 2, 1};
        for (size_t i = 0; i < records.size(); ++i)
            EXPECT_EQ(records[i].id, want_ids[i]) << "byte " << pos;
    }
}

TEST(JobJournal, TornTailIsDroppedAndAppendsContinue)
{
    io::MemVfs vfs;
    std::string bytes;
    {
        util::StatusOr<std::unique_ptr<JobJournal>> journal =
            JobJournal::Open("j", vfs);
        ASSERT_TRUE(journal.ok());
        ASSERT_TRUE((*journal)->Append(Submitted(1)).ok());
        ASSERT_TRUE((*journal)->Append(Submitted(2)).ok());
        bytes = ReadAll(vfs, "j");
    }
    // Cut mid-way through the second frame — the write the crash tore.
    WriteAll(vfs, "j", bytes.substr(0, bytes.size() - 5));

    util::StatusOr<std::unique_ptr<JobJournal>> journal =
        JobJournal::Open("j", vfs);
    ASSERT_TRUE(journal.ok());
    EXPECT_TRUE((*journal)->tail_dropped());
    ASSERT_EQ((*journal)->recovered().size(), 1u);
    // Appending after recovery lands right past the valid prefix.
    ASSERT_TRUE((*journal)->Append(Submitted(3)).ok());
    const std::vector<JournalRecord> records =
        ScanJournalBytes(ReadAll(vfs, "j"), nullptr, nullptr);
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].id, 1u);
    EXPECT_EQ(records[1].id, 3u);
}

TEST(JobJournal, PureNoiseRecoversAsEmpty)
{
    std::string noise(300, '\0');
    std::mt19937_64 rng(7);
    for (char& c : noise)
        c = static_cast<char>(rng() & 0xFF);
    bool dropped = false;
    EXPECT_TRUE(ScanJournalBytes(noise, nullptr, &dropped).empty());
    EXPECT_TRUE(dropped);
}

// Regression: a torn append (transient fault mid-write) must not leave
// garbage that hides every later record from recovery. The journal heals
// by truncating back to its last durable byte.
TEST(JobJournal, TornAppendSelfHealsBeforeNextRecord)
{
    io::MemVfs mem;
    io::ChaosSchedule schedule;
    schedule.ops.push_back(io::ChaosOp{io::ChaosOpKind::kShortWrite,
                                       /*at=*/2, /*arg=*/4,
                                       util::StatusCode::kNoSpace});
    io::ChaosVfs vfs(mem, schedule);

    util::StatusOr<std::unique_ptr<JobJournal>> journal =
        JobJournal::Open("j", vfs);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE((*journal)->Append(Submitted(1)).ok());
    EXPECT_FALSE((*journal)->Append(Submitted(2)).ok());  // torn at 4 bytes
    ASSERT_TRUE((*journal)->Append(Submitted(3)).ok());   // after self-heal

    bool dropped = false;
    const std::vector<JournalRecord> records =
        ScanJournalBytes(ReadAll(mem, "j"), nullptr, &dropped);
    EXPECT_FALSE(dropped) << "torn frame left in place hides record 3";
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].id, 1u);
    EXPECT_EQ(records[1].id, 3u);
}

// Sweep records carry the resume high-water mark, so their round-trip
// and damage behavior matter as much as the classic records': every
// field of a sweep submission and every canonical row byte must survive
// a reopen, and the corruption matrix must still always yield a clean
// prefix — a flipped byte may cost records but never fabricates or
// mutates a row.
TEST(JobJournal, SweepRecordsRoundTripAndSurviveCorruptionMatrix)
{
    JournalRecord submitted;
    submitted.kind = JournalKind::kSubmitted;
    submitted.id = 9;
    submitted.job = "sweep";
    submitted.tenant = "t";
    submitted.workload = "sweep";
    submitted.sweep_of = 4;
    submitted.sweep_timeout_ms = 250;
    submitted.sweep_retries = 2;
    replay::ConfigSpec cache;
    cache.kind = "cache";
    cache.size_kb = 32;
    replay::ConfigSpec tlb;
    tlb.kind = "tlb";
    tlb.entries = 16;
    submitted.configs = {cache, tlb};

    JournalRecord row;
    row.kind = JournalKind::kSweepConfig;
    row.id = 9;
    row.config_index = 1;
    row.row = R"({"config":1,"kind":"tlb","label":"tlb-16e","records":10,)"
              R"("status":"ok","accesses":10,"misses":3,"flushes":0,)"
              R"("miss_rate":0.3})";

    io::MemVfs vfs;
    {
        util::StatusOr<std::unique_ptr<JobJournal>> journal =
            JobJournal::Open("j", vfs);
        ASSERT_TRUE(journal.ok());
        ASSERT_TRUE((*journal)->Append(submitted).ok());
        ASSERT_TRUE((*journal)->Append(row).ok());
        ASSERT_TRUE((*journal)->Append(Finished(9, "done")).ok());
    }
    util::StatusOr<std::unique_ptr<JobJournal>> journal =
        JobJournal::Open("j", vfs);
    ASSERT_TRUE(journal.ok());
    ASSERT_EQ((*journal)->recovered().size(), 3u);
    const JournalRecord& got = (*journal)->recovered()[0];
    EXPECT_EQ(got.job, "sweep");
    EXPECT_EQ(got.sweep_of, 4u);
    EXPECT_EQ(got.sweep_timeout_ms, 250u);
    EXPECT_EQ(got.sweep_retries, 2u);
    ASSERT_EQ(got.configs.size(), 2u);
    EXPECT_EQ(got.configs[0].kind, "cache");
    EXPECT_EQ(got.configs[0].size_kb, 32u);
    EXPECT_EQ(got.configs[1].kind, "tlb");
    EXPECT_EQ(got.configs[1].entries, 16u);
    const JournalRecord& got_row = (*journal)->recovered()[1];
    EXPECT_EQ(got_row.kind, JournalKind::kSweepConfig);
    EXPECT_EQ(got_row.config_index, 1u);
    EXPECT_EQ(got_row.row, row.row);  // byte-identical: S4's foundation

    const std::string clean = ReadAll(vfs, "j");
    for (size_t pos = 0; pos < clean.size(); ++pos) {
        std::string dirty = clean;
        dirty[pos] = static_cast<char>(dirty[pos] ^ 0x5A);
        const std::vector<JournalRecord> records =
            ScanJournalBytes(dirty, nullptr, nullptr);
        ASSERT_LE(records.size(), 3u) << "byte " << pos;
        if (records.size() >= 1) {
            EXPECT_EQ(records[0].sweep_of, 4u) << "byte " << pos;
        }
        if (records.size() >= 2) {
            EXPECT_EQ(records[1].row, row.row) << "byte " << pos;
        }
    }
}

// ---------------------------------------------------------------------------
// Admission control and fair share.

TEST(Admission, ShedsWhenQueueIsFull)
{
    AdmissionConfig config;
    config.max_queue_depth = 2;
    AdmissionController admission(config);
    EXPECT_TRUE(admission.Admit(1, "a").ok());
    EXPECT_TRUE(admission.Admit(2, "b").ok());
    const util::Status shed = admission.Admit(3, "c");
    EXPECT_EQ(shed.code(), util::StatusCode::kResourceExhausted);
}

TEST(Admission, ShedsTenantOverItsShare)
{
    AdmissionConfig config;
    config.max_per_tenant = 2;
    AdmissionController admission(config);
    EXPECT_TRUE(admission.Admit(1, "chatty").ok());
    EXPECT_TRUE(admission.Admit(2, "chatty").ok());
    EXPECT_EQ(admission.Admit(3, "chatty").code(),
              util::StatusCode::kResourceExhausted);
    EXPECT_TRUE(admission.Admit(4, "quiet").ok());  // others unaffected
}

TEST(Admission, FairShareLetsQuietTenantJumpTheQueue)
{
    AdmissionController admission(AdmissionConfig{});
    ASSERT_TRUE(admission.Admit(1, "chatty").ok());
    ASSERT_TRUE(admission.Admit(2, "chatty").ok());
    ASSERT_TRUE(admission.Admit(3, "quiet").ok());

    uint64_t id = 0;
    ASSERT_TRUE(admission.PickNext(&id));
    EXPECT_EQ(id, 1u);  // nobody running yet: plain FIFO
    ASSERT_TRUE(admission.PickNext(&id));
    EXPECT_EQ(id, 3u);  // chatty now holds a worker; quiet's first jumps
    ASSERT_TRUE(admission.PickNext(&id));
    EXPECT_EQ(id, 2u);
    EXPECT_FALSE(admission.PickNext(&id));
}

TEST(Admission, EffectiveQuotaClampsToCaps)
{
    AdmissionConfig config;
    config.default_max_instructions = 1000;
    config.max_instructions_cap = 5000;
    config.max_trace_bytes_cap = 4096;
    AdmissionController admission(config);

    JobQuota asked;  // all zero: take defaults
    JobQuota got = admission.EffectiveQuota(asked);
    EXPECT_EQ(got.max_instructions, 1000u);

    asked.max_instructions = 9999999;
    asked.max_trace_bytes = 1u << 30;
    got = admission.EffectiveQuota(asked);
    EXPECT_EQ(got.max_instructions, 5000u);
    EXPECT_EQ(got.max_trace_bytes, 4096u);
}

// ---------------------------------------------------------------------------
// ServeCore in drill mode (workers == 0, synchronous, in-memory disk).

ServeConfig
DrillConfig()
{
    ServeConfig config;
    config.dir = ".";
    config.workers = 0;
    config.buffer_bytes = 4u << 10;
    config.chunk_records = 64;
    config.checkpoint_every_fills = 1;
    config.keep_checkpoints = 2;
    config.admission.default_max_instructions = 20'000;
    return config;
}

std::string
SubmitPayload(const std::string& workload = "grep")
{
    Request request;
    request.op = RequestOp::kSubmit;
    request.workload = workload;
    return SerializeRequest(request);
}

uint64_t
SubmitOk(ServeCore& core, const std::string& workload = "grep")
{
    const std::string response = core.HandleRequest(SubmitPayload(workload));
    util::StatusOr<util::JsonValue> doc = util::JsonValue::Parse(response);
    EXPECT_TRUE(doc.ok() && doc->Get("ok").AsBool()) << response;
    if (!doc.ok())
        return 0;
    return doc->Get("id").AsU64();
}

const JobInfo*
FindJob(const std::vector<JobInfo>& jobs, uint64_t id)
{
    for (const JobInfo& job : jobs)
        if (job.id == id)
            return &job;
    return nullptr;
}

TEST(ServeCore, SubmitRunStatusLifecycle)
{
    io::MemVfs vfs;
    obs::Registry registry;
    ServeCore core(DrillConfig(), vfs, &registry);
    ASSERT_TRUE(core.Start().ok());

    const uint64_t id = SubmitOk(core);
    ASSERT_NE(id, 0u);
    EXPECT_TRUE(core.RunNextQueuedJob());
    EXPECT_FALSE(core.RunNextQueuedJob());  // queue drained

    const std::vector<JobInfo> jobs = core.Jobs();
    const JobInfo* job = FindJob(jobs, id);
    ASSERT_NE(job, nullptr);
    EXPECT_EQ(job->state, JobState::kDone);
    EXPECT_EQ(job->outcome, "done");
    EXPECT_GT(job->records, 0u);
    core.Shutdown();
}

TEST(ServeCore, RejectsUnknownWorkloadAndBadPayloads)
{
    io::MemVfs vfs;
    obs::Registry registry;
    ServeCore core(DrillConfig(), vfs, &registry);
    ASSERT_TRUE(core.Start().ok());

    EXPECT_FALSE(
        ResponseStatus(core.HandleRequest(SubmitPayload("no-such"))).ok());
    EXPECT_FALSE(ResponseStatus(core.HandleRequest("not json")).ok());
    EXPECT_FALSE(ResponseStatus(core.HandleRequest(
                                    R"({"v":"bogus","op":"ping"})"))
                     .ok());
    EXPECT_TRUE(core.Jobs().empty());  // none of it was admitted
    core.Shutdown();
}

TEST(ServeCore, CancelQueuedJobBeforeItRuns)
{
    io::MemVfs vfs;
    obs::Registry registry;
    ServeCore core(DrillConfig(), vfs, &registry);
    ASSERT_TRUE(core.Start().ok());

    const uint64_t id = SubmitOk(core);
    Request cancel;
    cancel.op = RequestOp::kCancel;
    cancel.id = id;
    cancel.has_id = true;
    EXPECT_TRUE(
        ResponseStatus(core.HandleRequest(SerializeRequest(cancel))).ok());
    EXPECT_FALSE(core.RunNextQueuedJob());  // nothing left to run

    const std::vector<JobInfo> jobs = core.Jobs();
    const JobInfo* job = FindJob(jobs, id);
    ASSERT_NE(job, nullptr);
    EXPECT_EQ(job->state, JobState::kCancelled);
    core.Shutdown();
}

TEST(ServeCore, DrainingRefusesNewSubmissionsAsUnavailable)
{
    io::MemVfs vfs;
    obs::Registry registry;
    ServeCore core(DrillConfig(), vfs, &registry);
    ASSERT_TRUE(core.Start().ok());
    core.RequestDrain();
    const util::Status refused =
        ResponseStatus(core.HandleRequest(SubmitPayload()));
    EXPECT_EQ(refused.code(), util::StatusCode::kUnavailable);
    core.Shutdown();
}

TEST(ServeCore, OverloadShedsWithResourceExhausted)
{
    ServeConfig config = DrillConfig();
    config.admission.max_queue_depth = 1;
    io::MemVfs vfs;
    obs::Registry registry;
    ServeCore core(config, vfs, &registry);
    ASSERT_TRUE(core.Start().ok());

    ASSERT_NE(SubmitOk(core), 0u);
    const util::Status shed =
        ResponseStatus(core.HandleRequest(SubmitPayload()));
    EXPECT_EQ(shed.code(), util::StatusCode::kResourceExhausted);
    core.Shutdown();
}

// Kill-restart: a daemon that dies with a job mid-flight must, on the
// next start, finish that job exactly once (J1 + J2) — whether by
// checkpoint resume or a fresh re-run.
TEST(ServeCore, KillRestartFinishesInterruptedJobExactlyOnce)
{
    io::MemVfs vfs;
    uint64_t id = 0;
    {
        volatile std::sig_atomic_t stop = 0;
        ServeConfig config = DrillConfig();
        config.external_stop = &stop;
        obs::Registry registry;
        ServeCore core(config, vfs, &registry);
        ASSERT_TRUE(core.Start().ok());
        id = SubmitOk(core);
        ASSERT_NE(id, 0u);
        stop = 1;  // the axe falls at the job's first slice boundary
        EXPECT_TRUE(core.RunNextQueuedJob());
        const std::vector<JobInfo> jobs = core.Jobs();
    const JobInfo* job = FindJob(jobs, id);
        ASSERT_NE(job, nullptr);
        EXPECT_EQ(job->state, JobState::kInterrupted);
        // No Shutdown(): the core is dropped like a SIGKILLed process.
    }
    {
        obs::Registry registry;
        ServeCore core(DrillConfig(), vfs, &registry);
        ASSERT_TRUE(core.Start().ok());
        while (core.RunNextQueuedJob()) {
        }
        const std::vector<JobInfo> jobs = core.Jobs();
    const JobInfo* job = FindJob(jobs, id);
        ASSERT_NE(job, nullptr);
        EXPECT_EQ(job->state, JobState::kDone) << job->detail;
        core.Shutdown();
    }
    // J2 in the durable record: exactly one terminal entry for the job.
    int finished = 0;
    for (const JournalRecord& record :
         ScanJournalBytes(ReadAll(vfs, "serve.journal"), nullptr, nullptr))
        if (record.id == id && record.kind == JournalKind::kFinished)
            ++finished;
    EXPECT_EQ(finished, 1);
}

// A daemon killed after a job's final checkpoint but before its kFinished
// record resumes that checkpoint's spent budget: no instruction runs
// again, only the final drain and seal, so the job keeps its records.
TEST(ServeCore, KillAfterFinalCheckpointDoesNotRerunTheBudget)
{
    io::MemVfs vfs;
    uint64_t id = 0;
    uint64_t records = 0;
    {
        obs::Registry registry;
        ServeCore core(DrillConfig(), vfs, &registry);
        ASSERT_TRUE(core.Start().ok());
        id = SubmitOk(core);
        ASSERT_TRUE(core.RunNextQueuedJob());
        const std::vector<JobInfo> jobs = core.Jobs();
        const JobInfo* job = FindJob(jobs, id);
        ASSERT_NE(job, nullptr);
        ASSERT_EQ(job->outcome, "done");
        ASSERT_GT(job->records, 0u);
        records = job->records;
        // No Shutdown(): the core is dropped like a SIGKILLed process.
    }
    // The kill landed before the kFinished record was journaled.
    std::vector<JournalRecord> kept;
    for (const JournalRecord& record :
         ScanJournalBytes(ReadAll(vfs, "serve.journal"), nullptr, nullptr))
        if (record.kind != JournalKind::kFinished)
            kept.push_back(record);
    ASSERT_TRUE(vfs.Unlink("serve.journal").ok());
    {
        util::StatusOr<std::unique_ptr<JobJournal>> journal =
            JobJournal::Open("serve.journal", vfs);
        ASSERT_TRUE(journal.ok()) << journal.status().ToString();
        for (const JournalRecord& record : kept)
            ASSERT_TRUE((*journal)->Append(record).ok());
    }

    obs::Registry registry;
    ServeCore core(DrillConfig(), vfs, &registry);
    ASSERT_TRUE(core.Start().ok());
    while (core.RunNextQueuedJob()) {
    }
    const std::vector<JobInfo> jobs = core.Jobs();
    const JobInfo* job = FindJob(jobs, id);
    ASSERT_NE(job, nullptr);
    EXPECT_EQ(job->state, JobState::kDone) << job->detail;
    EXPECT_TRUE(job->resumed);
    EXPECT_EQ(job->instructions, 0u);
    EXPECT_EQ(job->records, records);
    core.Shutdown();
}

// A job journaled done must never run again on restart (J2), and a
// queued-but-never-started job must be re-admitted and finished (J1).
TEST(ServeCore, RestartRunsQueuedButNeverFinishedJobs)
{
    io::MemVfs vfs;
    uint64_t done_id = 0;
    uint64_t queued_id = 0;
    {
        obs::Registry registry;
        ServeCore core(DrillConfig(), vfs, &registry);
        ASSERT_TRUE(core.Start().ok());
        done_id = SubmitOk(core);
        ASSERT_TRUE(core.RunNextQueuedJob());
        queued_id = SubmitOk(core);
        // Dropped without Shutdown: the queued job never got a worker.
    }
    obs::Registry registry;
    ServeCore core(DrillConfig(), vfs, &registry);
    ASSERT_TRUE(core.Start().ok());
    while (core.RunNextQueuedJob()) {
    }
    const std::vector<JobInfo> jobs = core.Jobs();
    const JobInfo* done_job = FindJob(jobs, done_id);
    const JobInfo* queued_job = FindJob(jobs, queued_id);
    ASSERT_NE(done_job, nullptr);
    ASSERT_NE(queued_job, nullptr);
    EXPECT_EQ(done_job->state, JobState::kDone);
    EXPECT_EQ(queued_job->state, JobState::kDone) << queued_job->detail;
    core.Shutdown();

    int done_started = 0;
    for (const JournalRecord& record :
         ScanJournalBytes(ReadAll(vfs, "serve.journal"), nullptr, nullptr))
        if (record.id == done_id && record.kind == JournalKind::kStarted)
            ++done_started;
    EXPECT_EQ(done_started, 1) << "finished job was started again";
}

TEST(ServeCore, ByteQuotaStopsARunawayTrace)
{
    ServeConfig config = DrillConfig();
    io::MemVfs vfs;
    obs::Registry registry;
    ServeCore core(config, vfs, &registry);
    ASSERT_TRUE(core.Start().ok());

    Request request;
    request.op = RequestOp::kSubmit;
    request.workload = "grep";
    request.quota.max_instructions = 1'000'000;
    request.quota.max_trace_bytes = 8192;
    const std::string response =
        core.HandleRequest(SerializeRequest(request));
    util::StatusOr<util::JsonValue> doc = util::JsonValue::Parse(response);
    ASSERT_TRUE(doc.ok() && doc->Get("ok").AsBool()) << response;
    const uint64_t id = doc->Get("id").AsU64();

    EXPECT_TRUE(core.RunNextQueuedJob());
    const std::vector<JobInfo> jobs = core.Jobs();
    const JobInfo* job = FindJob(jobs, id);
    ASSERT_NE(job, nullptr);
    EXPECT_EQ(job->outcome, "quota-bytes") << job->detail;
    EXPECT_EQ(job->state, JobState::kDone);
    core.Shutdown();
}

// ---------------------------------------------------------------------------
// Replay sweeps through the ServeCore.

std::vector<replay::ConfigSpec>
ThreeSweepConfigs()
{
    replay::ConfigSpec cache;
    cache.kind = "cache";
    cache.size_kb = 8;
    cache.assoc = 2;
    replay::ConfigSpec hierarchy;
    hierarchy.kind = "hierarchy";
    hierarchy.size_kb = 32;
    replay::ConfigSpec tlb;
    tlb.kind = "tlb";
    tlb.entries = 16;
    tlb.ways = 4;
    return {cache, hierarchy, tlb};
}

uint64_t
SweepOk(ServeCore& core, uint64_t of,
        const std::vector<replay::ConfigSpec>& configs)
{
    Request request;
    request.op = RequestOp::kSweep;
    request.sweep_of = of;
    request.sweep_configs = configs;
    const std::string response =
        core.HandleRequest(SerializeRequest(request));
    util::StatusOr<util::JsonValue> doc = util::JsonValue::Parse(response);
    EXPECT_TRUE(doc.ok() && doc->Get("ok").AsBool()) << response;
    if (!doc.ok())
        return 0;
    return doc->Get("id").AsU64();
}

/** Byte offset just past framed record `index` (frames map 1:1 onto
 *  ScanJournalBytes order), for cutting a journal at a frame boundary. */
size_t
FrameEndOffset(const std::string& bytes, size_t index)
{
    size_t off = 0;
    for (size_t i = 0;; ++i) {
        EXPECT_LE(off + 8, bytes.size());
        uint32_t len = 0;
        for (int b = 0; b < 4; ++b)
            len |= static_cast<uint32_t>(
                       static_cast<unsigned char>(bytes[off + b]))
                   << (8 * b);
        off += 8 + len;
        if (i == index)
            return off;
    }
}

TEST(ServeCore, SweepReplaysFinishedCaptureAcrossConfigs)
{
    io::MemVfs vfs;
    obs::Registry registry;
    ServeCore core(DrillConfig(), vfs, &registry);
    ASSERT_TRUE(core.Start().ok());

    const uint64_t capture = SubmitOk(core);
    ASSERT_TRUE(core.RunNextQueuedJob());
    const uint64_t sweep = SweepOk(core, capture, ThreeSweepConfigs());
    ASSERT_NE(sweep, 0u);
    ASSERT_TRUE(core.RunNextQueuedJob());

    const std::vector<JobInfo> jobs = core.Jobs();
    const JobInfo* job = FindJob(jobs, sweep);
    ASSERT_NE(job, nullptr);
    EXPECT_EQ(job->kind, "sweep");
    EXPECT_EQ(job->sweep_of, capture);
    EXPECT_EQ(job->state, JobState::kDone);
    EXPECT_EQ(job->outcome, "done") << job->detail;
    EXPECT_EQ(job->configs_done, 3u);
    EXPECT_EQ(job->configs_failed, 0u);
    ASSERT_EQ(job->sweep_rows.size(), 3u);
    for (size_t i = 0; i < job->sweep_rows.size(); ++i) {
        util::StatusOr<util::JsonValue> row =
            util::JsonValue::Parse(job->sweep_rows[i]);
        ASSERT_TRUE(row.ok()) << job->sweep_rows[i];
        EXPECT_EQ(row->Get("config").AsU64(), i);
        EXPECT_EQ(row->Get("status").AsString(), "ok");
        EXPECT_GT(row->Get("records").AsU64(), 0u);
    }
    core.Shutdown();
}

TEST(ServeCore, SweepRejectsMissingOrUnfinishedTarget)
{
    io::MemVfs vfs;
    obs::Registry registry;
    ServeCore core(DrillConfig(), vfs, &registry);
    ASSERT_TRUE(core.Start().ok());

    Request request;
    request.op = RequestOp::kSweep;
    request.sweep_of = 99;  // no such job
    request.sweep_configs = ThreeSweepConfigs();
    EXPECT_FALSE(
        ResponseStatus(core.HandleRequest(SerializeRequest(request))).ok());

    const uint64_t queued = SubmitOk(core);  // exists but never ran
    request.sweep_of = queued;
    EXPECT_FALSE(
        ResponseStatus(core.HandleRequest(SerializeRequest(request))).ok());
    core.Shutdown();
}

// Per-row isolation: one config with impossible geometry must cost
// exactly its own row — the sweep still terminates, the good configs
// still produce canonical rows, and the outcome degrades to "partial".
TEST(ServeCore, SweepIsolatesBadConfigToOneFailedRow)
{
    io::MemVfs vfs;
    obs::Registry registry;
    ServeCore core(DrillConfig(), vfs, &registry);
    ASSERT_TRUE(core.Start().ok());

    const uint64_t capture = SubmitOk(core);
    ASSERT_TRUE(core.RunNextQueuedJob());
    std::vector<replay::ConfigSpec> configs = ThreeSweepConfigs();
    configs[1].kind = "cache";
    configs[1].block = 24;  // not a power of two: ValidateConfig rejects
    const uint64_t sweep = SweepOk(core, capture, configs);
    ASSERT_NE(sweep, 0u);
    ASSERT_TRUE(core.RunNextQueuedJob());

    const std::vector<JobInfo> jobs = core.Jobs();
    const JobInfo* job = FindJob(jobs, sweep);
    ASSERT_NE(job, nullptr);
    EXPECT_EQ(job->state, JobState::kDone);
    EXPECT_EQ(job->outcome, "partial") << job->detail;
    EXPECT_EQ(job->configs_done, 2u);
    EXPECT_EQ(job->configs_failed, 1u);
    ASSERT_EQ(job->sweep_rows.size(), 3u);
    util::StatusOr<util::JsonValue> bad =
        util::JsonValue::Parse(job->sweep_rows[1]);
    ASSERT_TRUE(bad.ok());
    EXPECT_NE(bad->Get("status").AsString(), "ok");
    EXPECT_FALSE(bad->Get("error").AsString().empty());
    core.Shutdown();
}

// The resume drill, hand-built: run a sweep cleanly, then cut the
// journal back to just after its first per-config record — exactly the
// state a power cut mid-sweep leaves — and boot a fresh core on it. The
// recovered sweep must resume from the journaled high-water mark (the
// surviving row is never re-run: S4/J2) and the merged result must be
// byte-identical to the clean run (S5).
TEST(ServeCore, KillRestartResumesSweepFromJournaledRows)
{
    io::MemVfs vfs;
    uint64_t sweep = 0;
    std::vector<std::string> golden;
    {
        obs::Registry registry;
        ServeCore core(DrillConfig(), vfs, &registry);
        ASSERT_TRUE(core.Start().ok());
        const uint64_t capture = SubmitOk(core);
        ASSERT_TRUE(core.RunNextQueuedJob());
        sweep = SweepOk(core, capture, ThreeSweepConfigs());
        ASSERT_NE(sweep, 0u);
        ASSERT_TRUE(core.RunNextQueuedJob());
        const std::vector<JobInfo> jobs = core.Jobs();
    const JobInfo* job = FindJob(jobs, sweep);
        ASSERT_NE(job, nullptr);
        ASSERT_EQ(job->outcome, "done") << job->detail;
        golden = job->sweep_rows;
        // Dropped without Shutdown, like a SIGKILLed daemon.
    }

    // Cut the journal back to the end of the sweep's first row record.
    const std::string bytes = ReadAll(vfs, "serve.journal");
    const std::vector<JournalRecord> records =
        ScanJournalBytes(bytes, nullptr, nullptr);
    size_t first_row_index = records.size();
    for (size_t i = 0; i < records.size(); ++i) {
        if (records[i].kind == JournalKind::kSweepConfig) {
            first_row_index = i;
            break;
        }
    }
    ASSERT_LT(first_row_index, records.size());
    WriteAll(vfs, "serve.journal",
             bytes.substr(0, FrameEndOffset(bytes, first_row_index)));

    obs::Registry registry;
    ServeCore core(DrillConfig(), vfs, &registry);
    ASSERT_TRUE(core.Start().ok());
    while (core.RunNextQueuedJob()) {
    }
    const std::vector<JobInfo> jobs = core.Jobs();
    const JobInfo* job = FindJob(jobs, sweep);
    ASSERT_NE(job, nullptr);
    EXPECT_EQ(job->state, JobState::kDone);
    EXPECT_EQ(job->outcome, "done") << job->detail;
    EXPECT_TRUE(job->resumed);  // it continued, it did not start over
    ASSERT_EQ(job->sweep_rows.size(), golden.size());
    for (size_t i = 0; i < golden.size(); ++i)
        EXPECT_EQ(job->sweep_rows[i], golden[i]) << "config " << i;
    core.Shutdown();

    // S4/J2 in the durable record: the journaled config was not re-run —
    // exactly one row record per config survives in the final journal.
    std::vector<int> per_config(golden.size(), 0);
    for (const JournalRecord& record :
         ScanJournalBytes(ReadAll(vfs, "serve.journal"), nullptr, nullptr))
        if (record.id == sweep && record.kind == JournalKind::kSweepConfig)
            ++per_config[record.config_index];
    for (size_t i = 0; i < per_config.size(); ++i)
        EXPECT_EQ(per_config[i], 1) << "config " << i;
}

// ---------------------------------------------------------------------------
// The seeded serve chaos campaign (quick shape; the full 200-seed run is
// scripts/test_serve.sh and the nightly workflow).

TEST(ServeChaos, KillRestartCampaignUpholdsInvariants)
{
    chaos::ServeCampaignSpec spec;
    spec.campaigns = {"powercut", "enospc", "torn-rename"};
    spec.jobs = 3;
    spec.max_instructions = 4000;
    util::StatusOr<chaos::ServeCampaignResult> result =
        chaos::RunCampaign(spec, /*first_seed=*/1, /*seeds=*/4);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    for (const chaos::ServeSeedResult& failure : result->failures)
        ADD_FAILURE() << failure.Summary();
    EXPECT_GE(result->power_cuts, 1u);
}

// The sweep variant: light captures plus seed-scripted sweeps (some with
// a deliberately bad config), killed and recovered under the same fault
// mix, with S4/S5 checked per seed. The shape matches what
// `atum-chaos --serve --sweeps` defaults to.
TEST(ServeChaos, SweepKillRestartCampaignUpholdsS4AndS5)
{
    chaos::ServeCampaignSpec spec;
    spec.campaigns = {"powercut", "enospc", "torn-rename"};
    spec.jobs = 2;
    spec.max_instructions = 2000;
    spec.buffer_bytes = 8u << 10;
    spec.sweeps = 2;
    spec.sweep_configs = 3;
    util::StatusOr<chaos::ServeCampaignResult> result =
        chaos::RunCampaign(spec, /*first_seed=*/1, /*seeds=*/6);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    for (const chaos::ServeSeedResult& failure : result->failures)
        ADD_FAILURE() << failure.Summary();
    EXPECT_GE(result->sweeps_acked, 1u);
    EXPECT_GE(result->sweep_rows, 1u);
}

// ---------------------------------------------------------------------------
// Connection governance (pure bookkeeping over an injected clock).

TEST(ConnGovernor, GlobalCapShedsAndCloseReleases)
{
    ConnGovernorConfig config;
    config.max_connections = 2;
    ConnGovernor governor(config);

    EXPECT_TRUE(governor.OnAccept(1, 0).ok());
    EXPECT_TRUE(governor.OnAccept(2, 0).ok());
    util::Status shed = governor.OnAccept(3, 0);
    EXPECT_EQ(shed.code(), util::StatusCode::kResourceExhausted)
        << shed.ToString();
    EXPECT_EQ(governor.open_connections(), 2u);

    governor.OnClose(1);
    EXPECT_TRUE(governor.OnAccept(3, 0).ok());  // the slot came back
}

TEST(ConnGovernor, PerTenantShareIsEnforcedAndMovable)
{
    ConnGovernorConfig config;
    config.max_per_tenant = 1;
    ConnGovernor governor(config);

    ASSERT_TRUE(governor.OnAccept(1, 0).ok());
    ASSERT_TRUE(governor.OnAccept(2, 0).ok());
    EXPECT_TRUE(governor.OnTenant(1, "alice").ok());
    util::Status full = governor.OnTenant(2, "alice");
    EXPECT_EQ(full.code(), util::StatusCode::kResourceExhausted)
        << full.ToString();
    EXPECT_TRUE(governor.OnTenant(2, "bob").ok());

    // Re-naming moves the charge: alice's share frees, bob's fills.
    EXPECT_TRUE(governor.OnTenant(1, "carol").ok());
    ASSERT_TRUE(governor.OnAccept(3, 0).ok());
    EXPECT_TRUE(governor.OnTenant(3, "alice").ok());

    // Closing releases the tenant charge too.
    governor.OnClose(2);
    ASSERT_TRUE(governor.OnAccept(4, 0).ok());
    EXPECT_TRUE(governor.OnTenant(4, "bob").ok());
}

TEST(ConnGovernor, IdleConnectionsAreNamedForEviction)
{
    ConnGovernorConfig config;
    config.idle_timeout_ms = 100;
    ConnGovernor governor(config);

    ASSERT_TRUE(governor.OnAccept(1, 0).ok());
    ASSERT_TRUE(governor.OnAccept(2, 0).ok());
    governor.OnActivity(2, 90);

    std::vector<uint64_t> idle = governor.IdleConnections(150);
    ASSERT_EQ(idle.size(), 1u);
    EXPECT_EQ(idle[0], 1u);  // silent since 0; 2 spoke at 90

    // Activity resets the clock; both go quiet long enough and both
    // are named.
    governor.OnActivity(1, 150);
    governor.OnActivity(2, 160);
    EXPECT_TRUE(governor.IdleConnections(200).empty());
    idle = governor.IdleConnections(400);
    std::sort(idle.begin(), idle.end());
    ASSERT_EQ(idle.size(), 2u);
    EXPECT_EQ(idle[0], 1u);
    EXPECT_EQ(idle[1], 2u);
}

// ---------------------------------------------------------------------------
// Exactly-once submits: the idempotency-token dedup map, live and
// across a kill-restart (N1 at unit scale; the campaigns below drive it
// through a hostile wire).

std::string
TokenSubmitPayload(const std::string& token)
{
    Request request;
    request.op = RequestOp::kSubmit;
    request.workload = "grep";
    request.client_token = token;
    return SerializeRequest(request);
}

/** id and "dup" flag from a submit response (asserts ok). */
std::pair<uint64_t, bool>
SubmitAck(ServeCore& core, const std::string& token)
{
    const std::string response =
        core.HandleRequest(TokenSubmitPayload(token));
    util::StatusOr<util::JsonValue> doc = util::JsonValue::Parse(response);
    EXPECT_TRUE(doc.ok() && doc->Get("ok").AsBool()) << response;
    if (!doc.ok())
        return {0, false};
    return {doc->Get("id").AsU64(),
            doc->Has("dup") && doc->Get("dup").AsBool()};
}

TEST(ServeCore, DuplicateTokenReturnsSameJobWithoutRerunning)
{
    io::MemVfs vfs;
    obs::Registry registry;
    ServeCore core(DrillConfig(), vfs, &registry);
    ASSERT_TRUE(core.Start().ok());

    const auto [id, dup] = SubmitAck(core, "tok-once");
    ASSERT_NE(id, 0u);
    EXPECT_FALSE(dup);
    const auto [id2, dup2] = SubmitAck(core, "tok-once");
    EXPECT_EQ(id2, id);
    EXPECT_TRUE(dup2);
    const auto [id3, dup3] = SubmitAck(core, "tok-other");
    EXPECT_NE(id3, id);  // a different token is a different job
    EXPECT_FALSE(dup3);

    while (core.RunNextQueuedJob()) {
    }
    EXPECT_EQ(core.Jobs().size(), 2u);  // two tokens, two jobs — not three
    core.Shutdown();
}

TEST(ServeCore, TokenDedupSurvivesKillRestart)
{
    io::MemVfs vfs;
    uint64_t id = 0;
    {
        obs::Registry registry;
        ServeCore core(DrillConfig(), vfs, &registry);
        ASSERT_TRUE(core.Start().ok());
        std::tie(id, std::ignore) = SubmitAck(core, "tok-crash");
        ASSERT_NE(id, 0u);
        // Dropped without Shutdown, like a SIGKILLed daemon; the ack
        // may or may not have reached the client — it retries.
    }

    obs::Registry registry;
    ServeCore core(DrillConfig(), vfs, &registry);
    ASSERT_TRUE(core.Start().ok());
    const auto [retry_id, retry_dup] = SubmitAck(core, "tok-crash");
    EXPECT_EQ(retry_id, id);  // same token, same job, across the crash
    EXPECT_TRUE(retry_dup);
    while (core.RunNextQueuedJob()) {
    }
    EXPECT_EQ(core.Jobs().size(), 1u);
    core.Shutdown();
}

// ---------------------------------------------------------------------------
// The hostile-network drills (quick shapes; the 200-seed acceptance run
// is scripts/test_serve.sh and the nightly workflow).

chaos::NetCampaignSpec
QuickNetSpec()
{
    chaos::NetCampaignSpec spec;
    spec.submits = 3;
    spec.max_instructions = 2000;
    return spec;
}

TEST(NetChaos, HostileWireCampaignUpholdsN1N2N3)
{
    chaos::NetCampaignSpec spec = QuickNetSpec();
    spec.campaigns = {"net-flaky", "net-cut", "net-flip",
                      "net-stall", "net-dup", "net-kill"};
    util::StatusOr<chaos::NetCampaignResult> result =
        chaos::RunCampaign(spec, /*first_seed=*/1, /*seeds=*/6);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    for (const chaos::NetSeedResult& failure : result->failures)
        ADD_FAILURE() << failure.Summary();
    EXPECT_GT(result->faults_fired, 0u);
    EXPECT_GT(result->acks, 0u);
}

// The teeth test: reintroduce the pre-hardening bug (no idempotency
// dedup) behind its test knob and prove a hand-written two-op net
// schedule — a duplicated submit delivery — is caught as the N1
// "net-double-run" violation, while the hardened daemon sails through
// the identical drill. If the battery cannot bite this, it cannot bite
// anything.
struct TokenDedupBugGuard {
    TokenDedupBugGuard() { SetTokenDedupForTest(false); }
    ~TokenDedupBugGuard() { SetTokenDedupForTest(true); }
};

io::ChaosSchedule
DupDeliverySchedule()
{
    io::ChaosSchedule schedule;
    schedule.seed = 11;
    schedule.campaigns = {"net-dup"};
    io::ChaosOp dup;
    dup.kind = io::ChaosOpKind::kDupRequest;
    dup.at = 1;  // the first scripted request is always a tokened submit
    schedule.ops = {dup};
    return schedule;
}

TEST(NetChaos, TeethDedupBugIsCaughtAsDoubleRunAndFixPasses)
{
    const chaos::NetCampaignSpec spec = QuickNetSpec();
    const io::ChaosSchedule schedule = DupDeliverySchedule();

    util::StatusOr<chaos::NetSeedResult> good =
        chaos::ReplaySchedule(spec, schedule);
    ASSERT_TRUE(good.ok()) << good.status().ToString();
    EXPECT_TRUE(good->ok()) << good->Summary();
    EXPECT_GE(good->dup_acks, 1u);  // dedup answered the duplicate

    {
        TokenDedupBugGuard bug;
        util::StatusOr<chaos::NetSeedResult> broken =
            chaos::ReplaySchedule(spec, schedule);
        ASSERT_TRUE(broken.ok()) << broken.status().ToString();
        ASSERT_FALSE(broken->ok()) << "the drill failed to bite the bug";
        EXPECT_EQ(broken->violations[0].invariant, "net-double-run")
            << broken->Summary();
    }

    util::StatusOr<chaos::NetSeedResult> fixed =
        chaos::ReplaySchedule(spec, schedule);
    ASSERT_TRUE(fixed.ok()) << fixed.status().ToString();
    EXPECT_TRUE(fixed->ok()) << fixed->Summary();
}

// Minimization must strip the noise ops and hand back exactly the
// duplicate delivery that trips the reintroduced bug.
TEST(NetChaos, MinimizeNetShrinksToTheDuplicateDelivery)
{
    const chaos::NetCampaignSpec spec = QuickNetSpec();
    io::ChaosSchedule noisy = DupDeliverySchedule();
    io::ChaosOp shorts;
    shorts.kind = io::ChaosOpKind::kShortSend;
    shorts.at = 2;
    shorts.arg = 3;
    io::ChaosOp stall;
    stall.kind = io::ChaosOpKind::kStallRecv;
    stall.at = 200;  // far past the drill's recv count: never fires
    noisy.ops.push_back(shorts);
    noisy.ops.push_back(stall);

    TokenDedupBugGuard bug;
    util::StatusOr<io::ChaosSchedule> minimal =
        chaos::Minimize(spec, noisy);
    ASSERT_TRUE(minimal.ok()) << minimal.status().ToString();
    ASSERT_EQ(minimal->ops.size(), 1u);
    EXPECT_EQ(minimal->ops[0].kind, io::ChaosOpKind::kDupRequest);
    EXPECT_EQ(minimal->ops[0].at, 1u);

    // The minimized schedule round-trips through its text form and
    // still reproduces — the artifact a failing campaign writes out.
    util::StatusOr<io::ChaosSchedule> reparsed =
        io::ChaosSchedule::Parse(minimal->Serialize());
    ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
    util::StatusOr<chaos::NetSeedResult> replay =
        chaos::ReplaySchedule(spec, *reparsed);
    ASSERT_TRUE(replay.ok()) << replay.status().ToString();
    EXPECT_FALSE(replay->ok());
}

// ---------------------------------------------------------------------------
// Protocol fuzzing: the seeded sweep stays clean, and the pinned corpus
// of hostile byte strings replays through the codec within its contract
// (no crash, no hang, no over-buffering) — the fuzz-regression lane.

TEST(ProtocolFuzz, SeededSweepFindsNoCodecViolations)
{
    const chaos::FuzzReport report = chaos::FuzzProtocol(/*seed=*/1,
                                                         /*inputs=*/2000);
    for (const chaos::InvariantViolation& violation : report.violations)
        ADD_FAILURE() << violation.invariant << ": " << violation.detail;
    EXPECT_EQ(report.inputs, 2000u);
    EXPECT_GT(report.frames, 0u);
    EXPECT_GT(report.parsed, 0u);
    EXPECT_GT(report.rejected, 0u);
}

std::vector<std::filesystem::path>
ProtocolCorpusFiles()
{
    std::vector<std::filesystem::path> files;
    for (const auto& entry :
         std::filesystem::directory_iterator(ATUM_PROTOCOL_CORPUS_DIR))
        if (entry.path().extension() == ".bin")
            files.push_back(entry.path());
    std::sort(files.begin(), files.end());
    return files;
}

TEST(ProtocolFuzz, PinnedCorpusReplaysWithinTheCodecContract)
{
    const std::vector<std::filesystem::path> files = ProtocolCorpusFiles();
    ASSERT_GE(files.size(), 10u)
        << "pinned corpus went missing from " << ATUM_PROTOCOL_CORPUS_DIR;

    for (const std::filesystem::path& path : files) {
        SCOPED_TRACE(path.filename().string());
        std::ifstream in(path, std::ios::binary);
        ASSERT_TRUE(in.good());
        std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());

        FrameParser parser;
        int steps = 0;
        bool poisoned = false;
        for (size_t off = 0; off < bytes.size() && !poisoned; off += 7) {
            parser.Feed(bytes.data() + off,
                        std::min<size_t>(7, bytes.size() - off));
            for (;;) {
                ASSERT_LT(++steps, 10'000) << "frame extraction wedged";
                std::string payload;
                util::StatusOr<bool> got = parser.Next(&payload);
                if (!got.ok()) {
                    // Poisoned (oversized length): a structured error,
                    // and the connection would close — stop feeding.
                    poisoned = true;
                    break;
                }
                if (!*got)
                    break;
                util::StatusOr<Request> request = ParseRequest(payload);
                if (request.ok()) {
                    // Valid requests must round-trip through the codec.
                    util::StatusOr<Request> again =
                        ParseRequest(SerializeRequest(*request));
                    ASSERT_TRUE(again.ok()) << again.status().ToString();
                    EXPECT_EQ(again->op, request->op);
                }
            }
            EXPECT_LE(parser.pending_bytes(),
                      size_t{kMaxFrameBytes} + 4)
                << "parser buffered past the frame cap";
        }
    }
}

}  // namespace
}  // namespace atum::serve
