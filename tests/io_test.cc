// Unit tests for the io library: the Vfs seam, MemVfs's durability model
// (what survives a power cut), ChaosVfs fault injection, and the chaos
// schedule's text format.

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdint>
#include <string>
#include <vector>

#include "io/chaos.h"
#include "io/mem_vfs.h"
#include "io/posix.h"
#include "io/vfs.h"
#include "util/status.h"

namespace atum::io {
namespace {

std::vector<uint8_t>
Bytes(const std::string& s)
{
    return std::vector<uint8_t>(s.begin(), s.end());
}

/** Creates `path` with `content`, optionally fsyncing it. */
void
Put(Vfs& vfs, const std::string& path, const std::string& content,
    bool sync)
{
    util::StatusOr<std::unique_ptr<WritableFile>> f = vfs.Create(path);
    ASSERT_TRUE(f.ok()) << f.status().ToString();
    ASSERT_TRUE((*f)->Write(content.data(), content.size()).ok());
    if (sync) {
        ASSERT_TRUE((*f)->Sync().ok());
    }
    ASSERT_TRUE((*f)->Close().ok());
}

std::string
Get(Vfs& vfs, const std::string& path)
{
    util::StatusOr<std::string> bytes = ReadFile(vfs, path);
    if (bytes.ok())
        return *bytes;
    std::string error = "<";
    error += bytes.status().ToString();
    error += '>';
    return error;
}

// ---------------------------------------------------------------------------
// posix helpers

TEST(Posix, ErrnoStatusClassifies)
{
    EXPECT_EQ(ErrnoStatus(ENOSPC, "x").code(), util::StatusCode::kNoSpace);
    EXPECT_EQ(ErrnoStatus(EDQUOT, "x").code(), util::StatusCode::kNoSpace);
    EXPECT_EQ(ErrnoStatus(ENOENT, "x").code(), util::StatusCode::kNotFound);
    EXPECT_EQ(ErrnoStatus(EINTR, "x").code(),
              util::StatusCode::kInterrupted);
    EXPECT_EQ(ErrnoStatus(EACCES, "x").code(), util::StatusCode::kIoError);
}

TEST(Posix, DirOf)
{
    EXPECT_EQ(DirOf("a/b/c.atf2"), "a/b");
    EXPECT_EQ(DirOf("c.atf2"), ".");
    EXPECT_EQ(DirOf("/c.atf2"), "/");
}

// ---------------------------------------------------------------------------
// RealVfs (against the host filesystem, inside the build tree)

TEST(RealVfs, RoundTrip)
{
    Vfs& vfs = RealVfs();
    EXPECT_STREQ(vfs.name(), "real");
    const std::string path = "io_test_roundtrip.tmp";
    Put(vfs, path, "hello vfs", /*sync=*/true);
    EXPECT_EQ(Get(vfs, path), "hello vfs");

    // Atomic publish: rename then dirsync, then read the final name.
    const std::string final_path = "io_test_roundtrip.dat";
    ASSERT_TRUE(vfs.Rename(path, final_path).ok());
    ASSERT_TRUE(vfs.DirSync(final_path).ok());
    EXPECT_EQ(Get(vfs, final_path), "hello vfs");

    // Resume semantics: append at a mid-file high-water mark.
    util::StatusOr<std::unique_ptr<WritableFile>> f =
        vfs.OpenForAppendAt(final_path, 5);
    ASSERT_TRUE(f.ok()) << f.status().ToString();
    ASSERT_TRUE((*f)->Write("atum!", 5).ok());
    ASSERT_TRUE((*f)->Close().ok());
    EXPECT_EQ(Get(vfs, final_path), "helloatum!");

    // A high-water mark past EOF means the trace/checkpoint mismatch.
    EXPECT_EQ(vfs.OpenForAppendAt(final_path, 999).status().code(),
              util::StatusCode::kDataLoss);
    EXPECT_EQ(vfs.OpenForAppendAt("io_test_missing", 0).status().code(),
              util::StatusCode::kNotFound);

    ASSERT_TRUE(vfs.Unlink(final_path).ok());
    EXPECT_EQ(vfs.Unlink(final_path).code(), util::StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// MemVfs durability model

TEST(MemVfs, VolatileUntilSync)
{
    MemVfs vfs;
    Put(vfs, "a", "unsynced", /*sync=*/false);
    Put(vfs, "b", "synced", /*sync=*/true);

    // The live view has both; only the synced file survives the cut.
    EXPECT_EQ(Get(vfs, "a"), "unsynced");
    const MemVfs::Snapshot snap = vfs.SnapshotDurable();
    EXPECT_EQ(snap.files.count("a"), 0u);
    ASSERT_EQ(snap.files.count("b"), 1u);
    EXPECT_EQ(snap.files.at("b"), Bytes("synced"));

    MemVfs rebooted(snap);
    EXPECT_FALSE(rebooted.Exists("a"));
    EXPECT_EQ(Get(rebooted, "b"), "synced");
}

TEST(MemVfs, WritesAfterSyncAreVolatile)
{
    MemVfs vfs;
    util::StatusOr<std::unique_ptr<WritableFile>> f = vfs.Create("t");
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->Write("AAAA", 4).ok());
    ASSERT_TRUE((*f)->Sync().ok());
    ASSERT_TRUE((*f)->Write("BBBB", 4).ok());  // never synced
    const MemVfs::Snapshot snap = vfs.SnapshotDurable();
    ASSERT_EQ(snap.files.count("t"), 1u);
    EXPECT_EQ(snap.files.at("t"), Bytes("AAAA"));
    EXPECT_EQ(Get(vfs, "t"), "AAAABBBB");  // live view sees everything
}

TEST(MemVfs, RenameNeedsDirSyncToSurvive)
{
    MemVfs vfs;
    Put(vfs, "x.tmp", "payload", /*sync=*/true);
    ASSERT_TRUE(vfs.Rename("x.tmp", "x").ok());

    // Without DirSync the cut resurrects the OLD name.
    MemVfs::Snapshot before = vfs.SnapshotDurable();
    EXPECT_EQ(before.files.count("x"), 0u);
    EXPECT_EQ(before.files.count("x.tmp"), 1u);

    // After DirSync the publish is durable.
    ASSERT_TRUE(vfs.DirSync("x").ok());
    MemVfs::Snapshot after = vfs.SnapshotDurable();
    EXPECT_EQ(after.files.count("x.tmp"), 0u);
    ASSERT_EQ(after.files.count("x"), 1u);
    EXPECT_EQ(after.files.at("x"), Bytes("payload"));
}

TEST(MemVfs, UnlinkNeedsDirSyncToSurvive)
{
    MemVfs vfs;
    Put(vfs, "doomed", "bits", /*sync=*/true);
    ASSERT_TRUE(vfs.Unlink("doomed").ok());
    EXPECT_EQ(vfs.SnapshotDurable().files.count("doomed"), 1u);
    ASSERT_TRUE(vfs.DirSync("doomed").ok());
    EXPECT_EQ(vfs.SnapshotDurable().files.count("doomed"), 0u);
}

TEST(MemVfs, OpenForAppendAtTruncates)
{
    MemVfs vfs;
    Put(vfs, "t", "0123456789", /*sync=*/true);
    util::StatusOr<std::unique_ptr<WritableFile>> f =
        vfs.OpenForAppendAt("t", 4);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->Write("XY", 2).ok());
    EXPECT_EQ(Get(vfs, "t"), "0123XY");
    EXPECT_EQ(vfs.OpenForAppendAt("t", 64).status().code(),
              util::StatusCode::kDataLoss);
    EXPECT_EQ(vfs.OpenForAppendAt("nope", 0).status().code(),
              util::StatusCode::kNotFound);
}

TEST(MemVfs, ListDirReturnsSortedBasenames)
{
    MemVfs vfs;
    Put(vfs, "d/b.atf2", "x", /*sync=*/false);
    Put(vfs, "d/a.atck", "y", /*sync=*/false);
    Put(vfs, "other/c", "z", /*sync=*/false);
    Put(vfs, "rootfile", "w", /*sync=*/false);

    util::StatusOr<std::vector<std::string>> names = vfs.ListDir("d");
    ASSERT_TRUE(names.ok());
    ASSERT_EQ(names->size(), 2u);
    EXPECT_EQ((*names)[0], "a.atck");
    EXPECT_EQ((*names)[1], "b.atf2");

    names = vfs.ListDir(".");
    ASSERT_TRUE(names.ok());
    ASSERT_EQ(names->size(), 1u);
    EXPECT_EQ((*names)[0], "rootfile");

    // MemVfs has no directory inodes: an unknown dir is simply empty.
    names = vfs.ListDir("missing");
    ASSERT_TRUE(names.ok());
    EXPECT_TRUE(names->empty());
}

TEST(RealVfs, ListDirSeesRegularFiles)
{
    Vfs& vfs = RealVfs();
    const std::string path = "io_test_listdir.tmp";
    Put(vfs, path, "x", /*sync=*/false);
    util::StatusOr<std::vector<std::string>> names = vfs.ListDir(".");
    ASSERT_TRUE(names.ok());
    bool found = false;
    for (const std::string& name : *names)
        found |= name == path;
    EXPECT_TRUE(found);
    ASSERT_TRUE(vfs.Unlink(path).ok());
    EXPECT_EQ(vfs.ListDir("io_test_no_such_dir").status().code(),
              util::StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// ChaosVfs fault injection

ChaosSchedule
OneOp(ChaosOpKind kind, uint64_t at, uint64_t arg = 0,
      util::StatusCode error = util::StatusCode::kIoError)
{
    ChaosSchedule s;
    s.ops.push_back(ChaosOp{kind, at, arg, error});
    return s;
}

TEST(ChaosVfs, EmptyScheduleIsAProbe)
{
    MemVfs mem;
    ChaosVfs vfs(mem, ChaosSchedule{});
    Put(vfs, "p", "data", /*sync=*/true);
    EXPECT_EQ(Get(vfs, "p"), "data");
    ASSERT_TRUE(vfs.Rename("p", "q").ok());
    ASSERT_TRUE(vfs.DirSync("q").ok());
    EXPECT_EQ(vfs.counts().writes, 1u);
    EXPECT_EQ(vfs.counts().syncs, 1u);
    EXPECT_EQ(vfs.counts().reads, 2u);  // data + the EOF probe
    EXPECT_EQ(vfs.counts().renames, 1u);
    EXPECT_EQ(vfs.counts().dirsyncs, 1u);
    EXPECT_EQ(vfs.faults_fired(), 0u);
}

TEST(ChaosVfs, FailWriteAtIndex)
{
    MemVfs mem;
    ChaosVfs vfs(mem, OneOp(ChaosOpKind::kFailWrite, 2, 0,
                            util::StatusCode::kNoSpace));
    util::StatusOr<std::unique_ptr<WritableFile>> f = vfs.Create("t");
    ASSERT_TRUE(f.ok());
    EXPECT_TRUE((*f)->Write("one", 3).ok());
    util::Status second = (*f)->Write("two", 3);
    EXPECT_EQ(second.code(), util::StatusCode::kNoSpace);
    EXPECT_TRUE((*f)->Write("three", 5).ok());  // ops fire exactly once
    EXPECT_EQ(vfs.faults_fired(), 1u);
    EXPECT_EQ(Get(vfs, "t"), "onethree");
}

TEST(ChaosVfs, ShortWriteKeepsPrefix)
{
    MemVfs mem;
    ChaosVfs vfs(mem, OneOp(ChaosOpKind::kShortWrite, 1, 2));
    util::StatusOr<std::unique_ptr<WritableFile>> f = vfs.Create("t");
    ASSERT_TRUE(f.ok());
    EXPECT_FALSE((*f)->Write("abcdef", 6).ok());
    EXPECT_EQ(Get(vfs, "t"), "ab");  // the torn prefix landed
}

TEST(ChaosVfs, FlipWriteIsSilent)
{
    MemVfs mem;
    ChaosVfs vfs(mem, OneOp(ChaosOpKind::kFlipWrite, 1, 1));
    util::StatusOr<std::unique_ptr<WritableFile>> f = vfs.Create("t");
    ASSERT_TRUE(f.ok());
    EXPECT_TRUE((*f)->Write("abc", 3).ok());  // no error reported
    const std::string got = Get(vfs, "t");
    ASSERT_EQ(got.size(), 3u);
    EXPECT_EQ(got[0], 'a');
    EXPECT_NE(got[1], 'b');  // byte 1 flipped
    EXPECT_EQ(got[2], 'c');
}

TEST(ChaosVfs, PowerCutWriteKillsTheWorld)
{
    MemVfs mem;
    ChaosVfs vfs(mem, OneOp(ChaosOpKind::kPowerCutWrite, 2));
    Put(vfs, "before", "durable", /*sync=*/true);

    util::StatusOr<std::unique_ptr<WritableFile>> f = vfs.Create("t");
    ASSERT_TRUE(f.ok());
    util::Status cut = (*f)->Write("lost", 4);
    EXPECT_EQ(cut.code(), util::StatusCode::kUnavailable);
    EXPECT_TRUE(vfs.power_cut_fired());
    EXPECT_EQ(*vfs.cut_flag(), 1);

    // Everything after the cut fails against the dead filesystem.
    EXPECT_EQ((*f)->Sync().code(), util::StatusCode::kUnavailable);
    EXPECT_EQ(vfs.Rename("before", "after").code(),
              util::StatusCode::kUnavailable);
    EXPECT_EQ(vfs.Create("new").status().code(),
              util::StatusCode::kUnavailable);
    EXPECT_EQ(vfs.OpenRead("before").status().code(),
              util::StatusCode::kUnavailable);
    EXPECT_EQ(vfs.ListDir(".").status().code(),
              util::StatusCode::kUnavailable);

    // The snapshot holds the durable view: the synced file, intact; the
    // cut write (and its never-synced file) gone.
    const MemVfs::Snapshot& snap = vfs.snapshot();
    EXPECT_EQ(snap.files.count("before"), 1u);
    EXPECT_EQ(snap.files.count("t"), 0u);
}

TEST(ChaosVfs, PowerCutSyncDiscardsTheBarrier)
{
    MemVfs mem;
    ChaosVfs vfs(mem, OneOp(ChaosOpKind::kPowerCutSync, 1));
    util::StatusOr<std::unique_ptr<WritableFile>> f = vfs.Create("t");
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->Write("data", 4).ok());
    EXPECT_EQ((*f)->Sync().code(), util::StatusCode::kUnavailable);
    // The cut fired BEFORE the barrier committed: nothing is durable.
    EXPECT_EQ(vfs.snapshot().files.count("t"), 0u);
}

TEST(ChaosVfs, PowerCutRenameIsATornPublish)
{
    MemVfs mem;
    ChaosVfs vfs(mem, OneOp(ChaosOpKind::kPowerCutRename, 1));
    Put(vfs, "x.tmp", "payload", /*sync=*/true);

    // The rename REPORTS success — the caller believes the publish
    // happened — but the cut fires before any DirSync can land it.
    EXPECT_TRUE(vfs.Rename("x.tmp", "x").ok());
    EXPECT_TRUE(vfs.power_cut_fired());
    EXPECT_EQ(vfs.DirSync("x").code(), util::StatusCode::kUnavailable);

    const MemVfs::Snapshot& snap = vfs.snapshot();
    EXPECT_EQ(snap.files.count("x"), 0u);      // publish did not survive
    EXPECT_EQ(snap.files.count("x.tmp"), 1u);  // old name resurrected
}

TEST(ChaosVfs, FlipReadRotsTheReadback)
{
    MemVfs mem;
    ChaosVfs vfs(mem, OneOp(ChaosOpKind::kFlipRead, 1, 0));
    Put(vfs, "t", "abc", /*sync=*/true);
    util::StatusOr<std::unique_ptr<ReadableFile>> f = vfs.OpenRead("t");
    ASSERT_TRUE(f.ok());
    char buf[8];
    util::StatusOr<size_t> got = (*f)->Read(buf, sizeof buf);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(*got, 3u);
    EXPECT_NE(buf[0], 'a');  // byte 0 flipped
    EXPECT_EQ(buf[1], 'b');
}

TEST(ChaosVfs, FailDirSync)
{
    MemVfs mem;
    ChaosVfs vfs(mem, OneOp(ChaosOpKind::kFailDirSync, 1));
    Put(vfs, "x.tmp", "p", /*sync=*/true);
    ASSERT_TRUE(vfs.Rename("x.tmp", "x").ok());
    EXPECT_EQ(vfs.DirSync("x").code(), util::StatusCode::kIoError);
    EXPECT_TRUE(vfs.DirSync("x").ok());  // fires once
}

// ---------------------------------------------------------------------------
// Schedule text format

TEST(ChaosSchedule, SerializeParseRoundTrip)
{
    ChaosSchedule s;
    s.seed = 42;
    s.campaigns = {"powercut", "enospc"};
    s.ops = {
        ChaosOp{ChaosOpKind::kFailWrite, 57, 0, util::StatusCode::kNoSpace},
        ChaosOp{ChaosOpKind::kShortWrite, 30, 7, util::StatusCode::kIoError},
        ChaosOp{ChaosOpKind::kFlipWrite, 9, 100, util::StatusCode::kIoError},
        ChaosOp{ChaosOpKind::kPowerCutWrite, 133, 0,
                util::StatusCode::kIoError},
        ChaosOp{ChaosOpKind::kFailSync, 2, 0,
                util::StatusCode::kInterrupted},
        ChaosOp{ChaosOpKind::kPowerCutRename, 1, 0,
                util::StatusCode::kIoError},
    };
    const std::string text = s.Serialize();
    util::StatusOr<ChaosSchedule> back = ChaosSchedule::Parse(text);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(back->seed, s.seed);
    EXPECT_EQ(back->campaigns, s.campaigns);
    ASSERT_EQ(back->ops.size(), s.ops.size());
    for (size_t i = 0; i < s.ops.size(); ++i) {
        EXPECT_EQ(back->ops[i].kind, s.ops[i].kind) << "op " << i;
        EXPECT_EQ(back->ops[i].at, s.ops[i].at) << "op " << i;
        EXPECT_EQ(back->ops[i].arg, s.ops[i].arg) << "op " << i;
        EXPECT_EQ(back->ops[i].error, s.ops[i].error) << "op " << i;
    }
    EXPECT_EQ(back->Serialize(), text);  // canonical form is stable
}

TEST(ChaosSchedule, ParseToleratesCommentsAndBlanks)
{
    const std::string text =
        "# a comment\n"
        "\n"
        "seed 7\n"
        "campaign torn-rename\n"
        "op power-cut-rename 1  # trailing comment\n";
    util::StatusOr<ChaosSchedule> s = ChaosSchedule::Parse(text);
    ASSERT_TRUE(s.ok()) << s.status().ToString();
    EXPECT_EQ(s->seed, 7u);
    ASSERT_EQ(s->ops.size(), 1u);
    EXPECT_EQ(s->ops[0].kind, ChaosOpKind::kPowerCutRename);
}

TEST(ChaosSchedule, ParseRejectsGarbage)
{
    EXPECT_FALSE(ChaosSchedule::Parse("op explode 1\n").ok());
    EXPECT_FALSE(ChaosSchedule::Parse("frobnicate\n").ok());
    EXPECT_FALSE(ChaosSchedule::Parse("op fail-write\n").ok());
    EXPECT_FALSE(ChaosSchedule::Parse("op fail-write 0\n").ok());
}

TEST(ChaosSchedule, RandomIsDeterministic)
{
    OpCounts probe;
    probe.writes = 1000;
    probe.syncs = 40;
    probe.reads = 10;
    probe.renames = 12;
    probe.dirsyncs = 12;
    const std::vector<std::string> campaigns = {"powercut", "enospc",
                                                "torn-rename"};
    util::StatusOr<ChaosSchedule> a =
        ChaosSchedule::Random(7, campaigns, probe);
    util::StatusOr<ChaosSchedule> b =
        ChaosSchedule::Random(7, campaigns, probe);
    util::StatusOr<ChaosSchedule> c =
        ChaosSchedule::Random(8, campaigns, probe);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_TRUE(c.ok());
    EXPECT_EQ(a->Serialize(), b->Serialize());
    EXPECT_NE(a->Serialize(), c->Serialize());
    EXPECT_FALSE(a->ops.empty());

    EXPECT_FALSE(ChaosSchedule::Random(1, {"no-such"}, probe).ok());
}

}  // namespace
}  // namespace atum::io
