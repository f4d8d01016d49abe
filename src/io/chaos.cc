#include "io/chaos.h"

#include <algorithm>
#include <sstream>

#include "util/rng.h"

namespace atum::io {

namespace {

struct KindInfo {
    ChaosOpKind kind;
    const char* name;
    bool takes_error;  ///< third token is an error class
    bool takes_arg;    ///< third token is a numeric argument
};

constexpr KindInfo kKinds[] = {
    {ChaosOpKind::kFailWrite, "fail-write", true, false},
    {ChaosOpKind::kShortWrite, "short-write", false, true},
    {ChaosOpKind::kFlipWrite, "flip-write", false, true},
    {ChaosOpKind::kPowerCutWrite, "power-cut-write", false, false},
    {ChaosOpKind::kFailSync, "fail-sync", true, false},
    {ChaosOpKind::kPowerCutSync, "power-cut-sync", false, false},
    {ChaosOpKind::kFailRead, "fail-read", true, false},
    {ChaosOpKind::kFlipRead, "flip-read", false, true},
    {ChaosOpKind::kFailRename, "fail-rename", true, false},
    {ChaosOpKind::kPowerCutRename, "power-cut-rename", false, false},
    {ChaosOpKind::kFailUnlink, "fail-unlink", true, false},
    {ChaosOpKind::kFailDirSync, "fail-dirsync", true, false},
    {ChaosOpKind::kFailSend, "fail-send", true, false},
    {ChaosOpKind::kShortSend, "short-send", false, true},
    {ChaosOpKind::kFlipSend, "flip-send", false, true},
    {ChaosOpKind::kCutSend, "cut-send", false, false},
    {ChaosOpKind::kFailRecv, "fail-recv", true, false},
    {ChaosOpKind::kShortRecv, "short-recv", false, true},
    {ChaosOpKind::kFlipRecv, "flip-recv", false, true},
    {ChaosOpKind::kCutRecv, "cut-recv", false, false},
    {ChaosOpKind::kStallRecv, "stall-recv", false, false},
    {ChaosOpKind::kDupRequest, "dup-request", false, false},
    {ChaosOpKind::kKillServe, "kill-serve", false, false},
};

const KindInfo*
FindKind(ChaosOpKind kind)
{
    for (const KindInfo& k : kKinds)
        if (k.kind == kind)
            return &k;
    return nullptr;
}

const KindInfo*
FindKind(const std::string& name)
{
    for (const KindInfo& k : kKinds)
        if (name == k.name)
            return &k;
    return nullptr;
}

const char*
ErrorToken(util::StatusCode code)
{
    switch (code) {
      case util::StatusCode::kNoSpace:
        return "nospace";
      case util::StatusCode::kInterrupted:
        return "intr";
      case util::StatusCode::kUnavailable:
        return "unavail";
      default:
        return "io";
    }
}

bool
ParseErrorToken(const std::string& token, util::StatusCode* code)
{
    if (token == "nospace")
        *code = util::StatusCode::kNoSpace;
    else if (token == "intr")
        *code = util::StatusCode::kInterrupted;
    else if (token == "unavail")
        *code = util::StatusCode::kUnavailable;
    else if (token == "io")
        *code = util::StatusCode::kIoError;
    else
        return false;
    return true;
}

}  // namespace

std::string
ChaosSchedule::Serialize() const
{
    std::ostringstream out;
    out << "# atum-chaos schedule v1\n";
    out << "seed " << seed << "\n";
    if (!campaigns.empty()) {
        out << "campaign ";
        for (size_t i = 0; i < campaigns.size(); ++i)
            out << (i ? "," : "") << campaigns[i];
        out << "\n";
    }
    for (const ChaosOp& op : ops) {
        const KindInfo* info = FindKind(op.kind);
        out << "op " << info->name << " " << op.at;
        if (info->takes_error)
            out << " " << ErrorToken(op.error);
        else if (info->takes_arg)
            out << " " << op.arg;
        out << "\n";
    }
    return out.str();
}

util::StatusOr<ChaosSchedule>
ChaosSchedule::Parse(const std::string& text)
{
    ChaosSchedule schedule;
    std::istringstream in(text);
    std::string line;
    size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (const size_t hash = line.find('#'); hash != std::string::npos)
            line.erase(hash);
        std::istringstream ls(line);
        std::string word;
        if (!(ls >> word))
            continue;
        if (word == "seed") {
            if (!(ls >> schedule.seed))
                return util::InvalidArgument("schedule line ", lineno,
                                             ": seed needs a number");
        } else if (word == "campaign") {
            std::string list;
            ls >> list;
            std::string item;
            std::istringstream items(list);
            while (std::getline(items, item, ','))
                if (!item.empty())
                    schedule.campaigns.push_back(item);
        } else if (word == "op") {
            std::string kind_name;
            ChaosOp op;
            if (!(ls >> kind_name >> op.at) || op.at == 0)
                return util::InvalidArgument(
                    "schedule line ", lineno,
                    ": op needs a kind and a 1-based index");
            const KindInfo* info = FindKind(kind_name);
            if (info == nullptr)
                return util::InvalidArgument("schedule line ", lineno,
                                             ": unknown op kind '",
                                             kind_name, "'");
            op.kind = info->kind;
            if (info->takes_error) {
                std::string token;
                if (ls >> token) {
                    if (!ParseErrorToken(token, &op.error))
                        return util::InvalidArgument(
                            "schedule line ", lineno, ": unknown error "
                            "class '", token, "' (io|nospace|intr|unavail)");
                }
            } else if (info->takes_arg) {
                if (!(ls >> op.arg))
                    return util::InvalidArgument("schedule line ", lineno,
                                                 ": ", kind_name,
                                                 " needs an argument");
            }
            schedule.ops.push_back(op);
        } else {
            return util::InvalidArgument("schedule line ", lineno,
                                         ": unknown directive '", word, "'");
        }
    }
    return schedule;
}

util::StatusOr<ChaosSchedule>
ChaosSchedule::Random(uint64_t seed,
                      const std::vector<std::string>& campaigns,
                      const OpCounts& probe)
{
    ChaosSchedule schedule;
    schedule.seed = seed;
    schedule.campaigns = campaigns;
    Rng rng(seed * 0x9E3779B97F4A7C15ull + 1);

    // Uniform 1-based index into a measured operation count (>= 1 even
    // when the probe saw none, so the op simply never fires).
    auto idx = [&rng](uint64_t count) -> uint64_t {
        const auto bound = static_cast<uint32_t>(
            std::min<uint64_t>(std::max<uint64_t>(count, 1), UINT32_MAX));
        return 1 + rng.Below(bound);
    };
    auto add = [&schedule](ChaosOpKind kind, uint64_t at, uint64_t arg = 0,
                           util::StatusCode error =
                               util::StatusCode::kIoError) {
        schedule.ops.push_back(ChaosOp{kind, at, arg, error});
    };

    for (const std::string& campaign : campaigns) {
        if (campaign == "powercut") {
            if (probe.syncs > 0 && rng.NextDouble() < 0.3)
                add(ChaosOpKind::kPowerCutSync, idx(probe.syncs));
            else
                add(ChaosOpKind::kPowerCutWrite, idx(probe.writes));
        } else if (campaign == "enospc") {
            const uint64_t start = idx(probe.writes);
            const uint32_t burst = rng.Range(1, 8);
            for (uint32_t i = 0; i < burst; ++i)
                add(ChaosOpKind::kFailWrite, start + i, 0,
                    util::StatusCode::kNoSpace);
            if (probe.syncs > 0 && rng.NextDouble() < 0.3)
                add(ChaosOpKind::kFailSync, idx(probe.syncs), 0,
                    util::StatusCode::kNoSpace);
        } else if (campaign == "torn-rename") {
            if (probe.renames > 0) {
                if (rng.NextDouble() < 0.4)
                    add(ChaosOpKind::kFailRename, idx(probe.renames));
                add(ChaosOpKind::kPowerCutRename, idx(probe.renames));
            } else {
                add(ChaosOpKind::kPowerCutWrite, idx(probe.writes));
            }
        } else if (campaign == "eintr") {
            const uint32_t n = rng.Range(1, 3);
            for (uint32_t i = 0; i < n; ++i)
                add(ChaosOpKind::kFailWrite, idx(probe.writes), 0,
                    util::StatusCode::kInterrupted);
            if (probe.syncs > 0 && rng.NextDouble() < 0.5)
                add(ChaosOpKind::kFailSync, idx(probe.syncs), 0,
                    util::StatusCode::kInterrupted);
        } else if (campaign == "bitflip") {
            add(ChaosOpKind::kFlipWrite, idx(probe.writes),
                rng.Below(4096));
            if (probe.reads > 0 && rng.NextDouble() < 0.5)
                add(ChaosOpKind::kFlipRead, idx(probe.reads),
                    rng.Below(256));
        } else if (campaign == "net-flaky") {
            // Legal-but-hostile transport: tiny partial sends/recvs plus
            // a transient send failure — reassembly and retry fodder.
            add(ChaosOpKind::kShortSend, idx(probe.sends),
                1 + rng.Below(8));
            if (probe.recvs > 0 && rng.NextDouble() < 0.5)
                add(ChaosOpKind::kShortRecv, idx(probe.recvs),
                    1 + rng.Below(8));
            if (rng.NextDouble() < 0.4)
                add(ChaosOpKind::kFailSend, idx(probe.sends), 0,
                    util::StatusCode::kUnavailable);
        } else if (campaign == "net-cut") {
            // Mid-frame disconnect on one side: the client can never
            // know whether the request landed — the ambiguous retry.
            if (rng.NextDouble() < 0.5)
                add(ChaosOpKind::kCutSend, idx(probe.sends));
            else
                add(ChaosOpKind::kCutRecv, idx(probe.recvs));
        } else if (campaign == "net-flip") {
            add(ChaosOpKind::kFlipSend, idx(probe.sends), rng.Below(64));
            if (probe.recvs > 0 && rng.NextDouble() < 0.5)
                add(ChaosOpKind::kFlipRecv, idx(probe.recvs),
                    rng.Below(64));
        } else if (campaign == "net-stall") {
            add(ChaosOpKind::kStallRecv, idx(probe.recvs));
        } else if (campaign == "net-dup") {
            add(ChaosOpKind::kDupRequest, idx(probe.requests));
        } else if (campaign == "net-kill") {
            add(ChaosOpKind::kKillServe, idx(probe.requests));
        } else {
            return util::InvalidArgument(
                "unknown campaign '", campaign,
                "' (powercut|enospc|torn-rename|eintr|bitflip|net-flaky|"
                "net-cut|net-flip|net-stall|net-dup|net-kill)");
        }
    }
    return schedule;
}

// ---------------------------------------------------------------------------
// ChaosVfs.

class ChaosVfs::ChaosWritableFile : public WritableFile
{
  public:
    ChaosWritableFile(ChaosVfs* vfs, std::unique_ptr<WritableFile> inner,
                      std::string path)
        : vfs_(vfs), inner_(std::move(inner)), path_(std::move(path))
    {
    }

    util::Status Write(const void* data, size_t len) override
    {
        ChaosVfs& v = *vfs_;
        ++v.counts_.writes;
        if (v.power_cut_)
            return v.DeadStatus("write");
        if (v.Take(ChaosOpKind::kPowerCutWrite, v.counts_.writes) !=
            nullptr) {
            v.FireCut();
            return v.DeadStatus("write");
        }
        if (const ChaosOp* op =
                v.Take(ChaosOpKind::kFailWrite, v.counts_.writes))
            return v.InjectedError(*op, "write");
        if (const ChaosOp* op =
                v.Take(ChaosOpKind::kShortWrite, v.counts_.writes)) {
            const size_t keep =
                static_cast<size_t>(std::min<uint64_t>(op->arg, len));
            if (keep > 0)
                (void)inner_->Write(data, keep);
            return util::IoError("injected short write to ", path_,
                                 ": wrote ", keep, " of ", len, " bytes");
        }
        if (const ChaosOp* op =
                v.Take(ChaosOpKind::kFlipWrite, v.counts_.writes)) {
            // Silent in-flight corruption: the write "succeeds".
            const auto* p = static_cast<const uint8_t*>(data);
            std::vector<uint8_t> copy(p, p + len);
            if (len > 0)
                copy[static_cast<size_t>(op->arg % len)] ^= 0xFF;
            return inner_->Write(copy.data(), len);
        }
        return inner_->Write(data, len);
    }

    util::Status Sync() override
    {
        ChaosVfs& v = *vfs_;
        ++v.counts_.syncs;
        if (v.power_cut_)
            return v.DeadStatus("fsync");
        if (v.Take(ChaosOpKind::kPowerCutSync, v.counts_.syncs) != nullptr) {
            // The cut lands before the barrier commits: nothing new
            // becomes durable.
            v.FireCut();
            return v.DeadStatus("fsync");
        }
        if (const ChaosOp* op =
                v.Take(ChaosOpKind::kFailSync, v.counts_.syncs))
            return v.InjectedError(*op, "fsync");
        return inner_->Sync();
    }

    util::Status Close() override { return inner_->Close(); }

  private:
    ChaosVfs* vfs_;
    std::unique_ptr<WritableFile> inner_;
    std::string path_;
};

class ChaosVfs::ChaosReadableFile : public ReadableFile
{
  public:
    ChaosReadableFile(ChaosVfs* vfs, std::unique_ptr<ReadableFile> inner,
                      std::string path)
        : vfs_(vfs), inner_(std::move(inner)), path_(std::move(path))
    {
    }

    util::StatusOr<size_t> Read(void* data, size_t len) override
    {
        ChaosVfs& v = *vfs_;
        ++v.counts_.reads;
        if (v.power_cut_)
            return v.DeadStatus("read");
        if (const ChaosOp* op =
                v.Take(ChaosOpKind::kFailRead, v.counts_.reads))
            return v.InjectedError(*op, "read");
        const ChaosOp* flip = v.Take(ChaosOpKind::kFlipRead, v.counts_.reads);
        util::StatusOr<size_t> got = inner_->Read(data, len);
        if (got.ok() && flip != nullptr && *got > 0)
            static_cast<uint8_t*>(data)[static_cast<size_t>(
                flip->arg % *got)] ^= 0xFF;
        return got;
    }

    /** A query, not an op: neither counted nor fault-scheduled. */
    util::StatusOr<uint64_t> Size() override { return inner_->Size(); }

  private:
    ChaosVfs* vfs_;
    std::unique_ptr<ReadableFile> inner_;
    std::string path_;
};

ChaosVfs::ChaosVfs(MemVfs& base, ChaosSchedule schedule)
    : base_(base), schedule_(std::move(schedule)),
      fired_(schedule_.ops.size(), false)
{
}

const ChaosOp*
ChaosVfs::Take(ChaosOpKind kind, uint64_t at)
{
    for (size_t i = 0; i < schedule_.ops.size(); ++i) {
        const ChaosOp& op = schedule_.ops[i];
        if (!fired_[i] && op.kind == kind && op.at == at) {
            fired_[i] = true;
            ++faults_fired_;
            return &op;
        }
    }
    return nullptr;
}

util::Status
ChaosVfs::InjectedError(const ChaosOp& op, const char* what)
{
    return util::Status(
        op.error, atum::internal::StrCat("injected ", ErrorToken(op.error),
                                         " fault on ", what, " #", op.at));
}

void
ChaosVfs::FireCut()
{
    snapshot_ = base_.SnapshotDurable();
    power_cut_ = true;
    cut_flag_ = 1;
}

util::Status
ChaosVfs::DeadStatus(const char* what) const
{
    return util::Unavailable("power cut: ", what,
                             " against a dead filesystem");
}

util::StatusOr<std::unique_ptr<WritableFile>>
ChaosVfs::Create(const std::string& path)
{
    if (power_cut_)
        return DeadStatus("create");
    util::StatusOr<std::unique_ptr<WritableFile>> inner = base_.Create(path);
    if (!inner.ok())
        return inner.status();
    return std::unique_ptr<WritableFile>(std::make_unique<ChaosWritableFile>(
        this, std::move(*inner), path));
}

util::StatusOr<std::unique_ptr<WritableFile>>
ChaosVfs::OpenForAppendAt(const std::string& path, uint64_t offset)
{
    if (power_cut_)
        return DeadStatus("open");
    util::StatusOr<std::unique_ptr<WritableFile>> inner =
        base_.OpenForAppendAt(path, offset);
    if (!inner.ok())
        return inner.status();
    return std::unique_ptr<WritableFile>(std::make_unique<ChaosWritableFile>(
        this, std::move(*inner), path));
}

util::StatusOr<std::unique_ptr<ReadableFile>>
ChaosVfs::OpenRead(const std::string& path)
{
    if (power_cut_)
        return DeadStatus("open");
    util::StatusOr<std::unique_ptr<ReadableFile>> inner =
        base_.OpenRead(path);
    if (!inner.ok())
        return inner.status();
    return std::unique_ptr<ReadableFile>(std::make_unique<ChaosReadableFile>(
        this, std::move(*inner), path));
}

util::Status
ChaosVfs::Rename(const std::string& from, const std::string& to)
{
    ++counts_.renames;
    if (power_cut_)
        return DeadStatus("rename");
    if (const ChaosOp* op =
            Take(ChaosOpKind::kFailRename, counts_.renames))
        return InjectedError(*op, "rename");
    if (Take(ChaosOpKind::kPowerCutRename, counts_.renames) != nullptr) {
        // The torn publish: the rename lands in the volatile namespace
        // and the call RETURNS SUCCESS — then the power dies before any
        // directory sync commits it. The caller believes the publish
        // happened; the durable namespace never heard of it. Only a
        // subsequent DirSync (which will fail, post-cut) can tell the
        // caller the truth — code that skips it reports a checkpoint
        // that does not exist.
        const util::Status status = base_.Rename(from, to);
        FireCut();
        return status;
    }
    return base_.Rename(from, to);
}

util::Status
ChaosVfs::Unlink(const std::string& path)
{
    ++counts_.unlinks;
    if (power_cut_)
        return DeadStatus("unlink");
    if (const ChaosOp* op = Take(ChaosOpKind::kFailUnlink, counts_.unlinks))
        return InjectedError(*op, "unlink");
    return base_.Unlink(path);
}

util::StatusOr<std::vector<std::string>>
ChaosVfs::ListDir(const std::string& dir)
{
    if (power_cut_)
        return DeadStatus("listdir");
    return base_.ListDir(dir);
}

util::Status
ChaosVfs::DirSync(const std::string& path)
{
    ++counts_.dirsyncs;
    if (power_cut_)
        return DeadStatus("dirsync");
    if (const ChaosOp* op =
            Take(ChaosOpKind::kFailDirSync, counts_.dirsyncs))
        return InjectedError(*op, "dirsync");
    return base_.DirSync(path);
}

}  // namespace atum::io
