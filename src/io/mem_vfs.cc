#include "io/mem_vfs.h"

#include <cstring>

namespace atum::io {

class MemVfs::MemWritableFile : public WritableFile
{
  public:
    MemWritableFile(MemVfs* vfs, std::string path,
                    std::shared_ptr<Inode> inode)
        : vfs_(vfs), path_(std::move(path)), inode_(std::move(inode))
    {
    }

    util::Status Write(const void* data, size_t len) override
    {
        if (closed_)
            return util::FailedPrecondition("write to closed file ", path_);
        const auto* p = static_cast<const uint8_t*>(data);
        inode_->data.insert(inode_->data.end(), p, p + len);
        return util::OkStatus();
    }

    util::Status Sync() override
    {
        if (closed_)
            return util::FailedPrecondition("fsync of closed file ", path_);
        inode_->durable = inode_->data;
        inode_->synced = true;
        // The journal commits a new file's directory entry along with its
        // data — but only under the name it still holds; a rename stays
        // volatile until the directory itself is synced.
        auto it = vfs_->live_.find(path_);
        if (it != vfs_->live_.end() && it->second == inode_)
            vfs_->durable_[path_] = inode_;
        return util::OkStatus();
    }

    util::Status Close() override
    {
        closed_ = true;
        return util::OkStatus();
    }

  private:
    MemVfs* vfs_;
    std::string path_;
    std::shared_ptr<Inode> inode_;
    bool closed_ = false;
};

class MemVfs::MemReadableFile : public ReadableFile
{
  public:
    explicit MemReadableFile(std::vector<uint8_t> bytes)
        : bytes_(std::move(bytes))
    {
    }

    util::StatusOr<size_t> Read(void* data, size_t len) override
    {
        const size_t avail = bytes_.size() - pos_;
        const size_t n = len < avail ? len : avail;
        if (n == 0)
            return n;  // an empty file's bytes_.data() may be null
        std::memcpy(data, bytes_.data() + pos_, n);
        pos_ += n;
        return n;
    }

  private:
    std::vector<uint8_t> bytes_;
    size_t pos_ = 0;
};

MemVfs::MemVfs(const Snapshot& s)
{
    for (const auto& [path, bytes] : s.files) {
        auto inode = std::make_shared<Inode>();
        inode->data = bytes;
        inode->durable = bytes;
        inode->synced = true;
        live_[path] = inode;
        durable_[path] = inode;
    }
}

std::shared_ptr<MemVfs::Inode>
MemVfs::Find(const std::string& path) const
{
    auto it = live_.find(path);
    return it == live_.end() ? nullptr : it->second;
}

util::StatusOr<std::unique_ptr<WritableFile>>
MemVfs::Create(const std::string& path)
{
    std::shared_ptr<Inode> inode = Find(path);
    if (inode != nullptr) {
        // O_TRUNC on an existing file truncates the same inode; the old
        // durable content survives a crash until the next Sync.
        inode->data.clear();
    } else {
        inode = std::make_shared<Inode>();
        live_[path] = inode;
    }
    return std::unique_ptr<WritableFile>(
        std::make_unique<MemWritableFile>(this, path, inode));
}

util::StatusOr<std::unique_ptr<WritableFile>>
MemVfs::OpenForAppendAt(const std::string& path, uint64_t offset)
{
    std::shared_ptr<Inode> inode = Find(path);
    if (inode == nullptr)
        return util::NotFound("no such trace file to resume: ", path);
    if (inode->data.size() < offset) {
        return util::DataLoss(
            path, " is shorter (", inode->data.size(), " bytes) than the "
            "checkpoint's ", offset, "-byte high-water mark; the trace and "
            "checkpoint do not belong together");
    }
    inode->data.resize(offset);
    return std::unique_ptr<WritableFile>(
        std::make_unique<MemWritableFile>(this, path, inode));
}

util::StatusOr<std::unique_ptr<ReadableFile>>
MemVfs::OpenRead(const std::string& path)
{
    std::shared_ptr<Inode> inode = Find(path);
    if (inode == nullptr)
        return util::NotFound("no such file: ", path);
    return std::unique_ptr<ReadableFile>(
        std::make_unique<MemReadableFile>(inode->data));
}

util::Status
MemVfs::Rename(const std::string& from, const std::string& to)
{
    auto it = live_.find(from);
    if (it == live_.end())
        return util::NotFound("rename ", from, ": no such file");
    live_[to] = it->second;
    live_.erase(from);
    return util::OkStatus();
}

util::Status
MemVfs::Unlink(const std::string& path)
{
    if (live_.erase(path) == 0)
        return util::NotFound("unlink ", path, ": no such file");
    return util::OkStatus();
}

util::Status
MemVfs::DirSync(const std::string& path)
{
    const std::string dir = DirOf(path);
    // Commit the volatile namespace of this directory to the durable
    // view: renames land, unlinked names disappear.
    for (auto it = durable_.begin(); it != durable_.end();) {
        if (DirOf(it->first) == dir && live_.find(it->first) == live_.end())
            it = durable_.erase(it);
        else
            ++it;
    }
    for (const auto& [name, inode] : live_) {
        if (DirOf(name) == dir)
            durable_[name] = inode;
    }
    return util::OkStatus();
}

util::StatusOr<std::vector<std::string>>
MemVfs::ListDir(const std::string& dir)
{
    // live_ is an ordered map over full paths, so the basenames of one
    // directory's files come out already sorted.
    std::vector<std::string> names;
    for (const auto& [name, inode] : live_) {
        if (DirOf(name) == dir)
            names.push_back(name.substr(name.find_last_of('/') + 1));
    }
    return names;
}

MemVfs::Snapshot
MemVfs::SnapshotDurable() const
{
    Snapshot s;
    // An entry whose inode was never synced survives as an empty file:
    // the name was committed (DirSync) but the bytes never were.
    for (const auto& [name, inode] : durable_)
        s.files[name] = inode->durable;
    return s;
}

bool
MemVfs::Exists(const std::string& path) const
{
    return Find(path) != nullptr;
}

util::StatusOr<std::vector<uint8_t>>
MemVfs::ReadAll(const std::string& path) const
{
    std::shared_ptr<Inode> inode = Find(path);
    if (inode == nullptr)
        return util::NotFound("no such file: ", path);
    return inode->data;
}

std::vector<std::string>
MemVfs::List() const
{
    std::vector<std::string> names;
    names.reserve(live_.size());
    for (const auto& [name, inode] : live_)
        names.push_back(name);
    return names;
}

}  // namespace atum::io
