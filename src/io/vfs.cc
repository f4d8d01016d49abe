#include "io/vfs.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "io/posix.h"
#include "util/logging.h"

namespace atum::io {

std::string
DirOf(const std::string& path)
{
    const size_t slash = path.find_last_of('/');
    if (slash == std::string::npos)
        return ".";
    if (slash == 0)
        return "/";
    return path.substr(0, slash);
}

util::StatusOr<std::string>
ReadFile(Vfs& vfs, const std::string& path)
{
    util::StatusOr<std::unique_ptr<ReadableFile>> in = vfs.OpenRead(path);
    if (!in.ok())
        return in.status();
    std::string bytes;
    char buf[4096];
    for (;;) {
        util::StatusOr<size_t> n = (*in)->Read(buf, sizeof buf);
        if (!n.ok())
            return n.status();
        if (*n == 0)
            return bytes;
        bytes.append(buf, *n);
    }
}

namespace {

class RealWritableFile : public WritableFile
{
  public:
    RealWritableFile(int fd, std::string path) : fd_(fd), path_(std::move(path))
    {
    }

    ~RealWritableFile() override
    {
        const util::Status status = Close();
        if (!status.ok())
            Warn("closing ", path_, ": ", status.ToString());
    }

    util::Status Write(const void* data, size_t len) override
    {
        if (fd_ < 0)
            return util::FailedPrecondition("write to closed file ", path_);
        return RetryWriteAll(fd_, data, len, path_);
    }

    util::Status Sync() override
    {
        if (fd_ < 0)
            return util::FailedPrecondition("fsync of closed file ", path_);
        return RetryFsync(fd_, path_);
    }

    util::Status Close() override
    {
        if (fd_ < 0)
            return util::OkStatus();
        const util::Status status = CloseFd(fd_, path_);
        fd_ = -1;
        return status;
    }

  private:
    int fd_;
    std::string path_;
};

class RealReadableFile : public ReadableFile
{
  public:
    RealReadableFile(int fd, std::string path) : fd_(fd), path_(std::move(path))
    {
    }

    ~RealReadableFile() override
    {
        if (fd_ >= 0)
            (void)CloseFd(fd_, path_);
    }

    util::StatusOr<size_t> Read(void* data, size_t len) override
    {
        return RetryRead(fd_, data, len, path_);
    }

    util::StatusOr<uint64_t> Size() override
    {
        struct stat st;
        if (::fstat(fd_, &st) != 0)
            return ErrnoStatus(errno, "fstat " + path_);
        return static_cast<uint64_t>(st.st_size);
    }

  private:
    int fd_;
    std::string path_;
};

class RealVfsImpl : public Vfs
{
  public:
    util::StatusOr<std::unique_ptr<WritableFile>> Create(
        const std::string& path) override
    {
        util::StatusOr<int> fd =
            RetryOpen(path, O_WRONLY | O_CREAT | O_TRUNC);
        if (!fd.ok())
            return fd.status();
        return std::unique_ptr<WritableFile>(
            std::make_unique<RealWritableFile>(*fd, path));
    }

    util::StatusOr<std::unique_ptr<WritableFile>> OpenForAppendAt(
        const std::string& path, uint64_t offset) override
    {
        util::StatusOr<int> fd = RetryOpen(path, O_WRONLY);
        if (!fd.ok())
            return fd.status();
        auto fail = [&](util::Status status)
            -> util::StatusOr<std::unique_ptr<WritableFile>> {
            (void)CloseFd(*fd, path);
            return status;
        };
        struct stat st;
        if (::fstat(*fd, &st) != 0)
            return fail(ErrnoStatus(errno, "stat " + path));
        if (static_cast<uint64_t>(st.st_size) < offset) {
            return fail(util::DataLoss(
                path, " is shorter (", st.st_size, " bytes) than the "
                "checkpoint's ", offset, "-byte high-water mark; the trace "
                "and checkpoint do not belong together"));
        }
        if (::ftruncate(*fd, static_cast<off_t>(offset)) != 0)
            return fail(ErrnoStatus(errno, "truncate " + path));
        if (::lseek(*fd, static_cast<off_t>(offset), SEEK_SET) < 0)
            return fail(ErrnoStatus(errno, "seek " + path));
        return std::unique_ptr<WritableFile>(
            std::make_unique<RealWritableFile>(*fd, path));
    }

    util::StatusOr<std::unique_ptr<ReadableFile>> OpenRead(
        const std::string& path) override
    {
        util::StatusOr<int> fd = RetryOpen(path, O_RDONLY);
        if (!fd.ok())
            return fd.status();
        return std::unique_ptr<ReadableFile>(
            std::make_unique<RealReadableFile>(*fd, path));
    }

    util::Status Rename(const std::string& from, const std::string& to)
        override
    {
        if (std::rename(from.c_str(), to.c_str()) != 0)
            return ErrnoStatus(errno, "rename " + from + " -> " + to);
        return util::OkStatus();
    }

    util::Status Unlink(const std::string& path) override
    {
        if (::unlink(path.c_str()) != 0)
            return ErrnoStatus(errno, "unlink " + path);
        return util::OkStatus();
    }

    util::Status DirSync(const std::string& path) override
    {
        const std::string dir = DirOf(path);
        util::StatusOr<int> fd = RetryOpen(dir, O_RDONLY | O_DIRECTORY);
        if (!fd.ok())
            return fd.status();
        util::Status status = RetryFsync(*fd, dir);
        const util::Status close_status = CloseFd(*fd, dir);
        if (status.ok())
            status = close_status;
        return status;
    }

    util::StatusOr<std::vector<std::string>> ListDir(
        const std::string& dir) override
    {
        DIR* d = ::opendir(dir.c_str());
        if (d == nullptr)
            return ErrnoStatus(errno, "opendir " + dir);
        std::vector<std::string> names;
        errno = 0;
        while (struct dirent* entry = ::readdir(d)) {
            const std::string name = entry->d_name;
            if (name == "." || name == "..")
                continue;
            struct stat st;
            const std::string full = dir + "/" + name;
            if (::stat(full.c_str(), &st) == 0 && S_ISREG(st.st_mode))
                names.push_back(name);
            errno = 0;
        }
        const int read_errno = errno;
        ::closedir(d);
        if (read_errno != 0)
            return ErrnoStatus(read_errno, "readdir " + dir);
        std::sort(names.begin(), names.end());
        return names;
    }

    const char* name() const override { return "real"; }
};

}  // namespace

Vfs&
RealVfs()
{
    static RealVfsImpl* vfs = new RealVfsImpl;
    return *vfs;
}

}  // namespace atum::io
