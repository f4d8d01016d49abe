#ifndef ATUM_IO_VFS_H_
#define ATUM_IO_VFS_H_

/**
 * @file
 * The Vfs seam — everything the capture pipeline wants from an operating
 * system, as an interface, and the one byte interface in atum.
 *
 * The trace container, the trace sink, the checkpoint writer and the run
 * manifest used to call POSIX directly, which made their durability
 * claims untestable: nothing could prove that a capture survives ENOSPC
 * bursts, torn renames or a power cut mid-fsync without actually pulling
 * a plug. This seam fixes that:
 *
 *  - RealVfs()        passes through to the OS via the EINTR-retrying
 *                     wrappers in io/posix.h (typed kNoSpace/kNotFound/
 *                     kInterrupted statuses);
 *  - MemVfs           (io/mem_vfs.h) models a filesystem's *durability*,
 *                     separating volatile from fsynced state so a
 *                     simulated power cut discards exactly what a real
 *                     one may;
 *  - ChaosVfs         (io/chaos.h) decorates a MemVfs with seeded,
 *                     schedule-driven fault injection.
 *
 * Every byte atum keeps on storage crosses WritableFile/ReadableFile:
 * the ATF2 trace container (trace/container.h), the checkpoint
 * (core/checkpoint.h), the serve job journal (serve/journal.h), the run
 * manifest, and the tools. There is no second byte interface: tests
 * keep bytes in memory with a MemVfs, and the trace layer's
 * FileByteSink/FileByteSource are decorators of these two types that
 * retry kInterrupted.
 *
 * Operations are deliberately few — the five things a crash-safe writer
 * actually needs: create/append/read a file, atomically publish a name
 * (rename), retire a name (unlink), and make either durable (Sync on the
 * file, DirSync on its directory entry). There is no seek: every format
 * in atum is append-only by design.
 */

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/status.h"

namespace atum::io {

/** A writable, append-only file handle. */
class WritableFile
{
  public:
    virtual ~WritableFile() = default;

    /** Writes all `len` bytes or returns a non-OK status (in which case
     *  the file may hold a prefix of them — a torn write). */
    virtual util::Status Write(const void* data, size_t len) = 0;

    /** Durability barrier: everything written so far survives a crash. */
    virtual util::Status Sync() = 0;

    /** Releases the handle; idempotent. Does NOT imply Sync. */
    virtual util::Status Close() = 0;
};

/** A readable, sequential file handle. */
class ReadableFile
{
  public:
    virtual ~ReadableFile() = default;

    /** Reads up to `len` bytes; returns the count read, 0 at end. */
    virtual util::StatusOr<size_t> Read(void* data, size_t len) = 0;
};

/** The filesystem operations the capture pipeline is allowed to use. */
class Vfs
{
  public:
    virtual ~Vfs() = default;

    /** Creates (or truncates) `path` for writing. */
    virtual util::StatusOr<std::unique_ptr<WritableFile>> Create(
        const std::string& path) = 0;

    /**
     * Re-opens an existing file for appending at `offset`, truncating
     * anything past it first (the resume path's rewind-to-high-water).
     * kNotFound when missing; kDataLoss when shorter than `offset`.
     */
    virtual util::StatusOr<std::unique_ptr<WritableFile>> OpenForAppendAt(
        const std::string& path, uint64_t offset) = 0;

    /** Opens `path` for sequential reading; kNotFound when missing. */
    virtual util::StatusOr<std::unique_ptr<ReadableFile>> OpenRead(
        const std::string& path) = 0;

    /** Atomically replaces `to` with `from` (rename(2) semantics). The
     *  new name is durable only after DirSync. */
    virtual util::Status Rename(const std::string& from,
                                const std::string& to) = 0;

    /** Removes `path`; kNotFound when it does not exist. */
    virtual util::Status Unlink(const std::string& path) = 0;

    /**
     * Makes the directory entries of `path`'s parent directory durable —
     * the step that makes a preceding Rename/Unlink survive power loss.
     * `path` names a file in the directory, not the directory itself.
     */
    virtual util::Status DirSync(const std::string& path) = 0;

    /**
     * Lists the plain files in directory `dir`, as basenames in sorted
     * order ("." and ".." excluded). The recovery path's eyes: a
     * restarted daemon discovers surviving journals and checkpoints
     * with this rather than trusting any in-file inventory that may
     * itself be stale. kNotFound when the directory does not exist.
     */
    virtual util::StatusOr<std::vector<std::string>> ListDir(
        const std::string& dir) = 0;

    /** Short implementation name for logs ("real", "mem", "chaos"). */
    virtual const char* name() const = 0;
};

/** The process-wide passthrough to the host OS. */
Vfs& RealVfs();

/**
 * Reads the whole of `path` through `vfs`, one 4 KB Read at a time (so
 * a ChaosVfs counts one read op per 4 KB). kNotFound when missing; the
 * first failed Read's status otherwise.
 */
util::StatusOr<std::string> ReadFile(Vfs& vfs, const std::string& path);

/** `path`'s parent directory ("." when the path has no slash). */
std::string DirOf(const std::string& path);

}  // namespace atum::io

#endif  // ATUM_IO_VFS_H_
