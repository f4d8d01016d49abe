#ifndef ATUM_IO_MEM_VFS_H_
#define ATUM_IO_MEM_VFS_H_

/**
 * @file
 * MemVfs — an in-memory filesystem that models *durability*, not just
 * storage.
 *
 * The point of the chaos subsystem is to answer "what survives a power
 * cut?", so MemVfs keeps two views of the world:
 *
 *  - the volatile view: what a running process observes (page cache);
 *  - the durable view: what would still exist after power loss.
 *
 * The rules, modeled on a journaling filesystem in its ordered mode
 * (documented in docs/CHAOS.md):
 *
 *  - Write   changes only the volatile content of an inode;
 *  - Sync    makes the inode's current content durable, and — if the
 *            file still carries the name it was created under — makes
 *            that directory entry durable too (the journal commits the
 *            creation with the data);
 *  - Rename/ change only the volatile namespace; the old binding stays
 *    Unlink  in the durable view until...
 *  - DirSync commits the parent directory's volatile namespace to the
 *            durable view (the fsync-the-directory step).
 *
 * SnapshotDurable() captures the durable view — the crash-consistent
 * state — and a MemVfs constructed from a snapshot is "the machine after
 * the power came back". ChaosVfs (io/chaos.h) uses exactly this pair to
 * simulate a cut at an arbitrary I/O operation.
 *
 * Single-threaded by design, like the capture loop that writes through it.
 */

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "io/vfs.h"

namespace atum::io {

class MemVfs : public Vfs
{
  public:
    /** The crash-consistent state: name -> durable content. */
    struct Snapshot {
        std::map<std::string, std::vector<uint8_t>> files;
    };

    MemVfs() = default;
    /** A filesystem as found after reboot: volatile == durable == `s`. */
    explicit MemVfs(const Snapshot& s);

    util::StatusOr<std::unique_ptr<WritableFile>> Create(
        const std::string& path) override;
    util::StatusOr<std::unique_ptr<WritableFile>> OpenForAppendAt(
        const std::string& path, uint64_t offset) override;
    util::StatusOr<std::unique_ptr<ReadableFile>> OpenRead(
        const std::string& path) override;
    util::Status Rename(const std::string& from,
                        const std::string& to) override;
    util::Status Unlink(const std::string& path) override;
    util::Status DirSync(const std::string& path) override;
    /** MemVfs has no directory inodes, so a dir with no files lists as
     *  empty rather than kNotFound. */
    util::StatusOr<std::vector<std::string>> ListDir(
        const std::string& dir) override;
    const char* name() const override { return "mem"; }

    /** What a power cut right now would leave behind. */
    Snapshot SnapshotDurable() const;

    // -- test/driver introspection (volatile view) --------------------------
    bool Exists(const std::string& path) const;
    util::StatusOr<std::vector<uint8_t>> ReadAll(const std::string& path) const;

  private:
    struct Inode {
        std::vector<uint8_t> data;     ///< volatile content
        std::vector<uint8_t> durable;  ///< content as of the last Sync
        bool synced = false;           ///< ever fsynced at all
    };

    class MemWritableFile;
    class MemReadableFile;

    std::shared_ptr<Inode> Find(const std::string& path) const;

    std::map<std::string, std::shared_ptr<Inode>> live_;     ///< volatile names
    std::map<std::string, std::shared_ptr<Inode>> durable_;  ///< durable names
};

}  // namespace atum::io

#endif  // ATUM_IO_MEM_VFS_H_
