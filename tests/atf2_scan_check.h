#ifndef ATUM_TESTS_ATF2_SCAN_CHECK_H_
#define ATUM_TESTS_ATF2_SCAN_CHECK_H_

// The invariants the tolerant ATF2 scanner must keep on any input bytes.
// One check, two callers: trace_container_test's seeded mutation sweep
// (every build, sanitizer builds included) and the libFuzzer harness
// tests/fuzz/atf2_scan_fuzz.cc. "No crash" is the caller surviving the
// call; the rest is checked here.

#include <memory>
#include <string>
#include <vector>

#include "io/mem_vfs.h"
#include "trace/container.h"
#include "trace/record.h"

namespace atum::trace {

/** Scans `bytes` as a trace file on a fresh MemVfs. */
inline ScanReport
ScanBytes(const std::vector<uint8_t>& bytes, std::vector<Record>* out)
{
    io::MemVfs vfs(io::MemVfs::Snapshot{{{"scan.atf2", bytes}}});
    auto in = FileByteSource::Open("scan.atf2", vfs);
    if (!in.ok())
        return ScanReport{};
    return ScanTrace(**in, out);
}

/**
 * Scans `bytes` twice, loading and verifying only, and returns "" when
 * every invariant holds, else the first one broken:
 *  - the report is the same with and without an output vector;
 *  - the output holds exactly `records_salvaged` records;
 *  - every salvaged record is plausible.
 */
inline std::string
CheckScanInvariants(const std::vector<uint8_t>& bytes)
{
    std::vector<Record> out;
    const ScanReport loaded = ScanBytes(bytes, &out);
    const ScanReport verified = ScanBytes(bytes, nullptr);

    if (loaded.ToString() != verified.ToString())
        return "report differs without out:\n" + loaded.ToString() +
               "vs\n" + verified.ToString();
    bool same_issues = loaded.issues.size() == verified.issues.size();
    for (size_t i = 0; same_issues && i < loaded.issues.size(); ++i)
        same_issues = loaded.issues[i].offset == verified.issues[i].offset &&
                      loaded.issues[i].error == verified.issues[i].error;
    if (!same_issues)
        return "issue list differs without out";
    if (out.size() != loaded.records_salvaged)
        return "out holds " + std::to_string(out.size()) +
               " records, report salvaged " +
               std::to_string(loaded.records_salvaged);
    for (size_t i = 0; i < out.size(); ++i) {
        if (!IsPlausibleRecord(out[i]))
            return "implausible record " + std::to_string(i) + " salvaged";
    }
    return "";
}

}  // namespace atum::trace

#endif  // ATUM_TESTS_ATF2_SCAN_CHECK_H_
