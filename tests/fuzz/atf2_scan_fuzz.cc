// libFuzzer harness over the tolerant ATF2 scanner (built with
// -DATUM_FUZZ=ON, clang only): arbitrary bytes as a trace file through
// ScanTrace, once loading records and once verifying only. ASan owns
// the memory-safety claims; CheckScanInvariants (tests/atf2_scan_check.h,
// shared with trace_container_test's seeded mutation sweep) pins the
// rest: the same report either way, exactly `records_salvaged` records
// out, and none of them implausible.
//
// Run: ./build/tests/atf2_scan_fuzz tests/atf2_corpus -max_total_time=60

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "atf2_scan_check.h"

extern "C" int
LLVMFuzzerTestOneInput(const uint8_t* data, size_t size)
{
    const std::string broken = atum::trace::CheckScanInvariants(
        std::vector<uint8_t>(data, data + size));
    if (!broken.empty()) {
        std::fprintf(stderr, "scan invariant broken: %s\n", broken.c_str());
        std::abort();
    }
    return 0;
}
