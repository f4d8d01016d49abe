// Ablation A1: compact trace encoding.
//
// The paper's records had to be small (a reserved half-megabyte buffer
// fills in tens of milliseconds of traced execution). This harness
// measures the delta/varint codec against the fixed 8-byte record on
// real full-system traces, per workload, and verifies losslessness.

#include <cstdio>

#include "common.h"
#include "trace/compress.h"
#include "util/table.h"

namespace atum {
namespace {

int
Run()
{
    std::printf("A1: compact trace encoding vs fixed 8-byte records\n\n");
    Table table({"workload", "records", "raw-KB", "packed-KB",
                 "bytes/record", "ratio"});
    bench::BenchReport report("a1_compression");

    for (const std::string& name : workloads::AllWorkloadNames()) {
        const bench::Capture cap =
            bench::CaptureFullSystem({workloads::MakeWorkload(name)});
        const auto bytes = trace::CompressTrace(cap.records);
        const util::StatusOr<std::vector<trace::Record>> back =
            trace::DecompressTrace(bytes);
        if (!back.ok())
            Fatal("decompressing ", name, ": ", back.status().ToString());
        if (back.value() != cap.records)
            Fatal("compression round-trip failed for ", name);
        const double raw = static_cast<double>(cap.records.size()) *
                           trace::kRecordBytes;
        report.Add("bytes_per_record",
                   static_cast<double>(bytes.size()) /
                       static_cast<double>(cap.records.size()),
                   "B", {{"workload", name}});
        report.Add("compression_ratio",
                   static_cast<double>(bytes.size()) / raw, "ratio",
                   {{"workload", name}});
        table.AddRow({
            name,
            std::to_string(cap.records.size()),
            Table::Fmt(raw / 1024.0, 0),
            Table::Fmt(static_cast<double>(bytes.size()) / 1024.0, 0),
            Table::Fmt(static_cast<double>(bytes.size()) /
                           static_cast<double>(cap.records.size()),
                       2),
            Table::Fmt(static_cast<double>(bytes.size()) / raw, 3),
        });
    }
    std::printf("%s\n", table.ToString().c_str());
    std::printf("Shape check: full-system traces pack to a fraction of the\n"
                "raw size (istream deltas dominate), losslessly.\n");
    return 0;
}

}  // namespace
}  // namespace atum

int
main()
{
    return atum::Run();
}
