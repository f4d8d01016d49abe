// Experiment F5 (reconstructed): working-set size vs window, full-system
// vs user-only views of the same execution.
//
// Paper shape to reproduce: including operating-system references (and
// the other processes of the mix) substantially enlarges the working set
// at every window size — memory sizing studies based on user-only traces
// understated real requirements.

#include <cstdio>

#include "analysis/working_set.h"
#include "common.h"
#include "trace/ref_filter.h"
#include "util/table.h"

namespace atum {
namespace {

int
Run()
{
    const bench::Capture cap =
        bench::CaptureFullSystem(bench::MixOfDegree(3));

    const std::vector<uint64_t> windows = {100,    300,    1000,  3000,
                                           10000,  30000,  100000};
    analysis::WorkingSetAnalyzer full(windows);
    analysis::WorkingSetAnalyzer user_all(windows);  // all user processes
    analysis::WorkingSetAnalyzer kernel_only(windows);
    trace::RefFilter refs;
    for (const trace::Record& r : cap.records) {
        full.Feed(r);
        if (refs.Classify(r) != trace::RefFilter::kRef)
            continue;
        if (r.kernel())
            kernel_only.Feed(r);
        else
            user_all.Feed(r);
    }

    std::printf("F5: average working-set size (512B pages) vs window\n\n");
    Table table({"window(refs)", "full-system", "user-only", "kernel-only",
                 "full/user"});
    bench::BenchReport report("f5_working_sets");
    for (size_t i = 0; i < windows.size(); ++i) {
        const double f = full.AverageWorkingSet(i);
        const double u = user_all.AverageWorkingSet(i);
        report.Add("working_set", f, "pages",
                   {{"window", std::to_string(windows[i])},
                    {"view", "full-system"}});
        report.Add("working_set", u, "pages",
                   {{"window", std::to_string(windows[i])},
                    {"view", "user-only"}});
        table.AddRow({
            std::to_string(windows[i]),
            Table::Fmt(f, 1),
            Table::Fmt(u, 1),
            Table::Fmt(kernel_only.AverageWorkingSet(i), 1),
            Table::Fmt(u > 0 ? f / u : 0.0, 2),
        });
    }
    std::printf("%s\n", table.ToString().c_str());
    std::printf("distinct pages: full=%llu user=%llu kernel=%llu\n\n",
                static_cast<unsigned long long>(full.distinct_pages()),
                static_cast<unsigned long long>(user_all.distinct_pages()),
                static_cast<unsigned long long>(kernel_only.distinct_pages()));
    std::printf("Shape check: the full-system working set exceeds the\n"
                "user-only one at every window.\n");
    return 0;
}

}  // namespace
}  // namespace atum

int
main()
{
    return atum::Run();
}
