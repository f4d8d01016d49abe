#include "analysis/crosscheck.h"

#include <string>
#include <vector>

#include "cpu/machine.h"
#include "util/json.h"
#include "util/table.h"

namespace atum::analysis {

namespace {

constexpr uint16_t kChmkVector =
    static_cast<uint16_t>(cpu::ExcVector::kChmk);
constexpr uint16_t kAcvVector = static_cast<uint16_t>(cpu::ExcVector::kAcv);
constexpr uint16_t kTnvVector = static_cast<uint16_t>(cpu::ExcVector::kTnv);

/** Raw per-type tallies from one pass over the stream. */
struct Tallies {
    uint64_t ifetches = 0;
    uint64_t reads = 0;
    uint64_t writes = 0;
    uint64_t pte_reads = 0;
    uint64_t tlb_misses = 0;
    uint64_t exceptions = 0;
    uint64_t syscalls = 0;
    uint64_t faults = 0;  ///< ACV + TNV dispatches (misses that don't fill)
    uint64_t opcodes = 0;
    uint64_t dma_words = 0;
    uint64_t lost = 0;
    bool have_opcodes = false;
};

Tallies
Tally(const std::vector<trace::Record>& records)
{
    Tallies t;
    for (const trace::Record& r : records) {
        switch (r.type) {
            case trace::RecordType::kIFetch: ++t.ifetches; break;
            case trace::RecordType::kRead: ++t.reads; break;
            case trace::RecordType::kWrite: ++t.writes; break;
            case trace::RecordType::kPte: ++t.pte_reads; break;
            case trace::RecordType::kCtxSwitch: break;
            case trace::RecordType::kTlbMiss: ++t.tlb_misses; break;
            case trace::RecordType::kException:
                ++t.exceptions;
                if (r.info == kChmkVector)
                    ++t.syscalls;
                if (r.info == kAcvVector || r.info == kTnvVector)
                    ++t.faults;
                break;
            case trace::RecordType::kOpcode:
                ++t.opcodes;
                t.have_opcodes = true;
                break;
            case trace::RecordType::kLoss: t.lost += r.addr; break;
            case trace::RecordType::kDma: ++t.dma_words; break;
            default: break;
        }
    }
    return t;
}

uint64_t
SubFloor(uint64_t a, uint64_t b)
{
    return a > b ? a - b : 0;
}

}  // namespace

std::string
CrosscheckReport::ToString() const
{
    Table table({"counter", "actual", "derived-lo", "derived-hi", "delta",
                 "verdict"});
    for (const CounterCheck& c : checks) {
        if (!c.checked) {
            table.AddRow({c.name, std::to_string(c.actual), "-", "-", "-",
                          "skipped"});
            continue;
        }
        // Signed distance from the interval; zero when inside it.
        std::string delta = "0";
        if (c.actual < c.derived.lo) {
            delta = "-";
            delta += std::to_string(c.derived.lo - c.actual);
        } else if (!c.derived.unbounded && c.actual > c.derived.hi) {
            delta = "+";
            delta += std::to_string(c.actual - c.derived.hi);
        }
        table.AddRow({c.name, std::to_string(c.actual),
                      std::to_string(c.derived.lo),
                      c.derived.unbounded ? "inf"
                                          : std::to_string(c.derived.hi),
                      delta, c.ok ? "ok" : "MISMATCH"});
    }
    std::string s = table.ToString();
    s += "records=" + std::to_string(records) +
         " lost=" + std::to_string(lost) + "\n";
    s += passed() ? "crosscheck: PASS\n" : "crosscheck: FAIL\n";
    return s;
}

CrosscheckReport
Crosscheck(const std::vector<trace::Record>& records,
           const cpu::EventCounters& actual, const CrosscheckOptions& options)
{
    const Tallies t = Tally(records);

    CrosscheckReport report;
    report.records = records.size();
    report.lost = t.lost;

    auto check = [&](const char* name, uint64_t actual_value,
                     uint64_t lo, uint64_t hi, bool checked = true) {
        CounterCheck c;
        c.name = name;
        c.actual = actual_value;
        c.derived.lo = lo;
        c.derived.hi = hi;
        c.derived.unbounded = options.prefix;
        c.checked = checked;
        c.ok = !checked || c.derived.Contains(actual_value);
        report.checks.push_back(c);
    };
    // A loss marker hides `lost` records of unknown type, so every exact
    // tally widens to [d, d + lost].
    auto simple = [&](const char* name, uint64_t actual_value, uint64_t d) {
        check(name, actual_value, d, d + t.lost);
    };

    // Opcode markers are optional (atum-capture --record-opcodes); with
    // none in the stream the instruction count is unknowable from it.
    check("instructions", actual.instructions, t.opcodes,
          t.opcodes + t.lost, t.have_opcodes);
    simple("ifetches", actual.ifetches, t.ifetches);
    simple("reads", actual.reads, t.reads);
    simple("writes", actual.writes, t.writes);
    simple("pte_reads", actual.pte_reads, t.pte_reads);
    simple("tlb_misses", actual.tlb_misses, t.tlb_misses);
    // A miss fills the TB unless the walk faulted (ACV/TNV dispatch
    // follows); lost records could hide either misses or faults, so both
    // ends widen by the loss.
    check("tlb_fills", actual.tlb_fills,
          SubFloor(t.tlb_misses, t.faults + t.lost), t.tlb_misses + t.lost);
    simple("exceptions", actual.exceptions, t.exceptions);
    simple("syscalls", actual.syscalls, t.syscalls);
    // One kDma record per 4-byte word the engine writes.
    check("dma_bytes", actual.dma_bytes, 4 * t.dma_words,
          4 * (t.dma_words + t.lost));
    return report;
}

util::StatusOr<cpu::EventCounters>
ReadCountersFromManifest(const std::string& path, io::Vfs& vfs)
{
    util::StatusOr<std::string> body = io::ReadFile(vfs, path);
    if (!body.ok())
        return body.status();

    util::StatusOr<util::JsonValue> doc = util::JsonValue::Parse(*body);
    if (!doc.ok())
        return util::InvalidArgument("run manifest ", path, ": ",
                                     doc.status().ToString());
    const util::JsonValue& counters = doc->Get("counters");
    if (!counters.is_object())
        return util::InvalidArgument("run manifest ", path,
                                     ": no counters object");

    cpu::EventCounters ev;
    size_t found = 0;
    auto grab = [&](const char* key, uint64_t& field) {
        const util::JsonValue& v = counters.Get(key);
        if (v.is_number()) {
            field = v.AsU64();
            ++found;
        }
    };
    grab("cpu.ev.instructions", ev.instructions);
    grab("cpu.ev.ifetches", ev.ifetches);
    grab("cpu.ev.reads", ev.reads);
    grab("cpu.ev.writes", ev.writes);
    grab("cpu.ev.pte_reads", ev.pte_reads);
    grab("cpu.ev.tlb_misses", ev.tlb_misses);
    grab("cpu.ev.tlb_fills", ev.tlb_fills);
    grab("cpu.ev.exceptions", ev.exceptions);
    grab("cpu.ev.syscalls", ev.syscalls);
    grab("cpu.ev.dma_bytes", ev.dma_bytes);
    if (found == 0)
        return util::InvalidArgument(
            "run manifest ", path,
            ": no cpu.ev.* counters (captured by an older build?)");
    return ev;
}

}  // namespace atum::analysis
