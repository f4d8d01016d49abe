#include "replay/config_spec.h"

#include <cmath>
#include <vector>

#include "util/parse.h"

namespace atum::replay {

namespace {

/** The numeric fields; the alias SIZE_KB:BLOCK:ASSOC sets the first
 *  three in order. */
constexpr struct {
    std::string_view key;
    uint32_t ConfigSpec::*member;
} kFields[] = {{"size_kb", &ConfigSpec::size_kb},
               {"block", &ConfigSpec::block},
               {"assoc", &ConfigSpec::assoc},
               {"entries", &ConfigSpec::entries},
               {"ways", &ConfigSpec::ways}};

bool
IsKnownKind(std::string_view kind)
{
    return kind == "cache" || kind == "hierarchy" || kind == "tlb";
}

/** The largest value a field takes: size_kb is shifted into a 32-bit
 *  byte count, the rest are 32-bit simulator fields. */
uint64_t
MaxOf(std::string_view key)
{
    return key == "size_kb" ? UINT32_MAX >> 10 : UINT32_MAX;
}

/** Sets field `key` from decimal text. */
util::Status
SetField(ConfigSpec& spec, std::string_view key, std::string_view value)
{
    for (const auto& field : kFields) {
        if (field.key != key)
            continue;
        util::StatusOr<uint64_t> n = util::ParseUint(value, MaxOf(key));
        if (!n.ok())
            return util::InvalidArgument("config field '", key, "' ",
                                         n.status().message());
        spec.*field.member = static_cast<uint32_t>(*n);
        return util::OkStatus();
    }
    return util::InvalidArgument("unknown config key '", key, "'");
}

}  // namespace

SweepConfig
ConfigSpec::ToReplayConfig() const
{
    if (kind == "hierarchy") {
        cache::HierarchyConfig h;
        h.l2.size_bytes = size_kb << 10;
        h.l2.block_bytes = block;
        h.l2.assoc = assoc;
        return MakeHierarchyJob(h, label);
    }
    if (kind == "tlb") {
        tlbsim::TlbSimConfig t;
        t.entries = entries;
        t.ways = ways;
        return MakeTlbJob(t, label);
    }
    cache::CacheConfig c;
    c.size_bytes = size_kb << 10;
    c.block_bytes = block;
    c.assoc = assoc;
    return MakeCacheJob(c, {}, label);
}

void
ConfigSpec::WriteJson(util::JsonWriter& w) const
{
    w.BeginObject();
    w.KeyValue("kind", kind);
    if (!label.empty())
        w.KeyValue("label", label);
    if (kind == "tlb") {
        w.KeyValue("entries", entries);
        w.KeyValue("ways", ways);
    } else {
        w.KeyValue("size_kb", size_kb);
        w.KeyValue("block", block);
        w.KeyValue("assoc", assoc);
    }
    w.EndObject();
}

util::StatusOr<ConfigSpec>
ParseConfigSpec(const util::JsonValue& doc)
{
    if (!doc.is_object())
        return util::InvalidArgument("config must be a JSON object");
    ConfigSpec spec;
    if (doc.Has("kind"))
        spec.kind = doc.Get("kind").AsString();
    if (!IsKnownKind(spec.kind))
        return util::InvalidArgument("unknown config kind '", spec.kind,
                                     "' (cache | hierarchy | tlb)");
    spec.label = doc.Get("label").AsString();
    if (spec.label.size() > 64)
        return util::InvalidArgument("config label over 64 chars");
    for (const auto& field : kFields) {
        const std::string key(field.key);
        if (!doc.Has(key))
            continue;
        const util::JsonValue& v = doc.Get(key);
        const double n = v.AsDouble();
        if (!v.is_number() || !(n >= 0) ||
            n > static_cast<double>(MaxOf(key)) || n != std::floor(n))
            return util::InvalidArgument("config field '", key,
                                         "' must be a whole number from 0 "
                                         "to ", MaxOf(key));
        spec.*field.member = static_cast<uint32_t>(n);
    }
    return spec;
}

util::StatusOr<ConfigSpec>
ParseConfigSpecText(std::string_view text, std::string_view only_kind)
{
    std::vector<std::string_view> parts;
    std::string_view rest = text;
    for (size_t colon; (colon = rest.find(':')) != std::string_view::npos;
         rest.remove_prefix(colon + 1))
        parts.push_back(rest.substr(0, colon));
    parts.push_back(rest);

    ConfigSpec spec;
    if (!parts[0].empty() && parts[0][0] >= '0' && parts[0][0] <= '9') {
        // A bare TLB entry count, or the alias SIZE_KB:BLOCK:ASSOC.
        if (only_kind == "tlb" && parts.size() == 1) {
            spec.kind = "tlb";
            if (util::Status s = SetField(spec, "entries", parts[0]); !s.ok())
                return s;
        } else if (parts.size() == 3) {
            for (size_t i = 0; i < 3; ++i)
                if (util::Status s = SetField(spec, kFields[i].key, parts[i]);
                    !s.ok())
                    return s;
        } else {
            return util::InvalidArgument("config '", text,
                                         "' is not SIZE_KB:BLOCK:ASSOC");
        }
    } else {
        spec.kind = parts[0];
        if (!IsKnownKind(spec.kind))
            return util::InvalidArgument("unknown config kind '", spec.kind,
                                         "' (cache | hierarchy | tlb)");
        for (size_t i = 1; i < parts.size(); ++i) {
            const size_t eq = parts[i].find('=');
            if (eq == std::string_view::npos || eq == 0)
                return util::InvalidArgument("config part '", parts[i],
                                             "' is not key=value");
            const std::string_view key = parts[i].substr(0, eq);
            const std::string_view value = parts[i].substr(eq + 1);
            if (key == "label") {
                if (value.size() > 64)
                    return util::InvalidArgument(
                        "config label over 64 chars");
                spec.label = value;
            } else if (util::Status s = SetField(spec, key, value); !s.ok()) {
                return s;
            }
        }
    }
    if (!only_kind.empty() && spec.kind != only_kind)
        return util::InvalidArgument("wants a ", only_kind,
                                     " config, got '", text, "'");
    return spec;
}

}  // namespace atum::replay
