#include "util/table.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "util/logging.h"

namespace atum {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers))
{
    if (headers_.empty())
        Panic("Table requires at least one column");
}

void
Table::AddRow(std::vector<std::string> cells)
{
    if (cells.size() != headers_.size()) {
        Panic("Table row has ", cells.size(), " cells, expected ",
              headers_.size());
    }
    rows_.push_back(std::move(cells));
}

std::string
Table::Fmt(double v, int prec)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", prec, v);
    return buf;
}

std::string
Table::ToString() const
{
    std::vector<size_t> widths(headers_.size());
    for (size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto& row : rows_)
        for (size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    std::ostringstream os;
    auto emit_row = [&](const std::vector<std::string>& row) {
        for (size_t c = 0; c < row.size(); ++c) {
            os << row[c];
            if (c + 1 < row.size())
                os << std::string(widths[c] - row[c].size() + 2, ' ');
        }
        os << "\n";
    };
    emit_row(headers_);
    size_t total = 0;
    for (size_t c = 0; c < widths.size(); ++c)
        total += widths[c] + (c + 1 < widths.size() ? 2 : 0);
    os << std::string(total, '-') << "\n";
    for (const auto& row : rows_)
        emit_row(row);
    return os.str();
}

}  // namespace atum
