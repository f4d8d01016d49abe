#ifndef ATUM_UTIL_TABLE_H_
#define ATUM_UTIL_TABLE_H_

/**
 * @file
 * A simple fixed-column text table used by the benchmark harnesses to print
 * paper-style result tables (and CSV for downstream plotting).
 */

#include <string>
#include <vector>

namespace atum {

/**
 * Collects rows of strings and renders them with aligned columns.
 *
 * Example:
 *   Table t({"cache", "miss%"});
 *   t.AddRow({"16K", "4.2"});
 *   std::cout << t.ToString();
 */
class Table
{
  public:
    /** Creates a table with the given column headers. */
    explicit Table(std::vector<std::string> headers);

    /** Appends one row; must have exactly as many cells as headers. */
    void AddRow(std::vector<std::string> cells);

    /** Formats a double with `prec` digits after the decimal point. */
    static std::string Fmt(double v, int prec = 3);

    /** Renders with space-aligned columns and a header separator line. */
    std::string ToString() const;

    size_t NumRows() const { return rows_.size(); }

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

}  // namespace atum

#endif  // ATUM_UTIL_TABLE_H_
