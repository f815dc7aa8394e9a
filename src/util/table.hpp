#pragma once
/// \file table.hpp
/// ASCII table printer used by every bench harness to emit the
/// paper-style rows/series (EXPERIMENTS.md).

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace balsort {

/// Fixed-column ASCII table. Columns are sized to the widest cell.
///
///     Table t({"N", "I/Os", "ratio"});
///     t.add_row({"1048576", "24576", "1.37"});
///     t.print(std::cout);
class Table {
public:
    explicit Table(std::vector<std::string> headers);

    void add_row(std::vector<std::string> cells);
    /// Insert a horizontal separator before the next row.
    void add_separator();

    void print(std::ostream& os) const;

    /// Formatting helpers for cells.
    static std::string num(std::uint64_t v);
    static std::string fixed(double v, int digits = 2);

private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_; // empty row == separator
};

} // namespace balsort
