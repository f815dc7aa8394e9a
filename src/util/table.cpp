#include "util/table.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "util/common.hpp"

namespace balsort {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
    BS_REQUIRE(!headers_.empty(), "Table needs at least one column");
}

void Table::add_row(std::vector<std::string> cells) {
    BS_REQUIRE(cells.size() == headers_.size(), "Table row has wrong number of cells");
    rows_.push_back(std::move(cells));
}

void Table::add_separator() { rows_.emplace_back(); }

void Table::print(std::ostream& os) const {
    std::vector<std::size_t> width(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
    for (const auto& row : rows_) {
        for (std::size_t c = 0; c < row.size(); ++c) width[c] = std::max(width[c], row[c].size());
    }
    auto rule = [&] {
        os << '+';
        for (std::size_t c = 0; c < width.size(); ++c) os << std::string(width[c] + 2, '-') << '+';
        os << '\n';
    };
    auto line = [&](const std::vector<std::string>& cells) {
        os << '|';
        for (std::size_t c = 0; c < width.size(); ++c) {
            os << ' ' << std::setw(static_cast<int>(width[c])) << std::right << cells[c] << " |";
        }
        os << '\n';
    };
    rule();
    line(headers_);
    rule();
    for (const auto& row : rows_) {
        if (row.empty()) {
            rule();
        } else {
            line(row);
        }
    }
    rule();
}

std::string Table::num(std::uint64_t v) {
    // Group digits with commas for readability: 1234567 -> 1,234,567.
    std::string raw = std::to_string(v);
    std::string out;
    out.reserve(raw.size() + raw.size() / 3);
    std::size_t lead = raw.size() % 3 == 0 ? 3 : raw.size() % 3;
    for (std::size_t i = 0; i < raw.size(); ++i) {
        if (i != 0 && (i - lead) % 3 == 0 && i >= lead) out.push_back(',');
        out.push_back(raw[i]);
    }
    return out;
}

std::string Table::fixed(double v, int digits) {
    std::ostringstream os;
    os << std::fixed << std::setprecision(digits) << v;
    return os.str();
}

} // namespace balsort
