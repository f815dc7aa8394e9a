#pragma once
/// \file cli_number.hpp
/// Strict number parsing shared by the command-line front ends
/// (balsort_cli, balsortd): a flag or job-file value counts as a number
/// only if all of it parses, so "abc", "4k", "-1" or an out-of-range value
/// becomes a usage error instead of an abort or a silent zero.

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>

namespace balsort {

/// `v` as a non-negative decimal no larger than `max`.
inline std::optional<std::uint64_t> parse_decimal(const std::string& v, std::uint64_t max) {
    char* end = nullptr;
    errno = 0;
    const unsigned long long x = std::strtoull(v.c_str(), &end, 10);
    if (v.empty() || v[0] == '-' || *end != '\0' || errno != 0 || x > max) return std::nullopt;
    return x;
}

/// `v` as a finite decimal fraction.
inline std::optional<double> parse_finite(const std::string& v) {
    char* end = nullptr;
    errno = 0;
    const double x = std::strtod(v.c_str(), &end);
    if (v.empty() || *end != '\0' || errno != 0 || !std::isfinite(x)) return std::nullopt;
    return x;
}

} // namespace balsort
