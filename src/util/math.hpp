#pragma once
/// \file math.hpp
/// Integer math helpers, including the paper's `log x = max{1, log2 x}`
/// convention (footnote 1 of the paper) used throughout the I/O and
/// work-bound formulas.

#include <bit>
#include <cmath>
#include <cstdint>

#include "util/common.hpp"

namespace balsort {

/// ceil(a / b) for non-negative integers; b > 0.
constexpr std::uint64_t ceil_div(std::uint64_t a, std::uint64_t b) {
    return (a + b - 1) / b;
}

/// Round `a` up to the next multiple of `b` (b > 0).
constexpr std::uint64_t round_up(std::uint64_t a, std::uint64_t b) {
    return ceil_div(a, b) * b;
}

/// floor(log2 x); x must be >= 1.
constexpr unsigned ilog2_floor(std::uint64_t x) {
    return 63u - static_cast<unsigned>(std::countl_zero(x | 1));
}

/// ceil(log2 x); x must be >= 1.
constexpr unsigned ilog2_ceil(std::uint64_t x) {
    unsigned f = ilog2_floor(x);
    return (std::uint64_t{1} << f) == x ? f : f + 1;
}

/// true iff x is a power of two (and nonzero).
constexpr bool is_pow2(std::uint64_t x) {
    return x != 0 && (x & (x - 1)) == 0;
}

/// The paper's `log x` := max{1, log2 x} (base-2, real-valued).
inline double paper_log(double x) {
    if (x <= 2.0) return 1.0;
    return std::log2(x);
}

/// log_b(x) with the same max{1, .} clamping applied to both logs:
/// log(x)/log(b) as used in Theorem 1's `log(N/B)/log(M/B)`.
inline double paper_log_ratio(double x, double b) {
    return paper_log(x) / paper_log(b);
}

/// floor(x^(1/k)) for k >= 1, by Newton + correction. Exact for all uint64.
inline std::uint64_t iroot(std::uint64_t x, unsigned k) {
    BS_REQUIRE(k >= 1, "iroot: k must be >= 1");
    if (k == 1 || x <= 1) return x;
    auto pow_le = [&](std::uint64_t r) {
        // returns true if r^k <= x without overflow
        std::uint64_t acc = 1;
        for (unsigned i = 0; i < k; ++i) {
            if (r != 0 && acc > x / r) return false;
            acc *= r;
        }
        return acc <= x;
    };
    std::uint64_t r = static_cast<std::uint64_t>(std::pow(static_cast<double>(x), 1.0 / k));
    while (r > 0 && !pow_le(r)) --r;
    while (pow_le(r + 1)) ++r;
    return r;
}

/// floor(sqrt(x)).
inline std::uint64_t isqrt(std::uint64_t x) { return iroot(x, 2); }

} // namespace balsort
