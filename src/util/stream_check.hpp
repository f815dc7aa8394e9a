#pragma once
/// \file stream_check.hpp
/// A one-pass output check for an external sort: the input and the output
/// stream through it chunk by chunk, and nothing is kept but a few words.
///
/// Each side folds an order-independent multiset fingerprint of its
/// records: the count plus two sums of independently mixed record hashes
/// (the construction of `perfbench_harness check`, with wyhash's one-multiply
/// mixer under two key/payload seeds). The output side also checks that keys
/// never descend, across chunk boundaries too. A dropped, duplicated or
/// altered record changes the fingerprint except with a probability of
/// about 2^-64 per sum; a reordering of equal-key records changes nothing,
/// because a sort may emit those in any order. The check detects accidents
/// (lost blocks, torn writes, a broken sort), not a crafted input.

#include <cstdint>
#include <span>
#include <string>

#include "util/record.hpp"

namespace balsort {

/// Checks that the output stream is the input stream, sorted by key.
class StreamCheck {
  public:
    /// Fold the next input chunk (any order).
    void input(std::span<const Record> chunk) { in_.add(chunk); }

    /// Fold the next output chunk, in output order.
    void output(std::span<const Record> chunk);

    /// Empty when the output so far is a sorted permutation of the input so
    /// far; otherwise the first reason it is not, as one line.
    std::string failure() const;

  private:
    /// Order-independent fingerprint of a multiset of records.
    struct Fingerprint {
        std::uint64_t n = 0, s1 = 0, s2 = 0;

        void add(std::span<const Record> records);
        bool operator==(const Fingerprint&) const = default;
    };
    static constexpr std::uint64_t kSorted = ~std::uint64_t{0};

    Fingerprint in_, out_;
    std::uint64_t last_key_ = 0;
    std::uint64_t first_descent_ = kSorted; ///< output index of the first key < its predecessor
};

} // namespace balsort
