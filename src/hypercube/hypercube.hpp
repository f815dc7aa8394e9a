#pragma once
/// \file hypercube.hpp
/// Hypercube interconnect simulator (Fig. 4's alternative to the PRAM).
///
/// H = 2^d nodes; in one *communication step*, every node may exchange one
/// word with its neighbour across a single dimension (all nodes use the
/// same dimension per step — the normal-algorithm discipline that bitonic
/// sort, scans, and bit-fixing routing all obey). The simulator executes
/// the data movement faithfully and counts steps; Theorems 2–3 consume the
/// counted `T(H)` through `InterconnectCost`.

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "util/common.hpp"
#include "util/math.hpp"
#include "util/record.hpp"

namespace balsort {

/// The simulated machine: per-node single-Record registers plus a step
/// counter. Algorithms (bitonic.hpp) drive it through dimension exchanges.
class Hypercube {
public:
    /// nodes must be a power of two (H = 2^d).
    explicit Hypercube(std::size_t nodes);

    std::size_t size() const { return data_.size(); }
    unsigned dimensions() const { return dims_; }

    /// Value registers, one per node.
    Record& at(std::size_t node);
    const Record& at(std::size_t node) const;
    void load(std::span<const Record> values);
    std::vector<Record> unload() const;

    /// One communication step across dimension `dim`: for every pair
    /// (i, i + 2^dim) with bit `dim` of i clear, call f(i, lo, hi), which
    /// may rewrite both registers. Counts exactly one step.
    void exchange_step(unsigned dim,
                       const std::function<void(std::size_t, Record&, Record&)>& f);

    /// One local computation step applied at every node (counts one step;
    /// the theorems charge local work and communication uniformly).
    void local_step(const std::function<void(std::size_t, Record&)>& f);

    /// Steps executed so far.
    std::uint64_t steps() const { return steps_; }

private:
    std::vector<Record> data_;
    unsigned dims_;
    std::uint64_t steps_ = 0;
};

/// Analytic interconnect cost models used by Theorems 1-3.
struct InterconnectCost {
    /// PRAM: T(H) = Θ(log H).
    static double pram(double h) { return paper_log(h); }
    /// Hypercube, no precomputation: T(H) = Θ(log H (log log H)^2)
    /// (Cypher–Plaxton Sharesort, [CyP], as cited in Theorems 2–3).
    static double hypercube(double h) {
        double ll = paper_log(paper_log(h));
        return paper_log(h) * ll * ll;
    }
    /// Hypercube with precomputation: Θ(log H log log H) (§4.3).
    static double hypercube_precomp(double h) { return paper_log(h) * paper_log(paper_log(h)); }
    /// Bitonic sort (what this simulator actually executes): Θ(log^2 H).
    static double bitonic(double h) { return paper_log(h) * paper_log(h); }
};

} // namespace balsort
