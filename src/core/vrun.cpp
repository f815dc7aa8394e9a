#include "core/vrun.hpp"

#include <algorithm>

#include "obs/tracer.hpp"

namespace balsort {

namespace {

/// Close a staged-prefetch trace pair (issue..first-wait) if one is open.
void end_staged_span(std::uint64_t& id) {
    if (id == 0) return;
    if (Tracer* t = tracer(); t != nullptr) {
        t->async_end("staged_prefetch", "staging", id, t->lane("staging"));
    }
    id = 0;
}

} // namespace

std::uint64_t VRun::read_steps(std::uint32_t n_vdisks) const {
    std::vector<std::uint64_t> per(n_vdisks, 0);
    for (const auto& e : entries) {
        BS_REQUIRE(e.vblock.vdisk < n_vdisks, "VRun::read_steps: vdisk out of range");
        per[e.vblock.vdisk]++;
    }
    return per.empty() ? 0 : *std::max_element(per.begin(), per.end());
}

std::uint64_t VRun::optimal_read_steps(std::uint32_t n_vdisks) const {
    return ceil_div(entries.size(), n_vdisks);
}

void VRun::release(DiskArray& disks) const {
    for (const auto& e : entries) {
        for (const auto& op : e.vblock.ops) disks.release(op);
    }
}

VRunSource::VRunSource(VirtualDisks& vdisks, const VRun& run, BufferPool* buffers)
    : vdisks_(vdisks), run_(run), buffers_(buffers), remaining_(run.n_records) {}

VRunSource::~VRunSource() {
    end_staged_span(staged_trace_id_);
    if (pending_.ticket.valid()) {
        try {
            vdisks_.array().complete_read(pending_.ticket);
        } catch (...) {
        }
    }
}

std::vector<BlockOp> VRunSource::entry_ops(std::size_t first, std::size_t n) const {
    std::vector<BlockOp> ops;
    ops.reserve(n * vdisks_.group_size());
    for (std::size_t e = first; e < first + n; ++e) {
        const auto& vb = run_.entries[e].vblock;
        ops.insert(ops.end(), vb.ops.begin(), vb.ops.end());
    }
    return ops;
}

bool VRunSource::start_prefetch(std::uint64_t max_records, double* hidden_sink) {
    DiskArray& array = vdisks_.array();
    if (!array.async_enabled() || run_.entries.empty()) return false;
    if (next_entry_ != 0 || pending_.n_entries != 0) return false; // reading already began
    const std::uint32_t v = vdisks_.vblock_records();
    const std::size_t n = std::min<std::size_t>(
        run_.entries.size(),
        static_cast<std::size_t>(std::max<std::uint64_t>(1, ceil_div(max_records, v))));
    pending_.buf = BufferPool::acquire_from(buffers_, n * v);
    pending_.first_entry = 0;
    pending_.n_entries = n;
    pending_.ticket = array.prefetch_read(entry_ops(0, n), std::span<Record>(*pending_.buf));
    hidden_sink_ = hidden_sink;
    staged_at_ = std::chrono::steady_clock::now();
    staged_ = true;
    if (Tracer* t = tracer(); t != nullptr) {
        staged_trace_id_ = t->next_async_id();
        t->async_begin("staged_prefetch", "staging", staged_trace_id_, t->lane("staging"),
                       {{"vblocks", static_cast<std::int64_t>(n)}});
    }
    return true;
}

void VRunSource::fetch_entries(std::size_t first, std::size_t n, std::span<Record> buf) {
    DiskArray& array = vdisks_.array();
    const std::uint32_t v = vdisks_.vblock_records();
    if (!array.async_enabled()) {
        std::vector<VirtualDisks::VBlock> vbs;
        vbs.reserve(n);
        for (std::size_t e = first; e < first + n; ++e) vbs.push_back(run_.entries[e].vblock);
        vdisks_.read_vblocks(vbs, buf);
        return;
    }
    // One charge for the whole fetch — the exact batch the inline executor
    // reads.
    array.charge_read_batch(entry_ops(first, n));
    std::size_t served = 0;
    if (pending_.n_entries > pending_.consumed) {
        BS_MODEL_CHECK(pending_.first_entry + pending_.consumed == first,
                       "VRunSource: prefetch out of sequence");
        if (!pending_.waited) {
            if (staged_) {
                // The window between issuing the staged prefetch and this
                // first wait is time the engine worked under the caller's
                // computation (DESIGN.md §10).
                if (hidden_sink_ != nullptr) {
                    *hidden_sink_ += std::chrono::duration<double>(
                                         std::chrono::steady_clock::now() - staged_at_)
                                         .count();
                }
                staged_ = false;
                end_staged_span(staged_trace_id_);
            }
            array.complete_read(pending_.ticket);
            pending_.waited = true;
        }
        const std::size_t take = std::min(n, pending_.n_entries - pending_.consumed);
        std::copy_n(pending_.buf->begin() + static_cast<std::ptrdiff_t>(pending_.consumed * v),
                    take * v, buf.begin());
        pending_.consumed += take;
        served = take;
    }
    if (served < n) {
        const std::vector<BlockOp> rest = entry_ops(first + served, n - served);
        DiskArray::ReadTicket ticket = array.prefetch_read(rest, buf.subspan(served * v));
        array.complete_read(ticket);
    }
    if (pending_.consumed >= pending_.n_entries) {
        pending_ = Prefetch{};
        const std::size_t next_first = first + n;
        const std::size_t next_n = std::min(n, run_.entries.size() - next_first);
        if (next_n > 0) {
            pending_.buf = BufferPool::acquire_from(buffers_, next_n * v);
            pending_.first_entry = next_first;
            pending_.n_entries = next_n;
            pending_.ticket =
                array.prefetch_read(entry_ops(next_first, next_n), std::span<Record>(*pending_.buf));
        }
    }
}

std::uint64_t VRunSource::read(std::span<Record> out) {
    const std::uint64_t want = std::min<std::uint64_t>(out.size(), remaining_);
    std::uint64_t got = 0;
    while (got < want && carry_pos_ < carry_.size()) {
        out[got++] = carry_[carry_pos_++];
    }
    if (carry_pos_ >= carry_.size()) {
        carry_.clear();
        carry_pos_ = 0;
    }
    if (got < want) {
        // Decide how many whole virtual blocks cover the deficit.
        const std::uint64_t need = want - got;
        std::uint64_t covered = 0;
        std::size_t last = next_entry_;
        while (covered < need) {
            BS_MODEL_CHECK(last < run_.entries.size(), "VRunSource: run exhausted prematurely");
            covered += run_.entries[last].count;
            ++last;
        }
        const std::size_t n_fetch = last - next_entry_;
        const std::uint32_t v = vdisks_.vblock_records();
        auto buf = BufferPool::acquire_from(buffers_, n_fetch * v);
        fetch_entries(next_entry_, n_fetch, std::span<Record>(*buf));
        // Concatenate the valid prefixes of each block.
        auto valid = BufferPool::acquire_from(buffers_, 0);
        valid->reserve(covered);
        for (std::size_t k = 0; k < n_fetch; ++k) {
            const auto& entry = run_.entries[next_entry_ + k];
            valid->insert(valid->end(), buf->begin() + static_cast<std::ptrdiff_t>(k * v),
                          buf->begin() + static_cast<std::ptrdiff_t>(k * v + entry.count));
        }
        next_entry_ = last;
        std::copy_n(valid->begin(), need, out.begin() + static_cast<std::ptrdiff_t>(got));
        got += need;
        if (valid->size() > need) {
            carry_.assign(valid->begin() + static_cast<std::ptrdiff_t>(need), valid->end());
        }
    }
    remaining_ -= want;
    return want;
}

std::uint64_t VectorSource::read(std::span<Record> out) {
    const std::uint64_t want =
        std::min<std::uint64_t>(out.size(), records_.size() - pos_);
    std::copy_n(records_.begin() + static_cast<std::ptrdiff_t>(pos_), want, out.begin());
    pos_ += want;
    return want;
}

} // namespace balsort
