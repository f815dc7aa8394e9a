#include "pdm/striping.hpp"

#include <algorithm>
#include <cmath>

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

std::uint64_t BlockRun::read_steps(std::uint32_t d) const {
    std::vector<std::uint64_t> per_disk(d, 0);
    for (const auto& op : blocks) {
        BS_REQUIRE(op.disk < d, "BlockRun::read_steps: disk out of range");
        per_disk[op.disk]++;
    }
    return *std::max_element(per_disk.begin(), per_disk.end());
}

std::uint64_t BlockRun::optimal_read_steps(std::uint32_t d) const {
    return ceil_div(blocks.size(), d);
}

void BlockRun::release(DiskArray& disks) const {
    for (const BlockOp& op : blocks) disks.release(op);
}

RunWriter::RunWriter(DiskArray& disks, std::uint32_t start_disk, bool synchronized)
    : disks_(disks), next_disk_(start_disk % disks.num_disks()), synchronized_(synchronized) {}

void RunWriter::append(std::span<const Record> records) {
    BS_REQUIRE(!finished_, "RunWriter::append after finish");
    run_.n_records += records.size();
    const std::size_t stripe = static_cast<std::size_t>(disks_.block_size()) * disks_.num_disks();
    // Top the buffered tail up to a stripe, then write the caller's full
    // stripes straight from its span: only a < 1-stripe rest is copied, so
    // an append costs O(records) however the records are split.
    if (!buffer_.empty()) {
        const std::size_t take = std::min(stripe - buffer_.size(), records.size());
        buffer_.insert(buffer_.end(), records.begin(), records.begin() + take);
        records = records.subspan(take);
        if (buffer_.size() == stripe) {
            write_stripe(buffer_);
            buffer_.clear();
        }
    }
    for (; records.size() >= stripe; records = records.subspan(stripe)) {
        write_stripe(records.first(stripe));
    }
    buffer_.insert(buffer_.end(), records.begin(), records.end());
}

void RunWriter::write_stripe(std::span<const Record> data) {
    const std::uint32_t d = disks_.num_disks();
    const std::size_t stripe_blocks = data.size() / disks_.block_size();
    std::vector<BlockOp> ops;
    ops.reserve(stripe_blocks);
    // §6 synchronized mode: the stripe shares one fresh index across
    // the array (>= every disk's high-water mark), so each member
    // block is at the same relative position — parity-friendly.
    std::uint64_t synced_index = 0;
    if (synchronized_) {
        for (std::uint32_t k = 0; k < d; ++k) {
            synced_index = std::max(synced_index, disks_.high_water(k));
        }
    }
    for (std::size_t k = 0; k < stripe_blocks; ++k) {
        const std::uint32_t disk = next_disk_;
        next_disk_ = (next_disk_ + 1) % d;
        ops.push_back(BlockOp{disk, synchronized_ ? synced_index : disks_.allocate(disk)});
    }
    disks_.write_step(ops, data);
    run_.blocks.insert(run_.blocks.end(), ops.begin(), ops.end());
}

BlockRun RunWriter::finish() {
    BS_REQUIRE(!finished_, "RunWriter::finish called twice");
    if (!buffer_.empty()) {
        // The last, partial stripe: zero-pad its tail block.
        buffer_.resize(round_up(buffer_.size(), disks_.block_size()));
        write_stripe(buffer_);
        buffer_.clear();
    }
    finished_ = true;
    return std::move(run_);
}

void VRun::append(std::span<const BlockOp> vblock, std::uint32_t count) {
    BS_MODEL_CHECK(!vblock.empty() && (counts.empty() || vblock.size() == group()),
                   "VRun::append: virtual blocks of one run must have one group size");
    blocks.insert(blocks.end(), vblock.begin(), vblock.end());
    counts.push_back(count);
    n_records += count;
}

RunReader::RunReader(DiskArray& disks, const BlockRun& run)
    : disks_(disks), run_(run), counts_(nullptr), buffers_(nullptr), group_(1),
      unit_records_(disks.block_size()), n_units_(run.blocks.size()),
      remaining_(run.n_records) {}

RunReader::RunReader(DiskArray& disks, const VRun& run, BufferPool* buffers)
    : disks_(disks), run_(run), counts_(&run.counts), buffers_(buffers),
      group_(std::max<std::uint32_t>(1, run.group())),
      unit_records_(static_cast<std::uint64_t>(group_) * disks.block_size()),
      n_units_(run.counts.size()), remaining_(run.n_records) {}

RunReader::~RunReader() {
    // A dropped reader must not leave the engine writing into freed
    // prefetch buffers; recovery failures of a run nobody reads die here.
    end_staged_span(staged_trace_id_);
    if (pending_.ticket.valid()) {
        try {
            disks_.complete_read(pending_.ticket);
        } catch (...) {
        }
    }
}

std::uint64_t RunReader::unit_count(std::uint64_t u) const {
    if (counts_ != nullptr) return (*counts_)[u];
    const std::uint64_t begin = u * unit_records_;
    return run_.n_records > begin ? std::min(unit_records_, run_.n_records - begin) : 0;
}

void RunReader::issue_prefetch(std::uint64_t first, std::uint64_t n) {
    pending_.buf = BufferPool::acquire_from(buffers_, n * unit_records_);
    pending_.first_unit = first;
    pending_.n_units = n;
    pending_.ticket = disks_.prefetch_read(unit_ops(first, n), *pending_.buf);
}

bool RunReader::start_prefetch(std::uint64_t max_records, double* hidden_sink) {
    if (!disks_.async_enabled() || n_units_ == 0) return false;
    if (next_unit_ != 0 || pending_.n_units != 0) return false; // reading already began
    issue_prefetch(0, std::min(n_units_, std::max<std::uint64_t>(
                                             1, ceil_div(max_records, unit_records_))));
    hidden_sink_ = hidden_sink;
    staged_at_ = std::chrono::steady_clock::now();
    staged_ = true;
    if (Tracer* t = tracer(); t != nullptr) {
        staged_trace_id_ = t->next_async_id();
        t->async_begin("staged_prefetch", "staging", staged_trace_id_, t->lane("staging"),
                       {{"vblocks", static_cast<std::int64_t>(pending_.n_units)}});
    }
    return true;
}

void RunReader::fetch_units(std::uint64_t first, std::uint64_t n, std::span<Record> buf) {
    const std::span<const BlockOp> ops = unit_ops(first, n);
    if (!disks_.async_enabled()) {
        disks_.read_batch(ops, buf);
        return;
    }
    // Model cost of this fetch, charged as one batch exactly like the
    // inline executor (splitting it around the prefetch boundary could
    // inflate the step count — two half-stripes cost two steps, one full
    // stripe one).
    disks_.charge_read_batch(ops);
    std::uint64_t served = 0;
    if (pending_.n_units > pending_.consumed) {
        BS_MODEL_CHECK(pending_.first_unit + pending_.consumed == first,
                       "RunReader: prefetch out of sequence");
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
            disks_.complete_read(pending_.ticket);
            pending_.waited = true;
        }
        const std::uint64_t take = std::min(n, pending_.n_units - pending_.consumed);
        std::copy_n(pending_.buf->begin() +
                        static_cast<std::ptrdiff_t>(pending_.consumed * unit_records_),
                    take * unit_records_, buf.begin());
        pending_.consumed += take;
        served = take;
    }
    if (served < n) {
        // The prefetch fell short (first fetch, or a grown request): issue
        // the remainder as an uncharged physical read and wait for it.
        DiskArray::ReadTicket rest =
            disks_.prefetch_read(ops.subspan(served * group_), buf.subspan(served * unit_records_));
        disks_.complete_read(rest);
    }
    if (pending_.consumed >= pending_.n_units) {
        // Pending exhausted: start the next prefetch, sized like this
        // fetch and clamped to the run end, so a steady consumer always
        // finds its next memoryload already in flight.
        pending_ = Prefetch{};
        const std::uint64_t next_n = std::min(n, n_units_ - (first + n));
        if (next_n > 0) issue_prefetch(first + n, next_n);
    }
}

std::span<Record> RunReader::next(std::uint64_t n) {
    const std::uint64_t want = std::min(n, remaining_);
    remaining_ -= want;
    const std::uint64_t left = carry_end_ - carry_pos_;
    if (left >= want) {
        const std::span<Record> view(carry_->data() + carry_pos_, want);
        carry_pos_ += want;
        return view;
    }
    // Whole units covering the deficit, fetched after the leftover.
    std::uint64_t covered = left;
    std::uint64_t last = next_unit_;
    while (covered < want) {
        BS_MODEL_CHECK(last < n_units_, "RunReader: run exhausted prematurely");
        covered += unit_count(last++);
    }
    const std::uint64_t n_fetch = last - next_unit_;
    const std::uint64_t size = left + n_fetch * unit_records_;
    const auto at = [this](std::uint64_t i) {
        return carry_->begin() + static_cast<std::ptrdiff_t>(i);
    };
    if (carry_->size() < size) {
        BufferPool::Lease grown = BufferPool::acquire_from(buffers_, size);
        std::copy(at(carry_pos_), at(carry_end_), grown->begin());
        carry_ = std::move(grown);
    } else {
        std::copy(at(carry_pos_), at(carry_end_), at(0));
    }
    fetch_units(next_unit_, n_fetch, std::span<Record>(*carry_).subspan(left, size - left));
    // Compact the valid prefix of every unit in place (a no-op for full
    // units).
    std::uint64_t end = left;
    for (std::uint64_t k = 0; k < n_fetch; ++k) {
        const std::uint64_t count = unit_count(next_unit_ + k);
        const std::uint64_t src = left + k * unit_records_;
        if (end != src) std::copy_n(at(src), count, at(end));
        end += count;
    }
    next_unit_ = last;
    carry_pos_ = want;
    carry_end_ = end;
    return {carry_->data(), want};
}

std::uint64_t RunReader::read(std::span<Record> out) {
    const std::span<const Record> view = next(out.size());
    std::copy(view.begin(), view.end(), out.begin());
    return view.size();
}

BlockRun write_striped(DiskArray& disks, std::span<const Record> records) {
    RunWriter w(disks);
    w.append(records);
    return w.finish();
}

std::vector<Record> read_run(DiskArray& disks, const BlockRun& run) {
    RunReader r(disks, run);
    const std::span<const Record> all = r.next(run.n_records);
    return {all.begin(), all.end()};
}

VirtualDisks::VirtualDisks(DiskArray& disks, std::uint32_t n_virtual, bool synchronized_writes)
    : disks_(disks), n_virtual_(n_virtual), synchronized_writes_(synchronized_writes) {
    BS_REQUIRE(n_virtual >= 1 && n_virtual <= disks.num_disks(),
               "VirtualDisks: need 1 <= D' <= D");
    BS_REQUIRE(disks.num_disks() % n_virtual == 0, "VirtualDisks: D' must divide D");
    group_ = disks.num_disks() / n_virtual;
}

std::vector<BlockOp> VirtualDisks::write_track(std::span<const std::uint32_t> vdisks,
                                               std::span<const Record> data) {
    BS_REQUIRE(data.size() == vdisks.size() * static_cast<std::size_t>(vblock_records()),
               "write_track: data size mismatch");
    std::vector<bool> used(n_virtual_, false);
    std::vector<BlockOp> ops;
    ops.reserve(vdisks.size() * group_);
    // Synchronized (fully striped) writes: one common index, free across
    // the WHOLE array, so the step is a same-relative-position stripe.
    std::uint64_t synced_index = 0;
    if (synchronized_writes_) {
        for (std::uint32_t d = 0; d < disks_.num_disks(); ++d) {
            synced_index = std::max(synced_index, disks_.high_water(d));
        }
    }
    for (const std::uint32_t h : vdisks) {
        BS_REQUIRE(h < n_virtual_, "write_track: vdisk out of range");
        BS_MODEL_CHECK(!used[h], "write_track: two virtual blocks on one virtual disk");
        used[h] = true;
        for (std::uint32_t g = 0; g < group_; ++g) {
            const std::uint32_t disk = h * group_ + g;
            ops.push_back(BlockOp{disk, synchronized_writes_ ? synced_index : disks_.allocate(disk)});
        }
    }
    disks_.write_step(ops, data);
    return ops;
}

std::uint32_t VirtualDisks::default_virtual_count(std::uint32_t d, double exponent) {
    BS_REQUIRE(d >= 1, "default_virtual_count: d must be >= 1");
    const double target = std::pow(static_cast<double>(d), exponent);
    std::uint32_t best = 1;
    double best_dist = std::abs(1.0 - target);
    for (std::uint32_t c = 1; c <= d; ++c) {
        if (d % c != 0) continue;
        const double dist = std::abs(static_cast<double>(c) - target);
        if (dist < best_dist || (dist == best_dist && c > best)) {
            best = c;
            best_dist = dist;
        }
    }
    return best;
}

} // namespace balsort
