#include "util/buffer_pool.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace balsort {

BufferPool::Lease BufferPool::acquire(std::size_t n_records) {
    bool hit = false;
    std::vector<Record> buf;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!free_.empty()) {
            // Prefer the buffer whose capacity already covers the request
            // (smallest such), falling back to the largest available — the
            // resize below then reallocates at most once.
            std::size_t best = free_.size();
            std::size_t largest = 0;
            for (std::size_t i = 0; i < free_.size(); ++i) {
                if (free_[i].capacity() >= n_records &&
                    (best == free_.size() || free_[i].capacity() < free_[best].capacity())) {
                    best = i;
                }
                if (free_[i].capacity() > free_[largest].capacity()) largest = i;
            }
            if (best == free_.size()) best = largest;
            buf = std::move(free_[best]);
            free_[best] = std::move(free_.back());
            free_.pop_back();
            stats_.retained_records -= buf.capacity();
            stats_.hits += 1;
            hit = true;
        } else {
            stats_.misses += 1;
        }
    }
    // Wall-clock-side observability only: acquire-size distribution plus
    // hit/miss counters in the installed registry (DESIGN.md §11).
    if (MetricsRegistry* reg = metrics(); reg != nullptr) {
        reg->histogram("pool.acquire_records").record(n_records);
        reg->counter(hit ? "pool.hits" : "pool.misses").add(1);
    }
    buf.resize(n_records);
    return Lease{this, std::move(buf)};
}

void BufferPool::give_back(std::vector<Record>&& buf) {
    if (buf.capacity() == 0) return;
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.retained_records += buf.capacity();
    stats_.high_water_records = std::max(stats_.high_water_records, stats_.retained_records);
    free_.push_back(std::move(buf));
}

} // namespace balsort
