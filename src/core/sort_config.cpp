#include "core/sort_config.hpp"

#include "util/common.hpp"

namespace balsort {

void IoPolicy::validate() const {
    BS_REQUIRE(pool_buffers || shared_pool == nullptr,
               "IoPolicy: shared_pool with pool_buffers off would silently never be used");
    BS_REQUIRE(pool_buffers || pool_retain_records == SortOptions::kPoolRetainAuto,
               "IoPolicy: pool_retain_records with pool_buffers off would silently never apply");
    BS_REQUIRE(shared_pool == nullptr || pool_retain_records == SortOptions::kPoolRetainAuto,
               "IoPolicy: pool_retain_records sizes the per-sort pool; a shared pool's "
               "retention is fixed by its owner at construction");
}

void DurabilityPolicy::validate() const {
    BS_REQUIRE(resume_from.empty() || !checkpoint_path.empty(),
               "DurabilityPolicy: resume requires checkpoint — the resumed run continues "
               "checkpointing where the interrupted one stopped");
    BS_REQUIRE(!on_checkpoint || !checkpoint_path.empty(),
               "DurabilityPolicy: on_checkpoint hook without checkpoint_path never fires");
}

void ComputePolicy::validate() const {
    BS_REQUIRE(shared_executor == nullptr || threads == 0 ||
                   threads <= shared_executor->workers() + 1,
               "ComputePolicy: threads exceeds what the shared executor can honor "
               "(its workers() + the submitting thread)");
}

void ObsPolicy::validate() const {
    // Any combination of sinks is coherent today (each is independent);
    // the hook exists so future sinks validate in one place.
}

void SortJobConfig::validate(std::uint32_t d) const {
    io_policy.validate();
    compute_policy.validate();
    durability_policy.validate();
    obs_policy.validate();
    options().validate(d); // the algorithmic cross-checks live with SortOptions
}

SortOptions SortJobConfig::options() const {
    SortOptions o;
    o.s_target = s_target;
    o.bucket_policy = bucket_policy;
    o.pivot_method = pivot_method;
    o.internal_sort = internal_sort;
    o.d_virtual = d_virtual;
    o.balance = balance_opts;
    o.max_threads = compute_policy.threads;
    o.executor = compute_policy.shared_executor;
    o.reposition_buckets = reposition_buckets;
    o.synchronized_writes = io_policy.synchronized_writes;
    o.pool_buffers = io_policy.pool_buffers;
    o.cross_bucket_prefetch = io_policy.cross_bucket_prefetch;
    o.pool_retain_records = io_policy.pool_retain_records;
    o.shared_pool = io_policy.shared_pool;
    o.trace = obs_policy.trace;
    o.metrics = obs_policy.metrics;
    o.profiler = obs_policy.profiler;
    o.checkpoint_path = durability_policy.checkpoint_path;
    o.resume_from = durability_policy.resume_from;
    o.on_checkpoint = durability_policy.on_checkpoint;
    o.cancel = cancel_flag;
    return o;
}

BlockRun balance_sort(DiskArray& disks, const BlockRun& input, const PdmConfig& pdm,
                      const SortJobConfig& cfg, SortReport* report) {
    cfg.validate(disks.num_disks());
    return balance_sort(disks, input, pdm, cfg.options(), report);
}

std::vector<Record> balance_sort_records(DiskArray& disks, std::vector<Record> records,
                                         const PdmConfig& pdm, const SortJobConfig& cfg,
                                         SortReport* report) {
    cfg.validate(disks.num_disks());
    return balance_sort_records(disks, std::move(records), pdm, cfg.options(), report);
}

} // namespace balsort
