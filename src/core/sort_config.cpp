#include "core/sort_config.hpp"

#include "pram/executor.hpp"
#include "util/common.hpp"

namespace balsort {

void IoPolicy::validate() const {
    BS_REQUIRE(shared_pool == nullptr || pool_retain_records == kPoolRetainAuto,
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

void SortJobConfig::validate(std::uint32_t d) const {
    io_policy.validate();
    compute_policy.validate();
    durability_policy.validate();
    BS_REQUIRE(!(pivot_method == PivotMethod::kStreamingSketch &&
                 bucket_policy == BucketPolicy::kSqrtLevel),
               "SortJobConfig: PivotMethod::kStreamingSketch cannot be combined with "
               "BucketPolicy::kSqrtLevel — the child level's S is unknown while the parent "
               "runs, so no sketch can be sized for it");
    BS_REQUIRE(s_target == 0 || bucket_policy == BucketPolicy::kFixed,
               "SortJobConfig: s_target != 0 requires BucketPolicy::kFixed; set "
               "bucket_policy explicitly instead of relying on an implied fixed policy");
    BS_REQUIRE(d_virtual == 0 || (d_virtual <= d && d % d_virtual == 0),
               "SortJobConfig: d_virtual must divide the number of disks D");
}

} // namespace balsort
