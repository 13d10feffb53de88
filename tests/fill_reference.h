/**
 * @file
 * Linear level scan of progressive filling (paper §4.1, Algorithm 1):
 * walks the job's whole window at every GPU level until one meets the
 * deadline. Test-only oracle for test_fill_equivalence.cc —
 * progressive_fill skips levels that provably cannot finish
 * (DESIGN.md §10) and must return the same plan and charge the same
 * cost units on any input. run_allocation_reference uses it too, so
 * the allocator oracle shares no fill code with src/.
 */
#ifndef EF_TESTS_FILL_REFERENCE_H_
#define EF_TESTS_FILL_REFERENCE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "core/admission.h"

namespace ef {

/** progressive_fill's contract, one full walk per level tried. */
std::optional<SlotPlan>
progressive_fill_reference(const ScalingCurve &curve,
                           double remaining_iterations,
                           const std::vector<GpuCount> &available,
                           const PlanHorizon &horizon,
                           const PlannerConfig &config, int start_slot = 0,
                           std::uint64_t *cost = nullptr);

}  // namespace ef

#endif  // EF_TESTS_FILL_REFERENCE_H_
