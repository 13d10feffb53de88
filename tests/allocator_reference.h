/**
 * @file
 * Direct transcription of Algorithm 2 (paper §4.2): rebuilds every
 * candidate on every greedy iteration. Test-only oracle for the
 * equivalence fuzz (test_allocator_equivalence.cc) — run_allocation
 * must produce an identical outcome on any input. It is
 * O(iterations x jobs x horizon), where the incremental allocator
 * only recomputes candidates an applied winner can affect. Its tail
 * re-fills use progressive_fill_reference, the linear level scan.
 */
#ifndef EF_TESTS_ALLOCATOR_REFERENCE_H_
#define EF_TESTS_ALLOCATOR_REFERENCE_H_

#include <map>
#include <vector>

#include "core/allocator.h"

namespace ef {

/** Algorithm 2, one full candidate scan per handed-out step. */
AllocationOutcome
run_allocation_reference(const PlannerConfig &config, Time now,
                         const std::vector<PlanningJob> &slo_jobs,
                         const std::map<JobId, SlotPlan> &min_share_plans,
                         const std::vector<PlanningJob> &best_effort_jobs);

}  // namespace ef

#endif  // EF_TESTS_ALLOCATOR_REFERENCE_H_
