/**
 * @file
 * Equivalence fuzz: the incremental (lazy-heap) run_allocation must
 * produce byte-identical outcomes to run_allocation_reference, the
 * direct transcription of Algorithm 2, on randomized instances.
 *
 * Instances are generated from fixed seeds so failures reproduce.
 * Coverage spans best-effort-only, SLO-only, and mixed queues, both
 * fill directions for the minimum-share plans, and cluster sizes from
 * starved to abundant. Min-share plans come either from run_admission
 * over the same state, or from refresh_min_shares exactly as
 * elastic_allocate wires them (soft deadlines, relaxed deadlines, and
 * parked jobs moved to the best-effort queue). A megacluster shape
 * checks, through the core.allocation.* counters, that both exact
 * certificates of the incremental allocator fire under the fuzz, and
 * high-level shapes clip levels near max_useful inside the windows a
 * winner changes, where a loosened whole-scan skip would go wrong.
 */
#include <gtest/gtest.h>

#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "allocator_reference.h"
#include "core/allocator.h"
#include "obs/metrics.h"
#include "sched/planning_util.h"

namespace ef {
namespace {

ScalingCurve
random_curve(std::mt19937 &rng)
{
    std::uniform_int_distribution<int> entries(1, 8);
    std::uniform_real_distribution<double> base(0.5, 4.0);
    std::uniform_real_distribution<double> gain(1.0, 2.0);
    int count = entries(rng);
    std::vector<double> table;
    double tpt = base(rng);
    for (int k = 0; k < count; ++k) {
        table.push_back(tpt);
        tpt *= gain(rng);
    }
    return ScalingCurve::from_pow2_table(std::move(table));
}

/** @p soft_one_in > 0 makes one SLO job in that many soft. */
PlanningJob
random_job(std::mt19937 &rng, JobId id, Time now, bool best_effort,
           int soft_one_in = 0)
{
    PlanningJob job;
    job.id = id;
    job.curve = random_curve(rng);
    std::uniform_real_distribution<double> iters(10.0, 5000.0);
    job.remaining_iterations = iters(rng);
    if (!best_effort) {
        // Deadline between "tight" and "slack" relative to the job's
        // single-GPU runtime; admission filters the infeasible ones.
        double solo = job.remaining_iterations /
                      job.curve.throughput(job.curve.min_workers());
        std::uniform_real_distribution<double> factor(0.3, 4.0);
        job.deadline = now + solo * factor(rng);
        if (soft_one_in > 0) {
            std::uniform_int_distribution<int> soft(0, soft_one_in - 1);
            job.soft = soft(rng) == 0;
        }
    }
    return job;
}

struct Shape
{
    int slo_jobs = 0;
    int best_effort_jobs = 0;
    GpuCount total_gpus = 0;
    FillDirection direction = FillDirection::kEarliest;
};

/** Run both implementations on one instance and compare outcomes. */
void
compare(const PlannerConfig &config, Time now,
        const std::vector<PlanningJob> &slo_jobs,
        const std::map<JobId, SlotPlan> &min_shares,
        const std::vector<PlanningJob> &best_effort_jobs,
        const std::string &label)
{
    AllocationOutcome fast = run_allocation(config, now, slo_jobs,
                                            min_shares,
                                            best_effort_jobs);
    AllocationOutcome slow = run_allocation_reference(
        config, now, slo_jobs, min_shares, best_effort_jobs);
    EXPECT_EQ(fast.gpus_now, slow.gpus_now) << label;
    EXPECT_EQ(fast.unallocated, slow.unallocated) << label;
    EXPECT_EQ(fast.plans.size(), slow.plans.size()) << label;
    for (const auto &[id, plan] : slow.plans) {
        auto it = fast.plans.find(id);
        EXPECT_TRUE(it != fast.plans.end())
            << label << " job " << id;
        if (it != fast.plans.end()) {
            EXPECT_EQ(it->second.gpus, plan.gpus)
                << label << " job " << id;
        }
    }
}

/**
 * Generate one instance from @p seed, run both implementations, and
 * compare. Returns false when admission rejected the SLO set (the
 * instance is skipped, not counted).
 */
bool
check_one(std::uint32_t seed, const Shape &shape)
{
    std::mt19937 rng(seed);
    const Time now = 137.5;  // deliberately not slot-aligned

    PlannerConfig config;
    config.total_gpus = shape.total_gpus;
    config.slot_seconds = 60.0;
    config.direction = shape.direction;

    std::vector<PlanningJob> slo_jobs;
    std::vector<PlanningJob> best_effort_jobs;
    JobId next_id = 1;
    for (int i = 0; i < shape.slo_jobs; ++i)
        slo_jobs.push_back(random_job(rng, next_id++, now, false));
    for (int j = 0; j < shape.best_effort_jobs; ++j)
        best_effort_jobs.push_back(random_job(rng, next_id++, now, true));

    std::map<JobId, SlotPlan> min_shares;
    if (!slo_jobs.empty()) {
        AdmissionOutcome admitted =
            run_admission(config, now, slo_jobs);
        if (!admitted.feasible)
            return false;
        min_shares = std::move(admitted.plans);
    }

    std::ostringstream label;
    label << "seed=" << seed << " slo=" << shape.slo_jobs
          << " be=" << shape.best_effort_jobs
          << " gpus=" << shape.total_gpus << " dir="
          << (shape.direction == FillDirection::kEarliest ? "earliest"
                                                          : "latest");
    compare(config, now, slo_jobs, min_shares, best_effort_jobs,
            label.str());
    return true;
}

/**
 * Generate one instance wired like elastic_allocate: refresh_min_shares
 * supplies the minimum shares (one SLO job in four soft, slipped
 * deadlines relaxed, unmeetable ones parked), and parked jobs join the
 * best-effort queue. Never skipped — the refresh relaxes or parks
 * whatever admission would have rejected.
 */
void
check_refreshed(std::uint32_t seed, const Shape &shape,
                bool park_infeasible_hard)
{
    std::mt19937 rng(seed);
    const Time now = 137.5;

    PlannerConfig config;
    config.total_gpus = shape.total_gpus;
    config.slot_seconds = 60.0;
    config.direction = shape.direction;

    std::vector<PlanningJob> slo_jobs;
    std::vector<PlanningJob> best_effort_jobs;
    JobId next_id = 1;
    for (int i = 0; i < shape.slo_jobs; ++i) {
        slo_jobs.push_back(random_job(rng, next_id++, now, false,
                                      /*soft_one_in=*/4));
    }
    for (int j = 0; j < shape.best_effort_jobs; ++j)
        best_effort_jobs.push_back(random_job(rng, next_id++, now, true));

    MinShareRefresh refresh =
        refresh_min_shares(config, now, std::move(slo_jobs),
                           /*replan_failures=*/nullptr,
                           park_infeasible_hard);
    for (PlanningJob &job : refresh.parked)
        best_effort_jobs.push_back(std::move(job));

    std::ostringstream label;
    label << "refreshed seed=" << seed << " slo=" << shape.slo_jobs
          << " be=" << shape.best_effort_jobs
          << " gpus=" << shape.total_gpus
          << " park_hard=" << park_infeasible_hard;
    compare(config, now, refresh.slo, refresh.min_shares,
            best_effort_jobs, label.str());
}

/**
 * A job that needs a mid-to-high GPU level: a near-linear curve up to
 * 64 GPUs (so max_useful is 64) and a deadline that one GPU would miss
 * by 4x to 16x.
 */
PlanningJob
high_level_job(std::mt19937 &rng, JobId id, Time now)
{
    std::uniform_real_distribution<double> base(0.5, 2.0);
    std::uniform_real_distribution<double> gain(1.7, 2.0);
    std::vector<double> table;
    double tpt = base(rng);
    for (int k = 0; k < 7; ++k) {
        table.push_back(tpt);
        tpt *= gain(rng);
    }
    PlanningJob job;
    job.id = id;
    job.curve = ScalingCurve::from_pow2_table(std::move(table));
    std::uniform_real_distribution<double> iters(2000.0, 20000.0);
    job.remaining_iterations = iters(rng);
    std::uniform_real_distribution<double> squeeze(4.0, 16.0);
    job.deadline = now + job.remaining_iterations /
                             job.curve.throughput(1) / squeeze(rng);
    return job;
}

/**
 * Minimum shares from refresh_min_shares over high-level jobs on a
 * cluster a few times their max_useful: winners leave tail slots with
 * fewer than max_useful but more than a quarter of it free, which
 * clips the high levels of the other jobs' re-fills.
 */
void
check_high_levels(std::uint32_t seed, const Shape &shape)
{
    std::mt19937 rng(seed);
    const Time now = 137.5;

    PlannerConfig config;
    config.total_gpus = shape.total_gpus;
    config.slot_seconds = 60.0;
    config.direction = shape.direction;

    std::vector<PlanningJob> slo_jobs;
    std::vector<PlanningJob> best_effort_jobs;
    JobId next_id = 1;
    for (int i = 0; i < shape.slo_jobs; ++i)
        slo_jobs.push_back(high_level_job(rng, next_id++, now));
    for (int j = 0; j < shape.best_effort_jobs; ++j)
        best_effort_jobs.push_back(random_job(rng, next_id++, now, true));

    MinShareRefresh refresh =
        refresh_min_shares(config, now, std::move(slo_jobs),
                           /*replan_failures=*/nullptr,
                           /*park_infeasible_hard=*/true);
    for (PlanningJob &job : refresh.parked)
        best_effort_jobs.push_back(std::move(job));

    std::ostringstream label;
    label << "high-level seed=" << seed << " slo=" << shape.slo_jobs
          << " be=" << shape.best_effort_jobs
          << " gpus=" << shape.total_gpus;
    compare(config, now, refresh.slo, refresh.min_shares,
            best_effort_jobs, label.str());
}

int
run_shapes(const std::vector<Shape> &shapes, std::uint32_t seed_base,
           int seeds_per_shape)
{
    int compared = 0;
    for (std::size_t s = 0; s < shapes.size(); ++s) {
        for (int k = 0; k < seeds_per_shape; ++k) {
            std::uint32_t seed =
                seed_base + static_cast<std::uint32_t>(s) * 1000 +
                static_cast<std::uint32_t>(k);
            if (check_one(seed, shapes[s]))
                ++compared;
        }
    }
    return compared;
}

TEST(AllocatorEquivalence, BestEffortOnly)
{
    std::vector<Shape> shapes = {
        {0, 1, 4, FillDirection::kEarliest},
        {0, 5, 16, FillDirection::kEarliest},
        {0, 20, 32, FillDirection::kEarliest},
        {0, 40, 8, FillDirection::kEarliest},  // starved
    };
    // No admission step, so every seed yields a comparison.
    EXPECT_EQ(run_shapes(shapes, 10'000, 20), 80);
}

TEST(AllocatorEquivalence, SloOnly)
{
    std::vector<Shape> shapes = {
        {1, 0, 8, FillDirection::kEarliest},
        {6, 0, 32, FillDirection::kEarliest},
        {6, 0, 32, FillDirection::kLatest},
        {15, 0, 64, FillDirection::kLatest},
        {10, 0, 16, FillDirection::kEarliest},  // contended
        // Contended tails: latest-packed minimum shares crowd the late
        // slots, so a winner's freed tail changes other candidates and
        // the affected-job rescan decides the outcome.
        {10, 0, 16, FillDirection::kLatest},
        {8, 0, 8, FillDirection::kLatest},
    };
    int compared = run_shapes(shapes, 20'000, 25);
    EXPECT_GE(compared, 60) << "admission rejected too many instances "
                            << "for the fuzz to be meaningful";
}

TEST(AllocatorEquivalence, MixedQueues)
{
    std::vector<Shape> shapes = {
        {3, 3, 16, FillDirection::kEarliest},
        {8, 8, 64, FillDirection::kLatest},
        {12, 4, 32, FillDirection::kEarliest},
        {4, 12, 24, FillDirection::kLatest},
        {10, 10, 128, FillDirection::kEarliest},  // abundant
        // Deep greedy runs: enough headroom for long upgrade chains,
        // exercising every skip certificate in the incremental path.
        {60, 20, 512, FillDirection::kLatest},
        {10, 6, 16, FillDirection::kEarliest},
        {10, 6, 256, FillDirection::kEarliest},
    };
    int compared = run_shapes(shapes, 30'000, 25);
    EXPECT_GE(compared, 60) << "admission rejected too many instances "
                            << "for the fuzz to be meaningful";
}

TEST(AllocatorEquivalence, RefreshedSoftDeadlinesOnAbundantClusters)
{
    for (std::uint32_t seed = 1; seed <= 20; ++seed)
        check_refreshed(seed, {12, 4, 512}, false);
}

TEST(AllocatorEquivalence, RefreshedSaturatedClusters)
{
    // Starved capacity forces clipped fills, deadline relaxation, and
    // parking, so most jobs reach Algorithm 2 with relaxed deadlines
    // or through the best-effort queue.
    for (std::uint32_t seed = 1; seed <= 20; ++seed) {
        check_refreshed(seed, {16, 4, 8}, false);
        check_refreshed(seed, {16, 4, 8}, true);
    }
}

TEST(AllocatorEquivalence, RefreshedMidsizedClusters)
{
    for (std::uint32_t seed = 100; seed < 130; ++seed) {
        check_refreshed(seed, {24, 6, 64}, false);
        check_refreshed(seed, {24, 6, 64, FillDirection::kLatest}, true);
    }
}

TEST(AllocatorEquivalence, MegaclusterFiresBothCertificates)
{
    // On a cluster far larger than any job's useful size, almost every
    // tail window keeps max_useful GPUs free: the comparison must run
    // through the unclipped re-fill and the whole-scan skip.
    obs::MetricsRegistry registry;
    obs::MetricsScope scope(&registry);
    for (std::uint32_t seed = 500; seed < 510; ++seed) {
        check_refreshed(seed, {40, 10, 4096}, false);
        check_refreshed(seed, {40, 10, 4096, FillDirection::kLatest},
                        false);
    }
    EXPECT_GT(registry.counter("core.allocation.unclipped_refills").value(),
              0u);
    EXPECT_GT(registry.counter("core.allocation.scan_skips").value(), 0u);
}

TEST(AllocatorEquivalence, HighLevelsClippedInsideChangedWindows)
{
    // Closes a gap of the random shapes, which rarely need levels near
    // max_useful: on these latest-packed shapes a whole-scan skip that
    // fired whenever every changed slot kept max_useful / 4 GPUs free
    // (instead of max_useful) leaves clipped candidates stale; it
    // fails about a quarter of these instances.
    const std::vector<Shape> shapes = {
        {8, 0, 128, FillDirection::kLatest},
        {12, 0, 192, FillDirection::kLatest},
        {16, 0, 256, FillDirection::kLatest},
        {12, 2, 192, FillDirection::kEarliest},
    };
    for (const Shape &shape : shapes) {
        for (std::uint32_t seed = 70'000; seed < 70'040; ++seed)
            check_high_levels(seed, shape);
    }
}

}  // namespace
}  // namespace ef
