#include "allocator_reference.h"

#include <algorithm>
#include <limits>
#include <optional>

#include "common/check.h"
#include "fill_reference.h"

namespace ef {
namespace {

constexpr double kIterEpsilon = 1e-7;
constexpr double kFinishEpsilon = 1e-9;
/** Priority of starting an idle best-effort job (always first). */
constexpr double kStartPriority = std::numeric_limits<double>::infinity();

/** GPU-seconds to finish a best-effort job at a fixed GPU count. */
double
best_effort_gpu_seconds(const PlanningJob &job, GpuCount gpus)
{
    if (gpus <= 0)
        return std::numeric_limits<double>::infinity();
    double tpt = job.curve.throughput(gpus);
    EF_CHECK(tpt > 0.0);
    return job.remaining_iterations / tpt * static_cast<double>(gpus);
}

/** A considered upgrade for one job. */
struct Candidate
{
    bool valid = false;
    double priority = 0.0;   ///< GPU-seconds saved per GPU added
    GpuCount delta = 0;      ///< extra GPUs consumed in slot 0
    SlotPlan new_plan;       ///< SLO only
    GpuCount new_gpus = 0;   ///< best-effort only
};

}  // namespace

AllocationOutcome
run_allocation_reference(const PlannerConfig &config, Time now,
                         const std::vector<PlanningJob> &slo_jobs,
                         const std::map<JobId, SlotPlan> &min_share_plans,
                         const std::vector<PlanningJob> &best_effort_jobs)
{
    EF_CHECK(config.total_gpus > 0 && config.slot_seconds > 0.0);
    const Time dt = config.slot_seconds;

    // Planning horizon: the farthest SLO deadline.
    int horizon = 1;
    std::vector<PlanHorizon> slo_horizon(slo_jobs.size());
    for (std::size_t i = 0; i < slo_jobs.size(); ++i) {
        EF_CHECK_MSG(!slo_jobs[i].best_effort(),
                     "job " << slo_jobs[i].id
                            << " without deadline passed as SLO");
        slo_horizon[i] = plan_horizon(now, slo_jobs[i].deadline,
                                      dt, config.max_slots);
        horizon = std::max(horizon, slo_horizon[i].slots);
    }

    // Start from the minimum satisfactory shares.
    std::vector<SlotPlan> plan(slo_jobs.size());
    std::vector<GpuCount> available(static_cast<std::size_t>(horizon),
                                    config.total_gpus);
    for (std::size_t i = 0; i < slo_jobs.size(); ++i) {
        auto it = min_share_plans.find(slo_jobs[i].id);
        EF_CHECK_MSG(it != min_share_plans.end(),
                     "job " << slo_jobs[i].id
                            << " has no minimum satisfactory share");
        plan[i] = it->second;
        EF_CHECK(plan[i].horizon() <= horizon);
        for (int t = 0; t < plan[i].horizon(); ++t) {
            GpuCount &a = available[static_cast<std::size_t>(t)];
            a -= plan[i].at(t);
            EF_CHECK_MSG(a >= 0, "minimum shares exceed the cluster");
        }
    }

    std::vector<GpuCount> be_gpus(best_effort_jobs.size(), 0);
    for (const PlanningJob &job : best_effort_jobs) {
        EF_CHECK_MSG(job.best_effort(),
                     "job " << job.id << " with deadline passed as "
                            << "best-effort");
    }

    // Candidate construction.
    auto slo_candidate = [&](std::size_t i) {
        Candidate cand;
        const PlanningJob &job = slo_jobs[i];
        if (job.remaining_iterations <= kIterEpsilon)
            return cand;
        GpuCount g0 = plan[i].at(0);
        GpuCount g0n = job.curve.next_step(g0);
        if (g0n == 0)
            return cand;
        GpuCount delta = g0n - g0;
        if (delta > available[0])
            return cand;
        const PlanHorizon &d = slo_horizon[i];
        if (d.slots < 1)
            return cand;

        // Re-fill the tail with the bumped slot-0 allocation, against
        // availability with this job's own reservation returned.
        std::vector<GpuCount> avail_self(available.begin(),
                                         available.end());
        for (int t = 1; t < plan[i].horizon(); ++t)
            avail_self[static_cast<std::size_t>(t)] += plan[i].at(t);

        double slot0_capacity = d.slots == 1 ? dt * d.last_weight : dt;
        double rem_after0 = job.remaining_iterations -
                            job.curve.throughput(g0n) * slot0_capacity;
        SlotPlan candidate_plan;
        if (rem_after0 <= kIterEpsilon) {
            candidate_plan.gpus = {g0n};
        } else {
            // The refilled tail always packs earliest: boosting only
            // makes sense if it pulls the finish time forward, which a
            // latest-packed tail by construction never would.
            PlannerConfig refill_config = config;
            refill_config.direction = FillDirection::kEarliest;
            auto fill = progressive_fill_reference(
                job.curve, rem_after0, avail_self, d, refill_config, 1);
            if (!fill.has_value())
                return cand;  // bump cannot keep the deadline
            candidate_plan = std::move(*fill);
            if (candidate_plan.horizon() < 1)
                candidate_plan.gpus.resize(1, 0);
            candidate_plan.gpus[0] = g0n;
        }

        Time finish_cur = plan_finish_seconds(
            job.curve, plan[i], job.remaining_iterations, dt);
        Time finish_new = plan_finish_seconds(
            job.curve, candidate_plan, job.remaining_iterations, dt);
        if (!(finish_new < finish_cur - kFinishEpsilon))
            return cand;  // Algorithm 2 line 10: must speed the job up

        cand.valid = true;
        cand.delta = delta;
        cand.priority = (plan[i].gpu_seconds(dt) -
                         candidate_plan.gpu_seconds(dt)) /
                        static_cast<double>(delta);
        cand.new_plan = std::move(candidate_plan);
        return cand;
    };

    auto be_candidate = [&](std::size_t j) {
        Candidate cand;
        const PlanningJob &job = best_effort_jobs[j];
        if (job.remaining_iterations <= kIterEpsilon)
            return cand;
        GpuCount g = be_gpus[j];
        GpuCount gn = job.curve.next_step(g);
        if (gn == 0)
            return cand;
        GpuCount delta = gn - g;
        if (delta > available[0])
            return cand;
        cand.valid = true;
        cand.delta = delta;
        cand.new_gpus = gn;
        if (g == 0) {
            cand.priority = kStartPriority;
        } else {
            cand.priority = (best_effort_gpu_seconds(job, g) -
                             best_effort_gpu_seconds(job, gn)) /
                            static_cast<double>(delta);
        }
        return cand;
    };

    // Greedy loop: hand out slot-0 GPUs to the best marginal return.
    while (available[0] > 0) {
        Candidate best;
        bool best_is_slo = false;
        std::size_t best_index = 0;
        for (std::size_t i = 0; i < slo_jobs.size(); ++i) {
            Candidate cand = slo_candidate(i);
            if (cand.valid &&
                (!best.valid || cand.priority > best.priority)) {
                best = std::move(cand);
                best_is_slo = true;
                best_index = i;
            }
        }
        for (std::size_t j = 0; j < best_effort_jobs.size(); ++j) {
            Candidate cand = be_candidate(j);
            if (cand.valid &&
                (!best.valid || cand.priority > best.priority)) {
                best = std::move(cand);
                best_is_slo = false;
                best_index = j;
            }
        }
        if (!best.valid)
            break;  // constraint (7): no job can use more GPUs

        if (best_is_slo) {
            // Return the old reservation, charge the new plan.
            for (int t = 0; t < plan[best_index].horizon(); ++t) {
                available[static_cast<std::size_t>(t)] +=
                    plan[best_index].at(t);
            }
            for (int t = 0; t < best.new_plan.horizon(); ++t) {
                GpuCount &a = available[static_cast<std::size_t>(t)];
                a -= best.new_plan.at(t);
                EF_CHECK(a >= 0);
            }
            plan[best_index] = std::move(best.new_plan);
        } else {
            available[0] -= best.delta;
            be_gpus[best_index] = best.new_gpus;
        }
    }

    AllocationOutcome outcome;
    for (std::size_t i = 0; i < slo_jobs.size(); ++i) {
        outcome.gpus_now[slo_jobs[i].id] = plan[i].at(0);
        outcome.plans[slo_jobs[i].id] = std::move(plan[i]);
    }
    for (std::size_t j = 0; j < best_effort_jobs.size(); ++j)
        outcome.gpus_now[best_effort_jobs[j].id] = be_gpus[j];
    outcome.unallocated = available[0];
    return outcome;
}

}  // namespace ef
