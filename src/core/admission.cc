#include "core/admission.h"

#include <algorithm>
#include <array>
#include <bit>

#include "common/check.h"
#include "common/math_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ef {
namespace {

/** Tolerance on "remaining iterations satisfied" comparisons. */
constexpr double kIterEpsilon = 1e-7;
/** Relative margin of the level-skip certificate. */
constexpr double kSkipMargin = 1e-9;
/** Longest window whose rounding error the margin covers. */
constexpr int kMaxCertifiedWindow = 1 << 20;
/** One histogram bucket per bit width of a usable GPU count. */
constexpr std::size_t kUsableWidths = 33;

}  // namespace

bool
fill_level_cannot_finish(double bound, double remaining_iterations,
                         int window)
{
    return window <= kMaxCertifiedWindow &&
           bound < remaining_iterations * (1.0 - kSkipMargin) -
                       kIterEpsilon;
}

double
fill_window_seconds(Time slot_seconds, const PlanHorizon &horizon,
                    int start_slot)
{
    EF_DCHECK(start_slot < horizon.slots);
    return slot_seconds * (horizon.slots - start_slot - 1) +
           slot_seconds * horizon.last_weight;
}

/*
 * The linear level scan walks the whole window at every level that
 * fails, and on busy clusters most levels fail. A level is skipped
 * without walking when fill_level_cannot_finish certifies that its
 * walk cannot meet the deadline. The bound it is given comes from:
 *
 *  - the window's capacity at the running maximum throughput of the
 *    levels tried so far (O(1)): every slot's allocation is a level
 *    <= the current one, or zero;
 *  - once some slot has fewer GPUs free than the level (clips it),
 *    the real total of its walk, from one pass that
 *    counts the window's slots by usable(available[t]): since
 *    usable(min(L, a)) == min(L, usable(a)) for every level L, a slot
 *    counted at u adds throughput(min(L, u)) per second.
 *
 * A level that no slot clips runs every slot at the level itself, so
 * its walk reads no availability.
 *
 * tests/test_fill_equivalence.cc fuzzes this against the linear scan
 * (tests/fill_reference.cc).
 */
std::optional<SlotPlan>
progressive_fill(const ScalingCurve &curve, double remaining_iterations,
                 const std::vector<GpuCount> &available,
                 const PlanHorizon &horizon, const PlannerConfig &config,
                 int start_slot, std::uint64_t *cost)
{
    const int slots = horizon.slots;
    EF_CHECK(slots >= 0 && start_slot >= 0);
    EF_CHECK(static_cast<int>(available.size()) >= slots);
    EF_CHECK(!curve.empty());

    SlotPlan plan;
    if (remaining_iterations <= kIterEpsilon)
        return plan;  // nothing left to do
    if (start_slot >= slots)
        return std::nullopt;

    const Time dt = config.slot_seconds;
    const double last_capacity = dt * horizon.last_weight;
    const GpuCount min_workers = curve.min_workers();
    const GpuCount max_useful = curve.max_useful();
    const int window = slots - start_slot;
    const double window_seconds =
        fill_window_seconds(dt, horizon, start_slot);
    auto slot_capacity = [&](int t) {
        return t == slots - 1 ? last_capacity : dt;
    };

    // Some window slot has fewer GPUs free than the current level;
    // once set it stays set, since levels only grow.
    bool clipped = false;
    // Slots [start_slot, slots - 1) by bit_width(usable(available[t]))
    // and the weighted last slot's usable count; valid once counted.
    std::array<int, kUsableWidths> by_usable{};
    GpuCount last_usable = 0;
    bool counted = false;
    auto count_window = [&] {
        // Four banks keep consecutive increments of one bucket from
        // serializing on a store-to-load chain.
        std::array<std::array<int, kUsableWidths>, 4> banks{};
        for (int t = start_slot; t < slots - 1; ++t) {
            const GpuCount a = std::min(
                available[static_cast<std::size_t>(t)], max_useful);
            const int w =
                a < min_workers
                    ? 0
                    : std::bit_width(static_cast<std::uint32_t>(a));
            ++banks[static_cast<std::size_t>(t & 3)]
                   [static_cast<std::size_t>(w)];
        }
        for (std::size_t w = 0; w < kUsableWidths; ++w)
            by_usable[w] = banks[0][w] + banks[1][w] + banks[2][w] +
                           banks[3][w];
        last_usable =
            curve.usable(available[static_cast<std::size_t>(slots - 1)]);
        counted = true;
    };
    const auto width_lo = std::bit_width(
        static_cast<std::uint32_t>(min_workers));
    const auto width_hi = std::bit_width(
        static_cast<std::uint32_t>(max_useful));
    auto walk_total = [&](GpuCount level) {
        double total = 0.0;
        for (auto w = width_lo; w <= width_hi; ++w) {
            const int n = by_usable[w];
            if (n != 0)
                total += n * curve.throughput(
                                 std::min(level, GpuCount(1) << (w - 1)));
        }
        return total * dt +
               curve.throughput(std::min(level, last_usable)) *
                   last_capacity;
    };

    double peak = 0.0;  // max throughput over the levels tried so far
    std::uint64_t skipped = 0;
    std::uint64_t walked = 0;
    auto tally = [&] {
        obs::count("core.fill.levels_skipped", skipped);
        obs::count("core.fill.levels_walked", walked);
    };
    for (GpuCount level = min_workers; level != 0 && level <= max_useful;
         level = (level < max_useful ? level * 2 : 0)) {
        peak = std::max(peak, curve.throughput(level));
        bool cannot_finish = fill_level_cannot_finish(
            peak * window_seconds, remaining_iterations, window);
        if (!cannot_finish) {
            for (int t = start_slot; t < slots && !clipped; ++t)
                clipped = available[static_cast<std::size_t>(t)] < level;
            if (clipped) {
                if (!counted)
                    count_window();
                cannot_finish = fill_level_cannot_finish(
                    walk_total(level), remaining_iterations, window);
            }
        }
        if (cannot_finish) {
            if (cost != nullptr)
                *cost += static_cast<std::uint64_t>(window);
            ++skipped;
            continue;
        }
        ++walked;
        plan.gpus.assign(static_cast<std::size_t>(slots), 0);
        double remaining = remaining_iterations;
        bool satisfied = false;
        std::uint64_t visited = 0;
        const bool unclipped = !clipped;

        auto fill_slot = [&](int t) {
            ++visited;
            const GpuCount x =
                unclipped ? level
                          : curve.usable(std::min(
                                level,
                                available[static_cast<std::size_t>(t)]));
            plan.gpus[static_cast<std::size_t>(t)] = x;
            remaining -= curve.throughput(x) * slot_capacity(t);
            return remaining <= kIterEpsilon;
        };

        if (config.direction == FillDirection::kEarliest) {
            for (int t = start_slot; t < slots && !satisfied; ++t)
                satisfied = fill_slot(t);
        } else {
            for (int t = slots - 1; t >= start_slot && !satisfied; --t)
                satisfied = fill_slot(t);
        }
        if (cost != nullptr)
            *cost += visited;
        if (satisfied) {
            tally();
            plan.trim();
            return plan;
        }
    }
    tally();
    return std::nullopt;
}

std::optional<SlotPlan>
progressive_fill(const PlanningJob &job,
                 const std::vector<GpuCount> &available,
                 const PlanHorizon &horizon, const PlannerConfig &config,
                 int start_slot, std::uint64_t *cost)
{
    return progressive_fill(job.curve, job.remaining_iterations,
                            available, horizon, config, start_slot, cost);
}

AdmissionOutcome
run_admission(const PlannerConfig &config, Time now,
              std::vector<PlanningJob> jobs)
{
    EF_CHECK(config.total_gpus > 0 && config.slot_seconds > 0.0);
    AdmissionOutcome outcome;

    std::stable_sort(jobs.begin(), jobs.end(),
                     [](const PlanningJob &a, const PlanningJob &b) {
                         if (a.deadline != b.deadline)
                             return a.deadline < b.deadline;
                         return a.id < b.id;
                     });

    int max_horizon = 0;
    std::vector<PlanHorizon> horizons(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const PlanningJob &job = jobs[i];
        EF_CHECK_MSG(!job.best_effort(),
                     "best-effort job " << job.id
                                        << " passed to admission control");
        horizons[i] = plan_horizon(now, job.deadline, config.slot_seconds,
                                   config.max_slots);
        max_horizon = std::max(max_horizon, horizons[i].slots);
    }

    obs::count("core.admission.runs");
    std::vector<GpuCount> available(static_cast<std::size_t>(max_horizon),
                                    config.total_gpus);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const PlanningJob &job = jobs[i];
        auto plan = progressive_fill(job, available, horizons[i], config,
                                     /*start_slot=*/0, &outcome.cost);
        if (!plan.has_value()) {
            obs::count("core.admission.infeasible");
            if (obs::tracing()) {
                obs::emit({now, obs::EventKind::kAdmissionOutcome,
                           job.id, /*feasible=*/0,
                           static_cast<std::int64_t>(i)});
            }
            return outcome;  // infeasible; plans discarded
        }
        if (obs::tracing()) {
            // The job's minimum satisfactory share, reported as the
            // peak GPU level of the filled plan.
            GpuCount peak = 0;
            for (int t = 0; t < plan->horizon(); ++t)
                peak = std::max(peak, plan->at(t));
            obs::TraceEvent share{now, obs::EventKind::kAdmissionShare,
                                  job.id, peak,
                                  static_cast<std::int64_t>(
                                      plan->horizon())};
            share.x = job.deadline;
            obs::emit(share);
        }
        for (int t = 0; t < plan->horizon(); ++t) {
            GpuCount &a = available[static_cast<std::size_t>(t)];
            a -= plan->at(t);
            EF_CHECK_MSG(a >= 0, "admission over-allocated slot " << t);
        }
        outcome.plans.emplace(job.id, std::move(*plan));
    }
    outcome.feasible = true;
    if (obs::tracing()) {
        obs::emit({now, obs::EventKind::kAdmissionOutcome, kInvalidJob,
                   /*feasible=*/1,
                   static_cast<std::int64_t>(jobs.size())});
    }
    return outcome;
}

bool
linear_feasibility(GpuCount total_gpus, Time now,
                   const std::vector<PlanningJob> &jobs)
{
    std::vector<PlanningJob> sorted = jobs;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const PlanningJob &a, const PlanningJob &b) {
                         return a.deadline < b.deadline;
                     });
    double cumulative_gpu_time = 0.0;
    for (const PlanningJob &job : sorted) {
        double per_gpu = job.curve.throughput(1);
        EF_CHECK_MSG(per_gpu > 0.0,
                     "linear_feasibility needs 1-GPU-feasible jobs");
        cumulative_gpu_time += job.remaining_iterations / per_gpu;
        double budget =
            static_cast<double>(total_gpus) * (job.deadline - now);
        if (cumulative_gpu_time > budget)
            return false;
    }
    return true;
}

}  // namespace ef
