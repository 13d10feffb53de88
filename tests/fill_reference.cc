#include "fill_reference.h"

#include <algorithm>

#include "common/check.h"

namespace ef {
namespace {

constexpr double kIterEpsilon = 1e-7;

}  // namespace

std::optional<SlotPlan>
progressive_fill_reference(const ScalingCurve &curve,
                           double remaining_iterations,
                           const std::vector<GpuCount> &available,
                           const PlanHorizon &horizon,
                           const PlannerConfig &config, int start_slot,
                           std::uint64_t *cost)
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
    const GpuCount max_useful = curve.max_useful();
    auto slot_capacity = [&](int t) {
        return t == slots - 1 ? dt * horizon.last_weight : dt;
    };
    for (GpuCount level = curve.min_workers();
         level != 0 && level <= max_useful;
         level = (level < max_useful ? level * 2 : 0)) {
        plan.gpus.assign(static_cast<std::size_t>(slots), 0);
        double remaining = remaining_iterations;
        bool satisfied = false;

        auto fill_slot = [&](int t) {
            if (cost != nullptr)
                ++*cost;
            GpuCount x = curve.usable(
                std::min(level, available[static_cast<std::size_t>(t)]));
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
        if (satisfied) {
            plan.trim();
            return plan;
        }
    }
    return std::nullopt;
}

}  // namespace ef
