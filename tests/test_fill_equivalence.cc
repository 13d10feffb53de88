/**
 * @file
 * Equivalence fuzz: progressive_fill, which skips GPU levels that
 * provably cannot meet the deadline, must return the same plan and
 * charge the same cost units as progressive_fill_reference, the
 * linear level scan, on randomized instances.
 *
 * Instances come from fixed seeds so failures reproduce. They cover
 * concave, non-monotone (enforce_concave=false) and fixed-size
 * (restrict_to_fixed_size) curves; both fill directions; start slots
 * past 0 and fractional last slots; availability from unclipped to
 * saturated; and boundary instances whose remaining iterations equal
 * a level's walked total, offset by the fill tolerance and by one ulp
 * either way. The core.fill.* counters show that both skipping and
 * walking happen on clipped and on unclipped windows.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/admission.h"
#include "fill_reference.h"
#include "obs/metrics.h"

namespace ef {
namespace {

enum class CurveKind { kConcave, kNonMonotone, kFixedSize };

ScalingCurve
random_curve(std::mt19937 &rng, CurveKind kind)
{
    std::uniform_int_distribution<int> entries(1, 8);
    std::uniform_int_distribution<int> leading_zeros(0, 2);
    std::uniform_real_distribution<double> base(0.5, 4.0);
    // Gains below 1 make dips when the envelope is not enforced.
    std::uniform_real_distribution<double> gain(
        kind == CurveKind::kNonMonotone ? 0.4 : 1.0, 2.0);
    std::vector<double> table(
        static_cast<std::size_t>(leading_zeros(rng)), 0.0);
    const int count = entries(rng);
    double tpt = base(rng);
    for (int k = 0; k < count; ++k) {
        table.push_back(tpt);
        tpt *= gain(rng);
    }
    if (kind != CurveKind::kFixedSize) {
        return ScalingCurve::from_pow2_table(
            std::move(table), kind == CurveKind::kConcave);
    }
    ScalingCurve curve = ScalingCurve::from_pow2_table(std::move(table));
    std::uniform_int_distribution<int> size_exp(0, 3);
    GpuCount size = curve.min_workers() << size_exp(rng);
    return restrict_to_fixed_size(curve, std::min(size, curve.max_useful()));
}

/** How much of max_useful the window's slots keep free. */
enum class Avail { kUnclipped, kMixed, kSaturated };

std::vector<GpuCount>
random_available(std::mt19937 &rng, const ScalingCurve &curve, int slots,
                 Avail avail)
{
    const GpuCount mu = curve.max_useful();
    std::uniform_int_distribution<GpuCount> above(mu, 4 * mu);
    std::uniform_int_distribution<GpuCount> any(0, 2 * mu);
    std::uniform_int_distribution<GpuCount> below(0, std::max(1, mu / 2));
    std::vector<GpuCount> available(static_cast<std::size_t>(slots));
    for (GpuCount &a : available) {
        switch (avail) {
        case Avail::kUnclipped: a = above(rng); break;
        case Avail::kMixed: a = any(rng); break;
        case Avail::kSaturated: a = below(rng); break;
        }
    }
    return available;
}

struct Instance
{
    ScalingCurve curve;
    double remaining = 0.0;
    std::vector<GpuCount> available;
    PlanHorizon horizon;
    PlannerConfig config;
    int start_slot = 0;
};

/**
 * Run both fills on @p in and compare verdict, plan, and cost units
 * (both cost accumulators start from the same non-zero value, so the
 * fill must add, not assign).
 */
void
compare(const Instance &in, const std::string &label)
{
    std::uint64_t fast_cost = 11;
    std::uint64_t slow_cost = 11;
    auto fast = progressive_fill(in.curve, in.remaining, in.available,
                                 in.horizon, in.config, in.start_slot,
                                 &fast_cost);
    auto slow = progressive_fill_reference(in.curve, in.remaining,
                                           in.available, in.horizon,
                                           in.config, in.start_slot,
                                           &slow_cost);
    ASSERT_EQ(fast.has_value(), slow.has_value()) << label;
    if (fast.has_value()) {
        EXPECT_EQ(fast->gpus, slow->gpus) << label;
    }
    EXPECT_EQ(fast_cost, slow_cost) << label;
}

Instance
random_instance(std::mt19937 &rng, CurveKind kind, Avail avail,
                FillDirection direction)
{
    Instance in;
    in.curve = random_curve(rng, kind);
    std::uniform_int_distribution<int> slot_count(1, 160);
    in.horizon.slots = slot_count(rng);
    std::uniform_int_distribution<int> whole_last(0, 1);
    std::uniform_real_distribution<double> weight(0.05, 1.0);
    in.horizon.last_weight = whole_last(rng) == 0 ? 1.0 : weight(rng);
    in.available = random_available(rng, in.curve, in.horizon.slots, avail);
    in.config.total_gpus = 4 * in.curve.max_useful();
    in.config.slot_seconds = 60.0;
    in.config.direction = direction;
    std::uniform_int_distribution<int> start(0, in.horizon.slots);
    std::uniform_int_distribution<int> nonzero_start(0, 2);
    in.start_slot = nonzero_start(rng) == 0 ? start(rng) : 0;
    if (in.start_slot >= in.horizon.slots)
        in.start_slot = 0;
    // Work up to 1.3x what the top level finishes on an empty window:
    // some fills succeed at the first level, some climb, some fail.
    const int window = in.horizon.slots - in.start_slot;
    double ceiling = in.curve.throughput(in.curve.max_useful()) *
                     in.config.slot_seconds * window;
    std::uniform_real_distribution<double> share(0.0, 1.3);
    in.remaining = ceiling * share(rng);
    return in;
}

/**
 * The total a level's walk subtracts, summed in walk order with the
 * walk's own per-slot terms.
 */
double
walked_total(const Instance &in, GpuCount level)
{
    const int slots = in.horizon.slots;
    const Time dt = in.config.slot_seconds;
    double total = 0.0;
    auto add = [&](int t) {
        GpuCount x = in.curve.usable(
            std::min(level, in.available[static_cast<std::size_t>(t)]));
        total += in.curve.throughput(x) *
                 (t == slots - 1 ? dt * in.horizon.last_weight : dt);
    };
    if (in.config.direction == FillDirection::kEarliest) {
        for (int t = in.start_slot; t < slots; ++t)
            add(t);
    } else {
        for (int t = slots - 1; t >= in.start_slot; --t)
            add(t);
    }
    return total;
}

std::string
describe(std::uint32_t seed, CurveKind kind, Avail avail,
         FillDirection direction)
{
    std::ostringstream label;
    label << "seed=" << seed << " curve=" << static_cast<int>(kind)
          << " avail=" << static_cast<int>(avail) << " dir="
          << (direction == FillDirection::kEarliest ? "earliest"
                                                    : "latest");
    return label.str();
}

const CurveKind kCurves[] = {CurveKind::kConcave, CurveKind::kNonMonotone,
                             CurveKind::kFixedSize};
const FillDirection kDirections[] = {FillDirection::kEarliest,
                                     FillDirection::kLatest};

/** Fuzz every curve kind and direction on one availability shape. */
void
fuzz(Avail avail, std::uint32_t seed_base, int seeds)
{
    for (CurveKind kind : kCurves) {
        for (FillDirection direction : kDirections) {
            for (int k = 0; k < seeds; ++k) {
                const std::uint32_t seed =
                    seed_base + static_cast<std::uint32_t>(k);
                std::mt19937 rng(seed);
                Instance in = random_instance(rng, kind, avail, direction);
                compare(in, describe(seed, kind, avail, direction));
            }
        }
    }
}

TEST(FillEquivalence, UnclippedWindows)
{
    obs::MetricsRegistry registry;
    obs::MetricsScope scope(&registry);
    fuzz(Avail::kUnclipped, 1'000, 200);
    EXPECT_GT(registry.counter("core.fill.levels_skipped").value(), 0u);
    EXPECT_GT(registry.counter("core.fill.levels_walked").value(), 0u);
}

TEST(FillEquivalence, MixedWindows)
{
    obs::MetricsRegistry registry;
    obs::MetricsScope scope(&registry);
    fuzz(Avail::kMixed, 2'000, 200);
    EXPECT_GT(registry.counter("core.fill.levels_skipped").value(), 0u);
    EXPECT_GT(registry.counter("core.fill.levels_walked").value(), 0u);
}

TEST(FillEquivalence, SaturatedWindows)
{
    obs::MetricsRegistry registry;
    obs::MetricsScope scope(&registry);
    fuzz(Avail::kSaturated, 3'000, 200);
    EXPECT_GT(registry.counter("core.fill.levels_skipped").value(), 0u);
    EXPECT_GT(registry.counter("core.fill.levels_walked").value(), 0u);
}

/**
 * Remaining iterations on the edge of a level's verdict: exactly its
 * walked total, that total plus the fill tolerance, a 1e-9 relative
 * step either way, and one ulp around each.
 */
TEST(FillEquivalence, BoundaryInstances)
{
    const Avail kAvails[] = {Avail::kUnclipped, Avail::kMixed,
                             Avail::kSaturated};
    const double kInf = std::numeric_limits<double>::infinity();
    for (Avail avail : kAvails) {
        for (CurveKind kind : kCurves) {
            for (FillDirection direction : kDirections) {
                for (std::uint32_t seed = 4'000; seed < 4'060; ++seed) {
                    std::mt19937 rng(seed);
                    Instance in =
                        random_instance(rng, kind, avail, direction);
                    const std::string label =
                        describe(seed, kind, avail, direction);
                    for (GpuCount level = in.curve.min_workers();
                         level != 0 && level <= in.curve.max_useful();
                         level = in.curve.next_step(level)) {
                        const double total = walked_total(in, level);
                        for (double edge :
                             {total, total + 1e-7, total * (1.0 + 1e-9),
                              total * (1.0 - 1e-9)}) {
                            for (double r : {std::nextafter(edge, -kInf),
                                             edge,
                                             std::nextafter(edge, kInf)}) {
                                in.remaining = r;
                                compare(in, label + " level=" +
                                                std::to_string(level));
                            }
                        }
                    }
                }
            }
        }
    }
}

TEST(FillEquivalence, EmptyAndDoneFillsChargeNothing)
{
    Instance in;
    in.curve = ScalingCurve::from_pow2_table({1.0, 1.5, 2.0});
    in.horizon = PlanHorizon{4, 1.0};
    in.available.assign(4, 4);
    in.config.total_gpus = 4;
    in.config.slot_seconds = 1.0;
    in.remaining = 0.0;
    compare(in, "nothing left");
    in.remaining = 1.0;
    in.start_slot = 4;
    compare(in, "start past the window");
    in.start_slot = 0;
    in.horizon.slots = 0;
    compare(in, "empty window");
}

}  // namespace
}  // namespace ef
