/**
 * @file
 * Self-test of the benchmark's instrumentation:
 *
 *  1. CountingView forwards every ClusterView accessor and counts it.
 *  2. TimingScheduler forwards every Scheduler virtual, binds the
 *     counting proxy under the inner policy, and re-binds it when the
 *     caller binds a different view.
 *  3. For each simulator workload, the benchmark's own reps, untraced
 *     and traced, end with the state_hash of the bare warm-up run.
 *
 * Prints one line per check and exits nonzero if any failed.
 */
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace ef {
namespace perfbench {
namespace {

int g_failures = 0;

void
expect(bool ok, const std::string &what)
{
    std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
    g_failures += ok ? 0 : 1;
}

/** A view whose every accessor returns a value tied to its input. */
class FakeView final : public ClusterView
{
  public:
    explicit FakeView(GpuCount gpus) : gpus_(gpus)
    {
        curve_ = ScalingCurve::from_pow2_table({1.0, 1.8, 3.2});
        spec_.id = 11;
    }

    GpuCount total_gpus() const override { return gpus_; }
    Time now() const override { return 4.5; }
    std::vector<JobId> active_jobs() const override { return {7, 9, 13}; }
    const JobSpec &spec(JobId) const override { return spec_; }
    const ScalingCurve &curve(JobId) const override { return curve_; }
    ScalingCurve curve_for(const JobSpec &) const override
    {
        return curve_;
    }
    double remaining_iterations(JobId job) const override
    {
        return 10.0 * static_cast<double>(job);
    }
    GpuCount current_gpus(JobId job) const override
    {
        return static_cast<GpuCount>(job % 5);
    }
    double attained_gpu_seconds(JobId job) const override
    {
        return 2.5 * static_cast<double>(job);
    }
    std::uint64_t fault_epoch() const override { return 77; }

  private:
    GpuCount gpus_;
    JobSpec spec_;
    ScalingCurve curve_;
};

/** A policy that records every call and returns distinctive values. */
class ProbePolicy final : public Scheduler
{
  public:
    std::string name() const override { return "probe"; }
    bool admit(const JobSpec &job) override
    {
        ++calls;
        admit_saw_gpus = view_->total_gpus();
        return job.id % 2 == 0;
    }
    SchedulerDecision allocate() override
    {
        ++calls;
        SchedulerDecision d;
        for (JobId id : view_->active_jobs())
            d.gpus[id] = view_->current_gpus(id) + 1;
        return d;
    }
    Time reschedule_interval() const override { return 42.0; }
    PlacementStrategy placement_strategy() const override
    {
        return PlacementStrategy::kScatter;
    }
    bool allow_migration() const override { return true; }
    int replan_failures() const override { return 3; }
    std::vector<JobId> take_demotions() override { return {5, 6}; }
    void set_planner_concurrency(int s, int t) override
    {
        shards = s;
        threads = t;
    }
    void encode_recovery_state(std::string *out) const override
    {
        *out = "probe-state";
    }
    bool decode_recovery_state(const std::string &blob) override
    {
        decoded = blob;
        return blob == "probe-state";
    }

    const ClusterView *view() const { return view_; }

    int calls = 0;
    GpuCount admit_saw_gpus = 0;
    int shards = 0;
    int threads = 0;
    std::string decoded;
};

void
test_view_proxy()
{
    FakeView fake(123);
    CountingView proxy;
    proxy.set_target(&fake);
    Tracer tracer(64);
    proxy.set_tracer(&tracer);
    JobSpec spec;

    expect(proxy.total_gpus() == 123, "view: total_gpus forwarded");
    expect(proxy.now() == 4.5, "view: now forwarded");
    expect(proxy.active_jobs() == std::vector<JobId>{7, 9, 13},
           "view: active_jobs forwarded");
    expect(&proxy.spec(3) == &fake.spec(3), "view: spec forwarded");
    expect(&proxy.curve(3) == &fake.curve(3), "view: curve forwarded");
    expect(proxy.curve_for(spec).throughput(4) ==
               fake.curve_for(spec).throughput(4),
           "view: curve_for forwarded");
    expect(proxy.remaining_iterations(3) == 30.0,
           "view: remaining_iterations forwarded");
    expect(proxy.current_gpus(8) == 3, "view: current_gpus forwarded");
    expect(proxy.attained_gpu_seconds(2) == 5.0,
           "view: attained_gpu_seconds forwarded");
    expect(proxy.fault_epoch() == 77, "view: fault_epoch forwarded");

    bool every_kind_counted = true;
    for (std::uint64_t n : proxy.counts().calls)
        every_kind_counted = every_kind_counted && n == 1;
    expect(every_kind_counted, "view: each accessor counted once");
    expect(proxy.counts().active_ids == 3, "view: active ids counted");
    expect(proxy.counts().lookups() == 5, "view: per-job lookups counted");
    expect(tracer.recorded() == kViewKinds,
           "view: one span per traced accessor call");
}

void
test_scheduler_decorator()
{
    auto owned = std::make_unique<ProbePolicy>();
    ProbePolicy *probe = owned.get();
    Tracer tracer(64);
    TimingScheduler wrapped(std::move(owned), &tracer);
    FakeView first(123);
    FakeView second(456);
    wrapped.bind(&first);

    JobSpec even;
    even.id = 4;
    JobSpec odd;
    odd.id = 5;
    expect(wrapped.name() == "probe", "sched: name forwarded");
    expect(probe->view() != nullptr && probe->view() != &first &&
               probe->view()->total_gpus() == 123,
           "sched: inner policy sees the proxy over the bound view");
    expect(wrapped.admit(even) && !wrapped.admit(odd),
           "sched: admit verdicts forwarded");
    expect(probe->admit_saw_gpus == 123, "sched: admit reads the view");
    const SchedulerDecision d = wrapped.allocate();
    expect(d.gpus.size() == 3 && d.of(7) == 3 && d.of(9) == 5 &&
               d.of(13) == 4,
           "sched: allocate decision forwarded");
    expect(wrapped.reschedule_interval() == 42.0,
           "sched: reschedule_interval forwarded");
    expect(wrapped.placement_strategy() == PlacementStrategy::kScatter,
           "sched: placement_strategy forwarded");
    expect(wrapped.allow_migration(), "sched: allow_migration forwarded");
    expect(wrapped.replan_failures() == 3,
           "sched: replan_failures forwarded");
    expect(wrapped.take_demotions() == std::vector<JobId>{5, 6},
           "sched: take_demotions forwarded");
    wrapped.set_planner_concurrency(4, 2);
    expect(probe->shards == 4 && probe->threads == 2,
           "sched: set_planner_concurrency forwarded");
    std::string blob;
    wrapped.encode_recovery_state(&blob);
    expect(blob == "probe-state", "sched: encode_recovery_state forwarded");
    expect(wrapped.decode_recovery_state(blob) &&
               probe->decoded == "probe-state",
           "sched: decode_recovery_state forwarded");

    expect(wrapped.admit_ns().size() == 2 &&
               wrapped.allocate_ns().size() == 1 && wrapped.admitted() == 1,
           "sched: admit/allocate calls clocked");
    expect(wrapped.view_counts().calls_of(SpanKind::kViewActiveJobs) == 1 &&
               wrapped.view_counts().calls_of(SpanKind::kViewTotalGpus) == 3,
           "sched: the policy's view calls counted");
    expect(tracer.totals(SpanKind::kAdmit).count == 2 &&
               tracer.totals(SpanKind::kAllocate).count == 1,
           "sched: admit/allocate traced");
    expect(tracer.totals(SpanKind::kAllocate).self_ns <=
               tracer.totals(SpanKind::kAllocate).total_ns,
           "sched: view spans nest under allocate");

    wrapped.bind(&second);
    expect(wrapped.admit(even) && probe->admit_saw_gpus == 456,
           "sched: re-binding the decorator re-binds the inner policy");
    expect(probe->calls == 4, "sched: each call reached the policy once");
}

/** Seed of the hash-identity check's inputs. */
constexpr std::uint64_t kSeed = 7;

/**
 * Runs the path the benchmark measures: warm_up() fixes each input's
 * bare hash, and each rep reports a failure when a wrapped run misses
 * it.
 */
void
test_hash_identity()
{
    for (const char *name : {"paper-trace", "mega-long", "churn-durable"}) {
        std::unique_ptr<Workload> workload =
            make_workload(name, kSeed);
        std::vector<std::string> failures = workload->warm_up();
        Tracer tracer(0);
        const Rep plain = workload->rep(nullptr);
        const Rep traced = workload->rep(&tracer);
        for (const Rep *rep : {&plain, &traced})
            failures.insert(failures.end(), rep->failures.begin(),
                            rep->failures.end());
        for (const std::string &f : failures)
            std::cout << "     " << name << ": " << f << "\n";
        std::cout << "     " << name << " seed " << kSeed << ": untraced "
                  << std::hex << plain.state_hash << ", traced "
                  << traced.state_hash << std::dec << "\n";
        expect(failures.empty() && plain.state_hash == traced.state_hash,
               std::string(name) +
                   ": wrapped state_hash equals the bare run's");
    }
}

}  // namespace
}  // namespace perfbench
}  // namespace ef

int
main()
{
    ef::perfbench::test_view_proxy();
    ef::perfbench::test_scheduler_decorator();
    ef::perfbench::test_hash_identity();
    std::cout << (ef::perfbench::g_failures == 0 ? "all checks passed\n"
                                                 : "checks failed\n");
    return ef::perfbench::g_failures == 0 ? 0 : 1;
}
