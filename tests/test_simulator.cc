/**
 * @file
 * Tests for the event-driven simulator itself: progress accounting,
 * overhead charging, timeline recording, and the ClusterView contract.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>

#include "common/math_util.h"
#include "obs/metrics.h"
#include "recover/log.h"
#include "sched/scheduler.h"
#include "sim/simulator.h"
#include "test_util.h"
#include "workload/trace_gen.h"
#include "workload/trace_io.h"

namespace ef {
namespace {

using testutil::TraceBuilder;

/** Trivial scheduler: every active job gets its requested GPUs. */
class FixedScheduler : public Scheduler
{
  public:
    std::string name() const override { return "fixed"; }

    SchedulerDecision
    allocate() override
    {
        SchedulerDecision decision;
        GpuCount free = view_->total_gpus();
        for (JobId id : view_->active_jobs()) {
            GpuCount req = view_->spec(id).requested_gpus;
            if (view_->remaining_iterations(id) > 0.0 && req <= free) {
                decision.gpus[id] = req;
                free -= req;
            }
        }
        return decision;
    }
};

TEST(Simulator, SingleJobFinishTimeMatchesAnalyticDuration)
{
    Trace trace = TraceBuilder(TopologySpec::testbed_32())
                      .slo(DnnModel::kResNet50, 128, 4, 100.0,
                           2.0 * kHour, 1.5)
                      .build();
    FixedScheduler scheduler;
    SimConfig config;
    config.overhead.enabled = false;
    Simulator sim(trace, &scheduler, config);
    RunResult result = sim.run();
    ASSERT_TRUE(result.jobs[0].finished);
    // Standalone duration was 2h by construction; the fluid simulator
    // must land within iteration-rounding error of submit + 2h.
    EXPECT_NEAR(result.jobs[0].finish_time, 100.0 + 2.0 * kHour, 2.0);
    EXPECT_EQ(result.jobs[0].first_run_time, 100.0);
}

TEST(Simulator, OverheadDelaysFinish)
{
    Trace trace = TraceBuilder(TopologySpec::testbed_32())
                      .slo(DnnModel::kVgg16, 128, 8, 0.0, kHour, 2.0)
                      .build();
    FixedScheduler s1, s2;
    SimConfig with, without;
    without.overhead.enabled = false;
    Simulator sim_with(trace, &s1, with);
    Simulator sim_without(trace, &s2, without);
    Time t_with = sim_with.run().jobs[0].finish_time;
    Time t_without = sim_without.run().jobs[0].finish_time;
    EXPECT_GT(t_with, t_without);
    // The initial placement costs one checkpoint/restore (~seconds).
    EXPECT_LT(t_with - t_without, 2.0 * kMinute);
}

TEST(Simulator, AttainedServiceCountsGpuSeconds)
{
    Trace trace = TraceBuilder(TopologySpec::testbed_32())
                      .slo(DnnModel::kBert, 64, 4, 0.0, kHour, 2.0)
                      .build();
    FixedScheduler scheduler;
    SimConfig config;
    config.overhead.enabled = false;
    Simulator sim(trace, &scheduler, config);
    RunResult result = sim.run();
    // 4 GPUs for ~1 hour.
    EXPECT_NEAR(result.jobs[0].gpu_seconds, 4.0 * kHour,
                4.0 * kMinute);
}

TEST(Simulator, UsedGpusTimelineRisesAndFalls)
{
    Trace trace = TraceBuilder(TopologySpec::testbed_32())
                      .slo(DnnModel::kResNet50, 64, 8, 0.0, kHour, 2.0)
                      .build();
    FixedScheduler scheduler;
    Simulator sim(trace, &scheduler);
    RunResult result = sim.run();
    ASSERT_FALSE(result.used_gpus.empty());
    EXPECT_DOUBLE_EQ(result.used_gpus.value_at(60.0), 8.0);
    EXPECT_DOUBLE_EQ(
        result.used_gpus.value_at(result.makespan + 1.0), 0.0);
}

TEST(Simulator, ClusterEfficiencyBelowOneWithMultiGpuJobs)
{
    Trace trace = TraceBuilder(TopologySpec::testbed_32())
                      .slo(DnnModel::kVgg16, 256, 8, 0.0, kHour, 2.0)
                      .build();
    FixedScheduler scheduler;
    Simulator sim(trace, &scheduler);
    RunResult result = sim.run();
    double ce = result.cluster_efficiency.value_at(60.0);
    EXPECT_GT(ce, 0.0);
    // 8 GPUs of 32 at ~77% scaling efficiency: CE well below 0.25.
    EXPECT_LT(ce, 0.25);
}

TEST(Simulator, SubmittedAdmittedTimelines)
{
    Trace trace = TraceGenerator::generate(testbed_small_preset());
    auto scheduler = make_scheduler("elasticflow");
    Simulator sim(trace, scheduler.get());
    RunResult result = sim.run();
    EXPECT_DOUBLE_EQ(result.submitted_jobs.values().back(), 25.0);
    EXPECT_LE(result.admitted_jobs.values().back(), 25.0);
    EXPECT_DOUBLE_EQ(
        result.admitted_jobs.values().back(),
        static_cast<double>(result.admitted_count()));
}

TEST(Simulator, ViewExposesProgress)
{
    // Custom scheduler that asserts view invariants mid-run.
    class ProbeScheduler : public FixedScheduler
    {
      public:
        SchedulerDecision
        allocate() override
        {
            for (JobId id : view_->active_jobs()) {
                const JobSpec &spec = view_->spec(id);
                EXPECT_GE(view_->remaining_iterations(id), 0.0);
                EXPECT_LE(view_->remaining_iterations(id),
                          static_cast<double>(spec.iterations));
                EXPECT_GE(view_->attained_gpu_seconds(id), 0.0);
                const ScalingCurve &curve = view_->curve(id);
                EXPECT_FALSE(curve.empty());
                ++probes;
            }
            return FixedScheduler::allocate();
        }
        int probes = 0;
    };
    Trace trace = TraceBuilder(TopologySpec::testbed_32())
                      .slo(DnnModel::kGpt2, 128, 4, 0.0, kHour, 2.0)
                      .slo(DnnModel::kBert, 64, 2, 30.0, kHour, 2.0)
                      .build();
    ProbeScheduler scheduler;
    Simulator sim(trace, &scheduler);
    sim.run();
    EXPECT_GT(scheduler.probes, 0);
}

TEST(Simulator, OverSubscribedDecisionDies)
{
    class GreedyScheduler : public Scheduler
    {
      public:
        std::string name() const override { return "greedy"; }
        SchedulerDecision
        allocate() override
        {
            SchedulerDecision decision;
            for (JobId id : view_->active_jobs())
                decision.gpus[id] = view_->total_gpus();
            return decision;
        }
    };
    Trace trace = TraceBuilder(TopologySpec::testbed_32())
                      .slo(DnnModel::kBert, 64, 2, 0.0, kHour, 2.0)
                      .slo(DnnModel::kBert, 64, 2, 0.0, kHour, 2.0)
                      .build();
    GreedyScheduler scheduler;
    Simulator sim(trace, &scheduler);
    EXPECT_DEATH(sim.run(), "requested");
}

TEST(Simulator, DuplicateJobIdsDie)
{
    Trace trace = TraceBuilder(TopologySpec::testbed_32())
                      .slo(DnnModel::kBert, 64, 2, 0.0, kHour, 2.0)
                      .build();
    trace.jobs.push_back(trace.jobs[0]);
    FixedScheduler scheduler;
    EXPECT_DEATH(Simulator sim(trace, &scheduler), "duplicate job id");
}

/** FixedScheduler with a periodic tick, so tick collisions can occur. */
class TickingFixedScheduler : public FixedScheduler
{
  public:
    Time reschedule_interval() const override { return 600.0; }
};

RunResult
run_replan_config(const Trace &trace, bool coalesce, bool elide)
{
    TickingFixedScheduler scheduler;
    SimConfig config;
    config.overhead.enabled = false;
    config.coalesce_replans = coalesce;
    config.elide_replans = elide;
    Simulator sim(trace, &scheduler, config);
    return sim.run();
}

TEST(Simulator, ReplanElisionPreservesOutcomes)
{
    // The second arrival lands exactly on a tick boundary (t = 600 s,
    // the tick armed by the first flush at t = 0). Arrivals pop before
    // the tick (lower sequence number), so without coalescing the tick
    // finds a decision already made at its own timestamp and nothing
    // dirty — the textbook elidable replan.
    Trace trace = TraceBuilder(TopologySpec::testbed_32())
                      .slo(DnnModel::kResNet50, 128, 4, 0.0,
                           2.0 * kHour, 1.5)
                      .slo(DnnModel::kBert, 64, 8, 600.0, kHour, 2.0)
                      .build();

    RunResult baseline = run_replan_config(trace, false, false);
    RunResult elided = run_replan_config(trace, false, true);
    RunResult coalesced = run_replan_config(trace, true, false);
    RunResult both = run_replan_config(trace, true, true);

    EXPECT_EQ(baseline.replans_elided, 0);
    EXPECT_EQ(baseline.replans_coalesced, 0);
    EXPECT_GE(elided.replans_elided, 1);
    EXPECT_GE(coalesced.replans_coalesced, 1);

    // Every event raises the same requests regardless of how they are
    // serviced, and elision/coalescing must not change any outcome.
    for (const RunResult *r : {&elided, &coalesced, &both}) {
        EXPECT_EQ(r->replans_attempted, baseline.replans_attempted);
        ASSERT_EQ(r->jobs.size(), baseline.jobs.size());
        for (std::size_t i = 0; i < baseline.jobs.size(); ++i) {
            const JobOutcome &want = baseline.jobs[i];
            const JobOutcome &got = r->jobs[i];
            EXPECT_EQ(got.admitted, want.admitted);
            EXPECT_EQ(got.finished, want.finished);
            EXPECT_EQ(got.met_deadline(), want.met_deadline());
            EXPECT_DOUBLE_EQ(got.finish_time, want.finish_time);
            EXPECT_DOUBLE_EQ(got.first_run_time, want.first_run_time);
            EXPECT_DOUBLE_EQ(got.gpu_seconds, want.gpu_seconds);
        }
    }
}

TEST(Simulator, CoalescingMergesSimultaneousArrivals)
{
    // Three jobs submitted at the same instant: coalescing services
    // the burst with one scheduler invocation instead of three.
    Trace trace = TraceBuilder(TopologySpec::testbed_32())
                      .slo(DnnModel::kResNet50, 128, 4, 0.0, kHour, 2.0)
                      .slo(DnnModel::kBert, 64, 4, 0.0, kHour, 2.0)
                      .slo(DnnModel::kVgg16, 128, 4, 0.0, kHour, 2.0)
                      .build();
    RunResult merged = run_replan_config(trace, true, true);
    EXPECT_GE(merged.replans_coalesced, 2);
    for (const JobOutcome &job : merged.jobs) {
        EXPECT_TRUE(job.finished);
        EXPECT_TRUE(job.met_deadline());
    }
}

TEST(Simulator, MigrationsAreCountedAndCharged)
{
    // Force defragmentation: odd-sized jobs fill servers, then a job
    // needs a compact block.
    Trace trace = TraceGenerator::generate(testbed_large_preset());
    auto scheduler = make_scheduler("elasticflow");
    Simulator sim(trace, scheduler.get());
    RunResult result = sim.run();
    int migrations = 0;
    for (const JobOutcome &job : result.jobs)
        migrations += job.migrations;
    EXPECT_GT(migrations, 0);
}

TEST(Simulator, FailureAtArrivalBurstCoalescesIntoOneReplan)
{
    // Three replan sources collide at t = 600: an arrival, a scripted
    // server crash, and the periodic tick armed at t = 0. Coalescing
    // must merge them into a single scheduler invocation, and the
    // crash victim must be re-placed by that very invocation.
    Trace trace = TraceBuilder(TopologySpec::testbed_32())
                      .slo(DnnModel::kVgg16, 256, 8, 0.0, kHour, 4.0)
                      .slo(DnnModel::kBert, 64, 4, 600.0, kHour, 4.0)
                      .build();
    TickingFixedScheduler scheduler;
    SimConfig config;
    config.overhead.enabled = false;
    config.faults.script.push_back(
        {600.0, FaultType::kServerCrash, 0, 1800.0, 0.0});
    Simulator sim(trace, &scheduler, config);
    RunResult result = sim.run();

    EXPECT_GE(result.replans_coalesced, 2);
    EXPECT_EQ(result.jobs[0].failures_suffered, 1);
    EXPECT_EQ(result.jobs[1].failures_suffered, 0);
    for (const JobOutcome &job : result.jobs)
        EXPECT_TRUE(job.finished) << job.spec.id;
    // The coalesced replan at t = 600 both evicted and re-placed the
    // victim: its allocation log shows the eviction followed by a new
    // placement at the same timestamp.
    bool evicted_at_600 = false;
    bool replaced_at_600 = false;
    for (const AllocationEvent &event : result.allocation_log) {
        if (event.job != 0 || !almost_equal(event.time, 600.0))
            continue;
        if (event.gpus.empty())
            evicted_at_600 = true;
        else if (evicted_at_600)
            replaced_at_600 = true;
    }
    EXPECT_TRUE(evicted_at_600);
    EXPECT_TRUE(replaced_at_600);
}

// --- trace ids that are neither contiguous nor in submit order ----------

/**
 * The churn preset re-keyed to scattered ids (0 -> 907, 1 -> 8826,
 * 2 -> 6738, ...) and read back from CSV, as a production trace
 * would be: job ids carry no order at all.
 */
Trace
scattered_id_trace()
{
    Trace generated = TraceGenerator::generate(churn_preset());
    for (JobSpec &job : generated.jobs)
        job.id = (job.id * 7919 + 907) % 10007;
    return parse_trace_csv(trace_to_csv(generated), generated.topology,
                           "scattered-ids");
}

/** FixedScheduler that checks active_jobs() arrives in submit order. */
class SubmitOrderProbe : public FixedScheduler
{
  public:
    explicit SubmitOrderProbe(const Trace &trace)
    {
        for (std::size_t i = 0; i < trace.jobs.size(); ++i)
            position_[trace.jobs[i].id] = i;
    }

    SchedulerDecision
    allocate() override
    {
        const std::vector<JobId> active = view_->active_jobs();
        for (std::size_t i = 1; i < active.size(); ++i) {
            if (position_.at(active[i - 1]) >= position_.at(active[i]))
                ++out_of_order;
        }
        most_active = std::max(most_active, active.size());
        return FixedScheduler::allocate();
    }

    std::size_t out_of_order = 0;
    std::size_t most_active = 0;

  private:
    std::map<JobId, std::size_t> position_;
};

TEST(SimulatorScatteredIds, ActiveJobsComeBackInSubmitOrder)
{
    const Trace trace = scattered_id_trace();
    std::vector<JobId> ids;
    for (const JobSpec &job : trace.jobs)
        ids.push_back(job.id);
    ASSERT_FALSE(std::is_sorted(ids.begin(), ids.end()));

    SubmitOrderProbe probe(trace);
    Simulator sim(trace, &probe);
    RunResult result = sim.run();
    EXPECT_GT(probe.most_active, 2u);
    EXPECT_EQ(probe.out_of_order, 0u);
    for (const JobOutcome &job : result.jobs)
        EXPECT_TRUE(job.finished) << job.spec.id;
}

/** tiresias + budgeted defrag; the fault script only makes the
 *  configuration match the crashing run below (without a journal a
 *  scripted scheduler crash never fires). */
SimConfig
scattered_defrag_config()
{
    SimConfig config;
    config.defrag.enabled = true;
    config.defrag.budget_units_per_round = 16.0;
    FaultEvent crash;
    crash.type = FaultType::kSchedCrash;
    crash.target = 1;
    config.faults.script.push_back(crash);
    return config;
}

RunResult
run_tiresias(const Trace &trace, const SimConfig &config,
             bool *crashed = nullptr)
{
    auto scheduler = make_scheduler("tiresias");
    Simulator sim(trace, scheduler.get(), config);
    if (config.durability.recover) {
        recover::Status st = sim.prepare_durability();
        EXPECT_TRUE(st.ok()) << st.to_string();
    }
    RunResult result = sim.run();
    if (crashed != nullptr)
        *crashed = sim.crashed();
    return result;
}

TEST(SimulatorScatteredIds, DefragRunIsCompleteDeterministicAndRecoverable)
{
    // Defragmenter::plan_round dies unless its eligible list ascends
    // by id, so completing proves the simulator sorts it by id rather
    // than by submit order.
    const Trace trace = scattered_id_trace();
    const SimConfig config = scattered_defrag_config();
    const RunResult first = run_tiresias(trace, config);
    EXPECT_GT(first.defrag_rounds, 0);
    EXPECT_GT(first.defrag_moves, 0);
    for (const JobOutcome &job : first.jobs)
        EXPECT_TRUE(job.finished || !job.admitted) << job.spec.id;

    const RunResult again = run_tiresias(trace, config);
    EXPECT_EQ(first.state_hash, again.state_hash);

    // Kill the run halfway and recover it from its journal.
    const std::string dir = testing::TempDir() + "/ef_scattered_ids";
    std::remove(recover::DurableLog::snapshot_path(dir).c_str());
    std::remove(recover::DurableLog::journal_path(dir).c_str());
    SimConfig crash_config = config;
    crash_config.durability.journal_dir = dir;
    crash_config.faults.script[0].target =
        static_cast<std::int64_t>(first.state_hash_samples / 2);
    bool crashed = false;
    run_tiresias(trace, crash_config, &crashed);
    ASSERT_TRUE(crashed);
    SimConfig recover_config = crash_config;
    recover_config.durability.recover = true;
    const RunResult recovered =
        run_tiresias(trace, recover_config, &crashed);
    EXPECT_FALSE(crashed);
    EXPECT_EQ(recovered.state_hash, first.state_hash);
    EXPECT_EQ(recovered.state_hash_samples, first.state_hash_samples);
}

TEST(SimulatorRetiredSum, StragglerEndingAfterCompletionRecoversIdentically)
{
    // Job 0 starts straggling at t = 600 for two hours and finishes
    // inside that window, so the window closes on a retired job. Its
    // record changes after it was folded into the retired sum; a
    // recovery from a snapshot taken after that point rebuilds the sum
    // from the decoded records and must land on the same hash.
    Trace trace = TraceBuilder(TopologySpec::testbed_32())
                      .slo(DnnModel::kResNet50, 128, 4, 0.0, kHour, 4.0)
                      .slo(DnnModel::kBert, 64, 4, 0.0, 5 * kHour, 2.0)
                      .build();
    SimConfig config;
    config.faults.script.push_back(
        {600.0, FaultType::kStraggler, 0, 2 * kHour, 2.0});
    FaultEvent crash;
    crash.type = FaultType::kSchedCrash;
    crash.target = 1;
    config.faults.script.push_back(crash);
    RunResult uninterrupted;
    {
        TickingFixedScheduler scheduler;
        uninterrupted = Simulator(trace, &scheduler, config).run();
    }
    ASSERT_TRUE(uninterrupted.jobs[0].finished);
    ASSERT_LT(uninterrupted.jobs[0].finish_time, 600.0 + 2 * kHour);
    ASSERT_GT(uninterrupted.jobs[1].finish_time, 600.0 + 2 * kHour);

    const std::string dir = testing::TempDir() + "/ef_retired_sum";
    std::remove(recover::DurableLog::snapshot_path(dir).c_str());
    std::remove(recover::DurableLog::journal_path(dir).c_str());
    SimConfig crash_config = config;
    crash_config.durability.journal_dir = dir;
    crash_config.durability.snapshot_every = 1;
    crash_config.faults.script.back().target =
        static_cast<std::int64_t>(uninterrupted.state_hash_samples - 3);
    {
        TickingFixedScheduler scheduler;
        Simulator sim(trace, &scheduler, crash_config);
        sim.run();
        ASSERT_TRUE(sim.crashed());
    }
    SimConfig recover_config = crash_config;
    recover_config.durability.recover = true;
    TickingFixedScheduler scheduler;
    Simulator sim(trace, &scheduler, recover_config);
    ASSERT_TRUE(sim.prepare_durability().ok());
    const RunResult recovered = sim.run();
    EXPECT_FALSE(sim.crashed());
    EXPECT_EQ(recovered.state_hash, uninterrupted.state_hash);
}

// --- bookkeeping scales with live jobs, not trace length ----------------

/** sim.jobs_touched over one paper-scale run of @p num_jobs jobs. */
std::uint64_t
jobs_touched(int num_jobs)
{
    TraceGenConfig gen;
    gen.topology = TopologySpec::with_total_gpus(2048);
    gen.num_jobs = num_jobs;
    gen.mean_interarrival_s = 330.0;
    gen.seed = 7;
    const Trace trace = TraceGenerator::generate(gen);
    auto scheduler = make_scheduler("elasticflow");
    obs::MetricsRegistry registry;
    obs::MetricsScope scope(&registry);
    Simulator sim(trace, scheduler.get());
    sim.run();
    return registry.counter("sim.jobs_touched").value();
}

TEST(SimulatorScaling, JobsTouchedGrowLinearlyWithTraceLength)
{
    // At a fixed arrival rate the live set stays the same size, so
    // doubling the trace should double the records the simulator's
    // scans visit. Scanning every job per event would quadruple it.
    const std::uint64_t base = jobs_touched(1000);
    const std::uint64_t doubled = jobs_touched(2000);
    ASSERT_GT(base, 0u);
    const double growth =
        static_cast<double>(doubled) / static_cast<double>(base);
    EXPECT_LE(growth, 2.2) << base << " -> " << doubled;
}

}  // namespace
}  // namespace ef
