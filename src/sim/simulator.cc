#include "sim/simulator.h"

#include <algorithm>
#include <cmath>

#include "cluster/fragmentation.h"
#include "common/check.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/table.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/state_codec.h"
#include "serve/verdict.h"

namespace ef {
namespace {

constexpr double kIterEpsilon = 1e-6;

// Histogram bucket edges for the run-level obs metrics. Chosen once
// here so every run's dump is comparable.
const std::vector<double> kQueueDepthEdges = {0,  1,  2,   4,  8,
                                              16, 32, 64, 128, 256};
const std::vector<double> kFragmentationEdges = {0.0, 0.05, 0.1, 0.2,
                                                 0.4, 0.6,  0.8};
const std::vector<double> kSpanExcessEdges = {0, 1, 2, 4, 8, 16, 32};
const std::vector<double> kReplanIntervalEdges = {
    1.0, 10.0, 60.0, 300.0, 600.0, 1800.0, 3600.0, 7200.0};
const std::vector<double> kResizeEdges = {0, 1, 2, 4, 8, 16, 32, 64};
const std::vector<double> kEfficiencyEdges = {0.1, 0.25, 0.5, 0.75,
                                              0.9, 1.0};
const std::vector<double> kDecisionLatencyEdges = {
    0.001, 0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0,
    20.0,  30.0, 60.0, 120.0, 300.0};

/** ids payload of an alloc-change event, from concrete GPU ids. */
std::vector<std::int64_t>
trace_ids(const std::vector<GpuCount> &gpus)
{
    return std::vector<std::int64_t>(gpus.begin(), gpus.end());
}

}  // namespace

/** Runtime record of one job. */
struct Simulator::JobRt
{
    // ef-audit: transient(hash: submission-time constant, journaled (codec) and pinned by the job id)
    JobSpec spec;
    // ef-audit: transient(hash: submission-time constant, journaled (codec) and pinned by the job id)
    ScalingCurve curve;
    bool arrived = false;
    JobState state = JobState::kWaiting;

    double executed = 0.0;          ///< iterations completed
    Time last_update = 0.0;         ///< progress accounted up to here
    Time progress_resume = 0.0;     ///< paused (overhead) until here
    double attained_gpu_seconds = 0.0;

    GpuCount gpus = 0;              ///< currently held GPUs
    double current_tpt = 0.0;       ///< iterations/sec on the placement
    // ef-audit: transient(hash: drawn once per job from the journaled Rng cursor, so it is pinned by (seed, draws))
    double noise_factor = 1.0;      ///< executor-vs-profile mismatch
    double checkpoint_iters = 0.0;  ///< progress safe from failures

    double straggler_factor = 1.0;  ///< >1 while a worker straggles
    Time straggler_until = -kTimeInfinity;

    // ef-audit: transient(hash: derived report row, filled in at retirement from hashed progress state)
    JobOutcome outcome;

    double remaining() const
    {
        return std::max(0.0, static_cast<double>(spec.iterations) -
                                 executed);
    }
    bool active() const
    {
        return arrived && (state == JobState::kWaiting ||
                           state == JobState::kRunning);
    }
};

/** Queue entry; min-heap by (time, seq). */
struct Simulator::Event
{
    enum Kind {
        kArrival,
        kCompletion,
        kTick,
        kServiceRound,
        kServerDown,
        kServerUp,
        kGpuDown,
        kGpuUp,
        kStragglerStart,
        kStragglerEnd,
    };
    Time time = 0.0;
    std::uint64_t seq = 0;
    Kind kind = kArrival;
    /** Job id, or server index / GPU id for failure events. */
    JobId job = kInvalidJob;
    Time dur = 0.0;           ///< repair / straggle window (fault events)
    double mag = 0.0;         ///< straggler slowdown factor
    /** Scripted faults never reschedule the rate-based stream. */
    bool from_script = false;
};

bool
Simulator::event_after(const Event &a, const Event &b)
{
    if (a.time != b.time)
        return a.time > b.time;
    return a.seq > b.seq;
}

Simulator::Simulator(const Trace &trace, Scheduler *scheduler,
                     SimConfig config)
    : trace_(trace),
      scheduler_(scheduler),
      config_(config),
      topology_(trace.topology),
      perf_(&topology_),
      placement_(&topology_),
      overhead_(config.overhead),
      events_(event_after),
      durable_([this](recover::Encoder *enc) { encode_state(enc); })
{
    EF_CHECK(scheduler_ != nullptr);
    scheduler_->bind(this);

    result_.scheduler_name = scheduler_->name();
    result_.trace_name = trace_.name;
    result_.total_gpus = topology_.total_gpus();

    jobs_.reserve(trace_.jobs.size());
    index_.reserve(trace_.jobs.size());
    for (const JobSpec &spec : trace_.jobs) {
        JobRt job;
        job.spec = spec;
        job.curve = curve_for(spec);
        job.outcome.spec = spec;
        if (config_.noise.throughput_error > 0.0) {
            // Deterministic per-job factor in [1 - e, 1 + e].
            Rng noise_rng(0x9e3779b9u ^
                          static_cast<std::uint64_t>(spec.id) * 2654435761u);
            job.noise_factor = 1.0 + noise_rng.uniform_real(
                                         -config_.noise.throughput_error,
                                         config_.noise.throughput_error);
        }
        index_.emplace_back(spec.id, jobs_.size());
        jobs_.push_back(std::move(job));
        // A recovered run replaces the event queue from its snapshot.
        events_.push(Event{spec.submit_time, next_seq_++, Event::kArrival,
                           spec.id});
    }
    std::sort(index_.begin(), index_.end());
    auto dup = std::adjacent_find(
        index_.begin(), index_.end(),
        [](const auto &a, const auto &b) { return a.first == b.first; });
    EF_FATAL_IF(dup != index_.end(),
                "duplicate job id " << dup->first << " in trace");
    FaultConfig effective = config_.faults;
    if (config_.failures.enabled) {
        EF_FATAL_IF(config_.failures.server_mtbf_s <= 0.0,
                    "failure MTBF must be positive");
        EF_FATAL_IF(effective.server_mtbf_s > 0.0,
                    "server crashes configured through both "
                    "FailureConfig and FaultConfig; pick one");
        // The legacy failure model becomes one producer of server-crash
        // fault events, keeping its own seed so the draw sequence (and
        // therefore the whole run) replays byte-identically.
        effective.server_mtbf_s = config_.failures.server_mtbf_s;
        effective.server_repair_s = config_.failures.repair_s;
        if (effective.server_seed == 0)
            effective.server_seed = config_.failures.seed;
    }
    if (effective.any())
        fault_ = std::make_unique<FaultInjector>(std::move(effective));
    if (config_.service.enabled) {
        EF_FATAL_IF(config_.service.queue_watermark < 1,
                    "service mode needs queue_watermark >= 1");
        service_governor_ = std::make_unique<serve::ReplanGovernor>(
            config_.service.governor);
    }
    // A zero budget stays null on purpose: such a run must be
    // byte-identical to a defrag-disabled one (DESIGN.md §14).
    if (config_.defrag.enabled &&
        config_.defrag.budget_units_per_round > 0.0) {
        defrag_ = std::make_unique<defrag::Defragmenter>(
            config_.defrag, &topology_, &perf_);
    }
}

Simulator::~Simulator() = default;

std::size_t
Simulator::index_of(JobId id) const
{
    auto it = std::lower_bound(
        index_.begin(), index_.end(), id,
        [](const auto &entry, JobId key) { return entry.first < key; });
    return it != index_.end() && it->first == id ? it->second
                                                 : jobs_.size();
}

Simulator::JobRt &
Simulator::rt(JobId id)
{
    const std::size_t index = index_of(id);
    EF_CHECK_MSG(index < jobs_.size(), "unknown job " << id);
    return jobs_[index];
}

const Simulator::JobRt &
Simulator::rt(JobId id) const
{
    const std::size_t index = index_of(id);
    EF_CHECK_MSG(index < jobs_.size(), "unknown job " << id);
    return jobs_[index];
}

GpuCount
Simulator::total_gpus() const
{
    // Schedulers see the capacity that is actually up (§4.4).
    return placement_.available_gpus();
}

std::vector<JobId>
Simulator::active_jobs() const
{
    obs::count("sim.jobs_touched", live_.size());
    std::vector<JobId> active;
    active.reserve(live_.size());
    for (std::size_t index : live_)
        active.push_back(jobs_[index].spec.id);
    return active;
}

const JobSpec &
Simulator::spec(JobId job) const
{
    return rt(job).spec;
}

const ScalingCurve &
Simulator::curve(JobId job) const
{
    return rt(job).curve;
}

ScalingCurve
Simulator::curve_for(const JobSpec &spec) const
{
    std::vector<double> table = perf_.compact_pow2_throughputs(
        spec.model, spec.global_batch, topology_.total_gpus());
    return ScalingCurve::from_pow2_table(std::move(table));
}

double
Simulator::remaining_iterations(JobId job) const
{
    return rt(job).remaining();
}

GpuCount
Simulator::current_gpus(JobId job) const
{
    return rt(job).gpus;
}

double
Simulator::attained_gpu_seconds(JobId job) const
{
    return rt(job).attained_gpu_seconds;
}

void
Simulator::advance_progress(Time to)
{
    EF_CHECK(to >= now_);
    // Jobs outside live_ hold no GPUs and make no progress.
    obs::count("sim.jobs_touched", live_.size());
    for (std::size_t index : live_) {
        JobRt &job = jobs_[index];
        Time t0 = job.last_update;
        if (to <= t0) {
            continue;
        }
        if (job.gpus > 0) {
            job.attained_gpu_seconds +=
                static_cast<double>(job.gpus) * (to - t0);
            job.outcome.gpu_seconds = job.attained_gpu_seconds;
        }
        if (job.state == JobState::kRunning && job.gpus > 0) {
            Time start = std::max(t0, job.progress_resume);
            if (to > start) {
                job.executed += job.current_tpt * (to - start);
                job.executed = std::min(
                    job.executed, static_cast<double>(job.spec.iterations));
                // Periodic auto-checkpointing: progress older than one
                // checkpoint interval is safe from node failures.
                double interval_iters =
                    job.current_tpt *
                    config_.failures.checkpoint_interval_s;
                if (job.executed - job.checkpoint_iters >
                    interval_iters) {
                    job.checkpoint_iters = job.executed - interval_iters;
                }
            }
        }
        job.last_update = to;
    }
}

void
Simulator::charge_pause(JobRt &job, Time seconds)
{
    if (seconds <= 0.0)
        return;
    job.progress_resume =
        std::max(job.progress_resume, now_ + seconds);
}

void
Simulator::refresh_throughput(JobRt &job)
{
    if (job.gpus <= 0 || job.state != JobState::kRunning) {
        job.current_tpt = 0.0;
        return;
    }
    PlacementShape shape =
        perf_.shape_of(placement_.gpus_of(job.spec.id));
    job.current_tpt =
        perf_.throughput(job.spec.model, job.spec.global_batch, shape) *
        job.noise_factor;
    // A straggling worker gates the whole data-parallel group.
    if (now_ < job.straggler_until)
        job.current_tpt /= job.straggler_factor;
    EF_CHECK_MSG(job.current_tpt > 0.0,
                 "job " << job.spec.id << " placed on an infeasible "
                        << job.gpus << "-GPU configuration");
    schedule_completion(job);
}

void
Simulator::schedule_completion(JobRt &job)
{
    if (job.state != JobState::kRunning || job.current_tpt <= 0.0)
        return;
    Time start = std::max(now_, job.progress_resume);
    Time done = start + job.remaining() / job.current_tpt;
    events_.push(Event{done, next_seq_++, Event::kCompletion,
                       job.spec.id});
}

bool
Simulator::deliver_resize(JobId id, Time *penalty)
{
    if (fault_ == nullptr)
        return true;
    // The simulator's control path is synchronous, so delivery
    // collapses to: how many attempts were lost, and did we give up?
    // (Ack-vs-request loss only matters for the asynchronous
    // ExecutorFleet, which models duplicate suppression explicitly.)
    int forced = fault_->take_scripted_rpc_drops(id, now_);
    int attempt = 0;
    for (;;) {
        bool lost = forced > 0 || fault_->rpc_attempt_lost();
        if (forced > 0)
            --forced;
        if (!lost)
            break;
        ++attempt;
        if (attempt > fault_->config().rpc_max_retries) {
            ++result_.rpc_gave_up;
            obs::emit({now_, obs::EventKind::kRpcGiveUp, id, attempt});
            obs::count("sim.rpc.gave_up");
            EF_INFO("command for job "
                    << id << " lost after "
                    << fault_->config().rpc_max_retries
                    << " retries; allocation unchanged");
            return false;
        }
        ++result_.rpc_retries;
        obs::emit({now_, obs::EventKind::kRpcRetry, id, attempt});
        obs::count("sim.rpc.retries");
        *penalty += fault_->rpc_backoff(attempt);
    }
    *penalty += fault_->rpc_delay();
    return true;
}

void
Simulator::apply_resize(JobRt &job, GpuCount desired)
{
    const JobId id = job.spec.id;
    const GpuCount old = job.gpus;
    if (desired == old)
        return;

    // Unreliable control plane: the resize command can be lost. A
    // given-up command leaves the previous allocation in force until
    // a later replan reconciles; retries charge backoff latency to
    // the job below.
    Time rpc_penalty = 0.0;
    if (!deliver_resize(id, &rpc_penalty))
        return;

    if (desired == 0) {
        placement_.release(id);
        job.gpus = 0;
        job.current_tpt = 0.0;
        job.state = JobState::kWaiting;
        ++job.outcome.scaling_events;
        result_.allocation_log.push_back(
            AllocationEvent{now_, id, {}});
        if (obs::tracing()) {
            obs::emit({now_, obs::EventKind::kScale, id, old, 0});
            obs::emit({now_, obs::EventKind::kAllocChange, id, old});
        }
        return;
    }

    PlacementResult res;
    if (old == 0) {
        res = placement_.place(id, desired,
                               scheduler_->placement_strategy(),
                               scheduler_->allow_migration());
    } else {
        res = placement_.resize(id, desired,
                                scheduler_->placement_strategy(),
                                scheduler_->allow_migration());
    }
    if (!res.ok) {
        ++result_.placement_failures;
        obs::emit({now_, obs::EventKind::kPlacementFail, id, desired});
        EF_DEBUG("placement failed for job " << id << " (" << desired
                                             << " GPUs)");
        return;  // keep the previous allocation
    }

    // Defragmentation relocations pause their victims too.
    for (const Migration &m : res.migrations) {
        if (m.job == id)
            continue;
        JobRt &other = rt(m.job);
        ++other.outcome.migrations;
        charge_pause(other, overhead_.migration_seconds(
                                other.spec.model, other.gpus));
        if (other.state == JobState::kRunning)
            refresh_throughput(other);
        result_.allocation_log.push_back(
            AllocationEvent{now_, m.job, m.to});
        if (obs::tracing()) {
            obs::TraceEvent moved{now_, obs::EventKind::kAllocChange,
                                  m.job, other.gpus};
            moved.ids = trace_ids(m.to);
            obs::emit(moved);
            obs::TraceEvent mig{now_, obs::EventKind::kMigration,
                                m.job, other.gpus};
            mig.ids = trace_ids(m.to);
            obs::emit(mig);
        }
        obs::count("sim.migrations");
    }

    job.gpus = desired;
    job.state = JobState::kRunning;
    ++job.outcome.scaling_events;
    // Scaling checkpoints state — unless the checkpoint write itself
    // fails, in which case the previous checkpoint stays the restore
    // point and progress since then remains at risk.
    bool ckpt_ok = true;
    if (fault_ != nullptr && fault_->checkpoint_write_fails(id, now_)) {
        ++result_.ckpt_failures;
        ckpt_ok = false;
    } else {
        job.checkpoint_iters = job.executed;
    }
    result_.allocation_log.push_back(
        AllocationEvent{now_, id, placement_.gpus_of(id)});
    if (obs::tracing()) {
        obs::emit({now_, obs::EventKind::kScale, id, old, desired});
        obs::emit({now_, obs::EventKind::kCheckpoint, id,
                   ckpt_ok ? 1 : 0});
        obs::TraceEvent alloc{now_, obs::EventKind::kAllocChange, id,
                              old};
        alloc.ids = trace_ids(placement_.gpus_of(id));
        obs::emit(alloc);
    }
    obs::count("sim.scalings");
    if (is_unbounded(job.outcome.first_run_time))
        job.outcome.first_run_time = now_;
    charge_pause(job, overhead_.scaling_seconds(job.spec.model, old,
                                                desired) +
                          rpc_penalty);
    if (fault_ != nullptr && fault_->straggler_starts()) {
        // The rebuilt worker group came up with a straggler.
        job.straggler_factor = fault_->straggler_slowdown();
        job.straggler_until = now_ + fault_->straggler_duration_s();
        ++result_.stragglers_observed;
        if (obs::tracing()) {
            obs::TraceEvent straggle{
                now_, obs::EventKind::kStragglerStart, id};
            straggle.x = job.straggler_factor;
            obs::emit(straggle);
        }
        obs::count("sim.stragglers");
        events_.push(Event{job.straggler_until, next_seq_++,
                           Event::kStragglerEnd, id});
    }
    refresh_throughput(job);
}

void
Simulator::apply_decision(const SchedulerDecision &decision)
{
    GpuCount desired_total = 0;
    for (const auto &[id, g] : decision.gpus) {
        EF_CHECK_MSG(g >= 0, "negative allocation for job " << id);
        desired_total += g;
    }
    EF_CHECK_MSG(desired_total <= topology_.total_gpus(),
                 scheduler_->name() << " requested " << desired_total
                                    << " GPUs on a "
                                    << topology_.total_gpus()
                                    << "-GPU cluster");

    // Shrinks and suspensions first to free capacity, then growths
    // (largest first so compact placements are found while space is
    // contiguous).
    std::vector<JobId> grows;
    obs::count("sim.jobs_touched", live_.size());
    for (std::size_t index : live_) {
        JobRt &job = jobs_[index];
        GpuCount desired = decision.of(job.spec.id);
        if (desired < job.gpus)
            apply_resize(job, desired);
        else if (desired > job.gpus)
            grows.push_back(job.spec.id);
    }
    std::stable_sort(grows.begin(), grows.end(),
                     [&decision](JobId a, JobId b) {
                         return decision.of(a) > decision.of(b);
                     });
    for (JobId id : grows)
        apply_resize(rt(id), decision.of(id));
}

void
Simulator::record_timelines()
{
    result_.used_gpus.record(now_, placement_.used_gpus());
    record_fragmentation();
    if (!config_.record_efficiency)
        return;
    // Summed in ascending id order: the bits of a floating-point sum
    // depend on its order.
    double ce = 0.0;
    for (std::size_t index : live_by_id()) {
        const JobRt &job = jobs_[index];
        if (job.state != JobState::kRunning || job.gpus <= 0)
            continue;
        GpuCount base = job.curve.min_workers();
        double per_gpu_base =
            job.curve.throughput(base) / static_cast<double>(base);
        // Eq. 8: each of the job's GPUs contributes its per-GPU
        // throughput relative to the 1-GPU rate; summed over the job
        // that is simply T_actual(g) / T(1).
        ce += job.current_tpt / per_gpu_base;
    }
    const double efficiency =
        ce / static_cast<double>(topology_.total_gpus());
    result_.cluster_efficiency.record(now_, efficiency);
    if (obs::metrics() != nullptr) {
        obs::gauge_set("sim.cluster_efficiency_last", efficiency);
        obs::observe("sim.cluster_efficiency", kEfficiencyEdges,
                     efficiency);
        obs::gauge_set("sim.used_gpus_last",
                       static_cast<double>(placement_.used_gpus()));
    }
}

std::vector<std::size_t>
Simulator::live_by_id() const
{
    obs::count("sim.jobs_touched", live_.size());
    std::vector<std::size_t> order = live_;
    std::sort(order.begin(), order.end(),
              [this](std::size_t a, std::size_t b) {
                  return jobs_[a].spec.id < jobs_[b].spec.id;
              });
    return order;
}

bool
Simulator::any_nonterminal_jobs() const
{
    return !live_.empty();
}

void
Simulator::arm_tick()
{
    Time interval = scheduler_->reschedule_interval();
    if (interval <= 0.0 || tick_armed_)
        return;
    if (!any_nonterminal_jobs())
        return;
    events_.push(Event{now_ + interval, next_seq_++, Event::kTick,
                       kInvalidJob});
    tick_armed_ = true;
}

void
Simulator::schedule_next_failure(int server)
{
    if (fault_ == nullptr || !fault_->server_crashes_enabled())
        return;
    Time delay = fault_->server_crash_delay();
    events_.push(Event{now_ + delay, next_seq_++, Event::kServerDown,
                       static_cast<JobId>(server)});
}

void
Simulator::schedule_next_gpu_fault()
{
    if (fault_ == nullptr || !fault_->gpu_faults_enabled())
        return;
    Time delay = fault_->gpu_fault_delay(topology_.total_gpus());
    GpuCount target = fault_->gpu_fault_target(topology_.total_gpus());
    events_.push(Event{now_ + delay, next_seq_++, Event::kGpuDown,
                       static_cast<JobId>(target),
                       fault_->gpu_repair_s()});
}

void
Simulator::queue_scripted_faults()
{
    if (fault_ == nullptr)
        return;
    for (const FaultEvent &ev : fault_->queueable_script_events()) {
        Event event;
        event.time = ev.time;
        event.seq = next_seq_++;
        event.job = static_cast<JobId>(ev.target);
        event.from_script = true;
        switch (ev.type) {
          case FaultType::kServerCrash:
            EF_FATAL_IF(ev.target < 0 ||
                            ev.target >= topology_.num_servers(),
                        "scripted server-crash target " << ev.target
                            << " out of range");
            event.kind = Event::kServerDown;
            event.dur = ev.duration_s > 0.0 ? ev.duration_s
                                            : fault_->server_repair_s();
            break;
          case FaultType::kGpuFault:
            EF_FATAL_IF(ev.target < 0 ||
                            ev.target >= topology_.total_gpus(),
                        "scripted gpu-fault target " << ev.target
                            << " out of range");
            event.kind = Event::kGpuDown;
            event.dur = ev.duration_s > 0.0 ? ev.duration_s
                                            : fault_->gpu_repair_s();
            break;
          case FaultType::kStraggler:
            EF_FATAL_IF(index_of(static_cast<JobId>(ev.target)) ==
                            jobs_.size(),
                        "scripted straggler targets unknown job "
                            << ev.target);
            event.kind = Event::kStragglerStart;
            event.dur = ev.duration_s > 0.0
                            ? ev.duration_s
                            : fault_->straggler_duration_s();
            event.mag = ev.magnitude > 1.0
                            ? ev.magnitude
                            : fault_->straggler_slowdown();
            break;
          default:
            continue;  // rpc-drop / ckpt-fail arm inside the injector
        }
        events_.push(event);
    }
}

void
Simulator::evict_job(JobId id)
{
    JobRt &job = rt(id);
    const GpuCount old = job.gpus;
    const double rolled_back =
        std::max(0.0, job.executed - job.checkpoint_iters);
    placement_.release(id);
    job.gpus = 0;
    job.current_tpt = 0.0;
    job.state = JobState::kWaiting;
    job.executed = std::min(job.executed, job.checkpoint_iters);
    ++job.outcome.failures_suffered;
    result_.allocation_log.push_back(AllocationEvent{now_, id, {}});
    if (obs::tracing()) {
        obs::TraceEvent evict{now_, obs::EventKind::kJobEvict, id,
                              old};
        evict.x = rolled_back;
        obs::emit(evict);
        obs::emit({now_, obs::EventKind::kAllocChange, id, old});
    }
    obs::count("sim.evictions");
}

void
Simulator::handle_server_down(const Event &event)
{
    const int server = static_cast<int>(event.job);
    // The rate-based chain reschedules on repair (handle_server_up),
    // preserving the legacy FailureConfig draw sequence exactly.
    if (!placement_.server_available(server))
        return;  // already down (stale event)
    // Evict every job with a worker on the failed server: it loses its
    // GPUs and rolls back to its last checkpoint.
    std::vector<JobId> victims;
    for (JobId id : placement_.placed_jobs()) {
        for (GpuCount g : placement_.gpus_of(id)) {
            if (topology_.server_of(g) == server) {
                victims.push_back(id);
                break;
            }
        }
    }
    for (JobId id : victims)
        evict_job(id);
    placement_.set_server_available(server, false);
    view_dirty_ = true;  // capacity shrank; victims lost their GPUs
    ++fault_epoch_;
    if (durable_.writing()) {
        recover::Encoder body;
        body.f64(now_);
        body.u8(static_cast<std::uint8_t>(FaultType::kServerCrash));
        body.i64(server);
        durable_.append(recover::RecordKind::kFault, body);
    }
    obs::emit({now_, obs::EventKind::kServerDown, kInvalidJob, server,
               static_cast<std::int64_t>(victims.size())});
    obs::count("sim.faults.server_down");
    EF_INFO("server " << server << " failed at "
                      << format_double(now_ / kHour, 2) << " h ("
                      << victims.size() << " jobs evicted)");
    Time repair =
        event.dur > 0.0 ? event.dur : fault_->server_repair_s();
    events_.push(Event{now_ + repair, next_seq_++, Event::kServerUp,
                       static_cast<JobId>(server)});
    if (any_nonterminal_jobs())
        request_replan();
}

void
Simulator::handle_gpu_down(const Event &event)
{
    const GpuCount gpu = static_cast<GpuCount>(event.job);
    if (!event.from_script)
        schedule_next_gpu_fault();
    const int server = topology_.server_of(gpu);
    if (!placement_.server_available(server))
        return;  // the whole server is already down; outage dominates
    if (!placement_.gpu_available(gpu))
        return;  // already down (stale event)
    // Finer-grained than a server crash: only the placement using this
    // one GPU is evicted; co-located jobs on other GPUs keep running.
    const JobId victim = placement_.owner_of(gpu);
    if (victim != kInvalidJob)
        evict_job(victim);
    placement_.set_gpu_available(gpu, false);
    ++result_.gpu_faults;
    ++fault_epoch_;
    view_dirty_ = true;
    if (durable_.writing()) {
        recover::Encoder body;
        body.f64(now_);
        body.u8(static_cast<std::uint8_t>(FaultType::kGpuFault));
        body.i64(gpu);
        durable_.append(recover::RecordKind::kFault, body);
    }
    obs::emit({now_, obs::EventKind::kGpuDown, kInvalidJob, gpu,
               victim != kInvalidJob ? 1 : 0});
    obs::count("sim.faults.gpu_down");
    EF_INFO("GPU " << gpu << " failed at "
                   << format_double(now_ / kHour, 2) << " h"
                   << (victim != kInvalidJob ? " (1 job evicted)"
                                             : ""));
    Time repair = event.dur > 0.0 ? event.dur : fault_->gpu_repair_s();
    events_.push(Event{now_ + repair, next_seq_++, Event::kGpuUp,
                       static_cast<JobId>(gpu)});
    if (any_nonterminal_jobs())
        request_replan();
}

void
Simulator::handle_gpu_up(GpuCount gpu)
{
    if (placement_.gpu_available(gpu))
        return;  // stale event
    placement_.set_gpu_available(gpu, true);
    view_dirty_ = true;  // capacity grew
    obs::emit({now_, obs::EventKind::kGpuUp, kInvalidJob, gpu});
    if (any_nonterminal_jobs())
        request_replan();
}

void
Simulator::handle_straggler_start(const Event &event)
{
    JobRt &job = rt(event.job);
    if (!job.active())
        return;  // finished or dropped before the fault fired
    job.straggler_factor = std::max(1.0, event.mag);
    job.straggler_until = now_ + event.dur;
    ++result_.stragglers_observed;
    if (obs::tracing()) {
        obs::TraceEvent straggle{
            now_, obs::EventKind::kStragglerStart, event.job};
        straggle.x = job.straggler_factor;
        obs::emit(straggle);
    }
    obs::count("sim.stragglers");
    events_.push(Event{job.straggler_until, next_seq_++,
                       Event::kStragglerEnd, event.job});
    // Stragglers change throughput, not capacity: no replan, but the
    // job's completion must be re-predicted at the slowed rate.
    if (job.state == JobState::kRunning && job.gpus > 0)
        refresh_throughput(job);
}

void
Simulator::handle_straggler_end(JobId id)
{
    JobRt &job = rt(id);
    if (job.straggler_factor <= 1.0 || now_ < job.straggler_until)
        return;  // stale event (a newer window superseded this one)
    // A job that finished while straggling is already in the retired
    // sum: re-fold it so the sum keeps matching its record.
    const bool retired = !job.active();
    if (retired)
        retired_sum_ -= job_digest(job);
    job.straggler_factor = 1.0;
    job.straggler_until = -kTimeInfinity;
    if (retired)
        retired_sum_ += job_digest(job);
    obs::emit({now_, obs::EventKind::kStragglerEnd, id});
    if (job.state == JobState::kRunning && job.gpus > 0)
        refresh_throughput(job);
}

void
Simulator::handle_server_up(int server)
{
    if (placement_.server_available(server))
        return;
    placement_.set_server_available(server, true);
    view_dirty_ = true;  // capacity grew
    obs::emit({now_, obs::EventKind::kServerUp, kInvalidJob, server});
    schedule_next_failure(server);
    if (any_nonterminal_jobs())
        request_replan();
}

std::uint64_t
Simulator::state_hash() const
{
    Fnv1a h;
    // Event clock.
    h.f64(now_);
    h.u64(next_seq_);
    h.u64(fault_epoch_);
    // Live jobs in submit order. A job that has not arrived still has
    // its initial record; a retired one is in retired_sum_.
    obs::count("sim.jobs_touched", live_.size());
    h.u64(live_.size());
    for (std::size_t index : live_)
        h.u64(job_digest(jobs_[index]));
    h.u64(arrived_);
    h.u64(accepted_);
    h.u64(retired_sum_);
    // Concrete allocations and per-GPU health: which job owns which
    // GPU id, not just the counts — placement choices are part of the
    // determinism contract (they feed topology-dependent throughput).
    h.u64(placement_.ownership_digest());
    // Service mode: queued-but-undecided submissions and the token
    // bucket are determinism-relevant state the job fields don't see.
    if (service_governor_ != nullptr) {
        h.u64(service_governor_->fingerprint());
        h.u64(service_queue_.size());
        for (JobId id : service_queue_)
            h.i64(id);
    }
    // RNG cursors: a fault stream that advanced differently is a
    // divergence even before it changes any allocation.
    if (fault_ != nullptr)
        h.u64(fault_->state_fingerprint());
    // Background defrag: SA cursor, governor bucket, budget ledger and
    // accepted-move log (null — and absent from the digest — when
    // disabled or budget-zero, keeping those runs byte-identical).
    if (defrag_ != nullptr)
        h.u64(defrag_->fingerprint());
    return h.digest();
}

std::uint64_t
Simulator::job_digest(const JobRt &job)
{
    Fnv1a h;
    h.i64(job.spec.id);
    h.u64(static_cast<std::uint64_t>(job.state));
    h.byte(job.arrived ? 1 : 0);
    h.f64(job.executed);
    h.f64(job.attained_gpu_seconds);
    h.f64(job.last_update);
    h.f64(job.progress_resume);
    h.f64(job.checkpoint_iters);
    h.f64(job.current_tpt);
    h.f64(job.straggler_factor);
    h.f64(job.straggler_until);
    h.i64(job.gpus);
    return h.digest();
}

void
Simulator::rebuild_live_state()
{
    live_.clear();
    arrived_ = 0;
    accepted_ = 0;
    retired_sum_ = 0;
    for (std::size_t index = 0; index < jobs_.size(); ++index) {
        const JobRt &job = jobs_[index];
        if (!job.arrived)
            continue;
        ++arrived_;
        accepted_ += job.outcome.admitted ? 1 : 0;
        if (job.active())
            live_.push_back(index);
        else
            retired_sum_ += job_digest(job);
    }
}

void
Simulator::audit_state(bool terminal)
{
    Fnv1a h;
    h.u64(result_.state_hash);
    h.u64(state_hash());
    result_.state_hash = h.digest();
    ++result_.state_hash_samples;
    if (durable_.bound())
        commit_round(terminal);
}

std::uint64_t
Simulator::config_fingerprint() const
{
    // The shape a snapshot is only valid against. Deliberately absent:
    // the fault *rates* (the injector's RNG cursors are in the snapshot
    // body).
    Fnv1a h;
    h.str(trace_.name);
    h.u64(trace_.jobs.size());
    for (const JobSpec &job : trace_.jobs) {
        // Trace *content*, not just its shape: two presets that differ
        // only in generator seed must not share a fingerprint.
        h.i64(job.id);
        h.f64(job.submit_time);
        h.i64(job.iterations);
        h.f64(job.deadline);
        h.i64(job.requested_gpus);
    }
    h.i64(topology_.total_gpus());
    h.i64(topology_.num_servers());
    h.str(result_.scheduler_name);
    h.byte(config_.service.enabled ? 1 : 0);
    h.byte(fault_ != nullptr ? 1 : 0);
    h.byte(defrag_ != nullptr ? 1 : 0);
    h.f64(config_.max_time);
    return h.digest();
}

void
Simulator::encode_state(recover::Encoder *enc) const
{
    enc->u64(config_fingerprint());
    // Clocks and replan bookkeeping.
    enc->f64(now_);
    enc->u64(next_seq_);
    enc->u64(fault_epoch_);
    enc->boolean(tick_armed_);
    enc->boolean(replan_pending_);
    enc->boolean(view_dirty_);
    enc->f64(last_decision_time_);
    enc->u64(sched_crash_cursor_);
    // Event queue, drained in pop order (deterministic bytes; restore
    // re-heapifies, so any order would round-trip the same state).
    {
        auto copy = events_;
        enc->u64(copy.size());
        while (!copy.empty()) {
            const Event &e = copy.top();
            enc->f64(e.time);
            enc->u64(e.seq);
            enc->u8(static_cast<std::uint8_t>(e.kind));
            enc->i64(e.job);
            enc->f64(e.dur);
            enc->f64(e.mag);
            enc->boolean(e.from_script);
            copy.pop();
        }
    }
    // Jobs, in submission order. The spec is stored (not rebuilt from
    // the trace) because service mode mutates it in place on degrade.
    enc->u64(jobs_.size());
    for (const JobRt &job : jobs_) {
        serve::encode_job_spec(enc, job.spec);
        serve::encode_curve(enc, job.curve);
        enc->boolean(job.arrived);
        enc->u8(static_cast<std::uint8_t>(job.state));
        enc->f64(job.executed);
        enc->f64(job.last_update);
        enc->f64(job.progress_resume);
        enc->f64(job.attained_gpu_seconds);
        enc->i64(job.gpus);
        enc->f64(job.current_tpt);
        enc->f64(job.noise_factor);
        enc->f64(job.checkpoint_iters);
        enc->f64(job.straggler_factor);
        enc->f64(job.straggler_until);
        enc->boolean(job.outcome.admitted);
        enc->boolean(job.outcome.finished);
        enc->f64(job.outcome.finish_time);
        enc->f64(job.outcome.first_run_time);
        enc->f64(job.outcome.gpu_seconds);
        enc->i64(job.outcome.scaling_events);
        enc->i64(job.outcome.migrations);
        enc->i64(job.outcome.failures_suffered);
        enc->boolean(job.outcome.demoted);
    }
    // Concrete placement and hardware health.
    const GpuCount total = topology_.total_gpus();
    enc->u64(static_cast<std::uint64_t>(total));
    for (GpuCount gpu = 0; gpu < total; ++gpu) {
        enc->i64(placement_.owner_of(gpu));
        enc->boolean(!placement_.gpu_available(gpu));
    }
    enc->u64(static_cast<std::uint64_t>(topology_.num_servers()));
    for (int server = 0; server < topology_.num_servers(); ++server)
        enc->boolean(!placement_.server_available(server));
    // Service mode.
    if (service_governor_ != nullptr) {
        enc->boolean(true);
        enc->f64(service_governor_->tokens_raw());
        enc->f64(service_governor_->last_refill());
    } else {
        enc->boolean(false);
    }
    enc->u64(service_queue_.size());
    for (JobId id : service_queue_)
        enc->i64(id);
    // Fault-injector RNG cursors and armed scripted events.
    if (fault_ != nullptr) {
        enc->boolean(true);
        serve::encode_fault_state(enc, fault_->capture_state());
    } else {
        enc->boolean(false);
    }
    // Background defrag: SA stream, governor bucket, budget ledger,
    // accepted-move log.
    if (defrag_ != nullptr) {
        enc->boolean(true);
        defrag_->encode_state(enc);
    } else {
        enc->boolean(false);
    }
    // Scheduler-internal cross-round state (policy-owned blob).
    std::string blob;
    scheduler_->encode_recovery_state(&blob);
    enc->str(blob);
    // Result counters and timelines accumulated so far.
    enc->u64(result_.allocation_log.size());
    for (const AllocationEvent &ev : result_.allocation_log) {
        enc->f64(ev.time);
        enc->i64(ev.job);
        enc->u64(ev.gpus.size());
        for (GpuCount g : ev.gpus)
            enc->i64(g);
    }
    serve::encode_step_series(enc, result_.used_gpus);
    serve::encode_step_series(enc, result_.cluster_efficiency);
    serve::encode_step_series(enc, result_.submitted_jobs);
    serve::encode_step_series(enc, result_.admitted_jobs);
    serve::encode_step_series(enc, result_.buddy_fragmentation);
    serve::encode_step_series(enc, result_.span_excess);
    enc->f64(result_.makespan);
    enc->i64(result_.placement_failures);
    enc->i64(result_.replans_attempted);
    enc->i64(result_.replans_coalesced);
    enc->i64(result_.replans_elided);
    enc->i64(result_.rpc_retries);
    enc->i64(result_.rpc_gave_up);
    enc->i64(result_.stragglers_observed);
    enc->i64(result_.gpu_faults);
    enc->i64(result_.ckpt_failures);
    enc->i64(result_.slo_demotions);
    enc->i64(result_.shed_queue_full);
    enc->i64(result_.service_rounds);
    enc->i64(result_.service_rounds_forced);
    enc->i64(result_.service_degraded);
    enc->u64(result_.max_service_queue_depth);
    enc->i64(result_.defrag_rounds);
    enc->i64(result_.defrag_moves);
    enc->f64(result_.defrag_budget_spent);
    enc->u64(result_.state_hash);
    enc->u64(result_.state_hash_samples);
}

recover::Status
Simulator::decode_state(recover::Decoder *dec)
{
    using recover::ErrorCode;
    using recover::Status;
    const Status corrupt = Status::error(
        ErrorCode::kBadRecord, "snapshot payload is malformed");

    std::uint64_t fingerprint = 0;
    if (!dec->u64(&fingerprint))
        return corrupt;
    if (fingerprint != config_fingerprint()) {
        return Status::error(
            ErrorCode::kStateMismatch,
            "snapshot was taken with a different trace, scheduler, or "
            "configuration");
    }
    dec->f64(&now_);
    dec->u64(&next_seq_);
    dec->u64(&fault_epoch_);
    dec->boolean(&tick_armed_);
    dec->boolean(&replan_pending_);
    dec->boolean(&view_dirty_);
    dec->f64(&last_decision_time_);
    dec->u64(&sched_crash_cursor_);
    std::uint64_t n = 0;
    if (!dec->count(&n, 42))  // event wire size: 8*5 + 1 + 1
        return corrupt;
    events_ = decltype(events_)(event_after);
    for (std::uint64_t i = 0; i < n; ++i) {
        Event e;
        std::uint8_t kind = 0;
        std::int64_t job = 0;
        dec->f64(&e.time);
        dec->u64(&e.seq);
        dec->u8(&kind);
        dec->i64(&job);
        dec->f64(&e.dur);
        dec->f64(&e.mag);
        dec->boolean(&e.from_script);
        if (!dec->ok() || kind > Event::kStragglerEnd)
            return corrupt;
        e.kind = static_cast<Event::Kind>(kind);
        e.job = static_cast<JobId>(job);
        events_.push(e);
    }
    if (!dec->count(&n, 64) || n != jobs_.size())
        return corrupt;
    for (JobRt &job : jobs_) {
        JobSpec spec;
        if (!serve::decode_job_spec(dec, &spec) || spec.id != job.spec.id)
            return corrupt;
        ScalingCurve curve;
        if (!serve::decode_curve(dec, &curve) || curve.empty())
            return corrupt;
        std::uint8_t state = 0;
        dec->boolean(&job.arrived);
        dec->u8(&state);
        dec->f64(&job.executed);
        dec->f64(&job.last_update);
        dec->f64(&job.progress_resume);
        dec->f64(&job.attained_gpu_seconds);
        std::int64_t gpus = 0;
        dec->i64(&gpus);
        dec->f64(&job.current_tpt);
        dec->f64(&job.noise_factor);
        dec->f64(&job.checkpoint_iters);
        dec->f64(&job.straggler_factor);
        dec->f64(&job.straggler_until);
        dec->boolean(&job.outcome.admitted);
        dec->boolean(&job.outcome.finished);
        dec->f64(&job.outcome.finish_time);
        dec->f64(&job.outcome.first_run_time);
        dec->f64(&job.outcome.gpu_seconds);
        std::int64_t scaling_events = 0, migrations = 0, failures = 0;
        dec->i64(&scaling_events);
        dec->i64(&migrations);
        dec->i64(&failures);
        dec->boolean(&job.outcome.demoted);
        if (!dec->ok() ||
            state > static_cast<std::uint8_t>(JobState::kFinished))
            return corrupt;
        job.spec = spec;
        job.curve = curve;
        job.outcome.spec = spec;
        job.state = static_cast<JobState>(state);
        job.gpus = static_cast<GpuCount>(gpus);
        job.outcome.scaling_events = static_cast<int>(scaling_events);
        job.outcome.migrations = static_cast<int>(migrations);
        job.outcome.failures_suffered = static_cast<int>(failures);
    }
    const GpuCount total = topology_.total_gpus();
    if (!dec->count(&n, 9) ||
        n != static_cast<std::uint64_t>(total))
        return corrupt;
    std::vector<JobId> owner(static_cast<std::size_t>(total));
    std::vector<bool> gpu_down(static_cast<std::size_t>(total));
    for (GpuCount gpu = 0; gpu < total; ++gpu) {
        std::int64_t job = 0;
        bool down = false;
        dec->i64(&job);
        dec->boolean(&down);
        owner[static_cast<std::size_t>(gpu)] =
            static_cast<JobId>(job);
        gpu_down[static_cast<std::size_t>(gpu)] = down;
    }
    if (!dec->count(&n, 1) ||
        n != static_cast<std::uint64_t>(topology_.num_servers()))
        return corrupt;
    std::vector<bool> server_down(
        static_cast<std::size_t>(topology_.num_servers()));
    for (std::uint64_t i = 0; i < n; ++i) {
        bool down = false;
        dec->boolean(&down);
        server_down[static_cast<std::size_t>(i)] = down;
    }
    for (JobId id : owner) {
        if (id != kInvalidJob && index_of(id) == jobs_.size())
            return corrupt;
    }
    if (!dec->ok())
        return corrupt;
    placement_.restore(owner, gpu_down, server_down);
    bool has_governor = false;
    if (!dec->boolean(&has_governor) ||
        has_governor != (service_governor_ != nullptr))
        return Status::error(ErrorCode::kStateMismatch,
                             "snapshot service mode differs from the "
                             "running configuration");
    if (has_governor) {
        double tokens = 0.0;
        Time last_refill = 0.0;
        dec->f64(&tokens);
        dec->f64(&last_refill);
        if (!dec->ok())
            return corrupt;
        service_governor_->restore(tokens, last_refill);
    }
    if (!dec->count(&n, 8))
        return corrupt;
    service_queue_.clear();
    for (std::uint64_t i = 0; i < n; ++i) {
        std::int64_t id = 0;
        if (!dec->i64(&id) ||
            index_of(static_cast<JobId>(id)) == jobs_.size())
            return corrupt;
        service_queue_.push_back(static_cast<JobId>(id));
    }
    bool has_faults = false;
    if (!dec->boolean(&has_faults) ||
        has_faults != (fault_ != nullptr))
        return Status::error(ErrorCode::kStateMismatch,
                             "snapshot fault injection differs from "
                             "the running configuration");
    if (has_faults) {
        FaultInjector::State state;
        if (!serve::decode_fault_state(dec, &state) ||
            state.streams.size() != 6)
            return corrupt;
        fault_->restore_state(state);
    }
    bool has_defrag = false;
    if (!dec->boolean(&has_defrag) ||
        has_defrag != (defrag_ != nullptr))
        return Status::error(ErrorCode::kStateMismatch,
                             "snapshot defrag mode differs from the "
                             "running configuration");
    if (has_defrag && !defrag_->decode_state(dec))
        return corrupt;
    std::string blob;
    if (!dec->str(&blob))
        return corrupt;
    if (!scheduler_->decode_recovery_state(blob)) {
        return Status::error(ErrorCode::kStateMismatch,
                             "scheduler rejected its recovery state");
    }
    if (!dec->count(&n, 24))
        return corrupt;
    result_.allocation_log.clear();
    result_.allocation_log.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) {
        AllocationEvent ev;
        std::int64_t job = 0;
        dec->f64(&ev.time);
        dec->i64(&job);
        ev.job = static_cast<JobId>(job);
        std::uint64_t m = 0;
        if (!dec->count(&m, 8))
            return corrupt;
        ev.gpus.resize(static_cast<std::size_t>(m));
        for (GpuCount &g : ev.gpus) {
            std::int64_t raw = 0;
            dec->i64(&raw);
            g = static_cast<GpuCount>(raw);
        }
        if (!dec->ok())
            return corrupt;
        result_.allocation_log.push_back(std::move(ev));
    }
    if (!serve::decode_step_series(dec, &result_.used_gpus) ||
        !serve::decode_step_series(dec, &result_.cluster_efficiency) ||
        !serve::decode_step_series(dec, &result_.submitted_jobs) ||
        !serve::decode_step_series(dec, &result_.admitted_jobs) ||
        !serve::decode_step_series(dec, &result_.buddy_fragmentation) ||
        !serve::decode_step_series(dec, &result_.span_excess))
        return corrupt;
    dec->f64(&result_.makespan);
    std::int64_t counters[14] = {};
    for (std::int64_t &c : counters)
        dec->i64(&c);
    std::uint64_t max_depth = 0;
    dec->u64(&max_depth);
    std::int64_t defrag_rounds = 0, defrag_moves = 0;
    double defrag_budget_spent = 0.0;
    dec->i64(&defrag_rounds);
    dec->i64(&defrag_moves);
    dec->f64(&defrag_budget_spent);
    dec->u64(&result_.state_hash);
    dec->u64(&result_.state_hash_samples);
    if (!dec->ok() || !dec->empty())
        return corrupt;
    result_.defrag_rounds = static_cast<int>(defrag_rounds);
    result_.defrag_moves = static_cast<int>(defrag_moves);
    result_.defrag_budget_spent = defrag_budget_spent;
    result_.placement_failures = static_cast<int>(counters[0]);
    result_.replans_attempted = static_cast<int>(counters[1]);
    result_.replans_coalesced = static_cast<int>(counters[2]);
    result_.replans_elided = static_cast<int>(counters[3]);
    result_.rpc_retries = static_cast<int>(counters[4]);
    result_.rpc_gave_up = static_cast<int>(counters[5]);
    result_.stragglers_observed = static_cast<int>(counters[6]);
    result_.gpu_faults = static_cast<int>(counters[7]);
    result_.ckpt_failures = static_cast<int>(counters[8]);
    result_.slo_demotions = static_cast<int>(counters[9]);
    result_.shed_queue_full = static_cast<int>(counters[10]);
    result_.service_rounds = static_cast<int>(counters[11]);
    result_.service_rounds_forced = static_cast<int>(counters[12]);
    result_.service_degraded = static_cast<int>(counters[13]);
    result_.max_service_queue_depth =
        static_cast<std::size_t>(max_depth);
    rebuild_live_state();
    return Status{};
}

void
Simulator::finish_recovery()
{
    const recover::Status st = durable_.end_replay(now_);
    EF_FATAL_IF(!st.ok(), "durability: reopening the journal failed: "
                              << st.to_string());
}

void
Simulator::commit_round(bool terminal)
{
    const std::uint64_t round = result_.state_hash_samples;
    // Crash decision BEFORE the commit record: the persisted cursor
    // must already exclude a crash that fires at this round, or
    // recovery would re-fire it forever.
    bool will_crash = false;
    if (durable_.writing() && fault_ != nullptr) {
        const std::vector<FaultEvent> &script =
            fault_->sched_crash_events();
        if (sched_crash_cursor_ < script.size()) {
            const FaultEvent &ev = script[sched_crash_cursor_];
            if (now_ >= ev.time &&
                (ev.target < 0 ||
                 round >= static_cast<std::uint64_t>(ev.target))) {
                ++sched_crash_cursor_;
                will_crash = true;
                obs::count("fault.sched_crashes");
            }
        }
        if (fault_->sched_crash_fires())
            will_crash = true;
    }

    recover::Encoder tail;
    tail.u64(sched_crash_cursor_);
    tail.boolean(terminal);
    // A cadence snapshot is drained at the top of the event loop: this
    // commit fires from inside flush_replan, before arm_tick() re-arms
    // the tick, a state the uninterrupted run never passes through.
    const recover::DurableRun::Commit *replayed =
        durable_.commit(round, now_, result_.state_hash, tail,
                        /*cadence=*/!terminal && !will_crash);
    if (replayed != nullptr) {
        // Re-executed a journaled round: its commit carries the crash
        // cursor as of that round.
        recover::Decoder journaled(replayed->tail);
        journaled.u64(&sched_crash_cursor_);
        if (durable_.unverified_commits() == 0)
            finish_recovery();
        return;
    }
    if (will_crash) {
        crashed_ = true;
        EF_INFO("scheduler crash injected at round "
                << round << " (t=" << format_double(now_, 3) << " s)");
    }
}

recover::Status
Simulator::prepare_durability()
{
    if (durable_.bound())
        return recover::Status{};
    const DurabilityConfig &cfg = config_.durability;
    EF_CHECK_MSG(!cfg.journal_dir.empty(),
                 "prepare_durability needs a journal_dir");
    EF_FATAL_IF(cfg.snapshot_every < 1,
                "durability.snapshot_every must be >= 1");
    if (!cfg.recover)
        return durable_.open(cfg.journal_dir, cfg.snapshot_every);
    // Re-execution regenerates every delta record's effect from the
    // snapshot, so only the round commits are verified.
    recover::Status st = durable_.recover(
        cfg.journal_dir, cfg.snapshot_every,
        [this](recover::Decoder *dec, recover::DurableRun::Resume *at) {
            const recover::Status decoded = decode_state(dec);
            at->round = result_.state_hash_samples;
            at->clock = now_;
            return decoded;
        },
        /*contents=*/nullptr,
        [](recover::Decoder *tail) {
            std::uint64_t crash_cursor = 0;
            bool terminal = false;
            tail->u64(&crash_cursor);
            tail->boolean(&terminal);
        });
    if (st.ok() && durable_.unverified_commits() == 0)
        finish_recovery();  // nothing to re-execute; resume directly
    return st;
}

void
Simulator::request_replan()
{
    ++result_.replans_attempted;
    if (replan_pending_) {
        ++result_.replans_coalesced;
        obs::count("sim.replans.coalesced");
        return;
    }
    replan_pending_ = true;
    if (!config_.coalesce_replans)
        flush_replan();
}

void
Simulator::flush_replan()
{
    EF_CHECK(replan_pending_);
    replan_pending_ = false;
    const Time since_last = now_ - last_decision_time_;
    if (config_.elide_replans && !view_dirty_ &&
        now_ == last_decision_time_) {
        // No arrival/completion/failure touched scheduler-visible
        // state since a decision was already made at this very
        // timestamp (the request came from a colliding tick). A
        // deterministic policy would return the same decision, and
        // re-applying a decision is a no-op — skip the call.
        ++result_.replans_elided;
        if (obs::tracing()) {
            obs::emit({now_, obs::EventKind::kReplanBegin, kInvalidJob,
                       static_cast<std::int64_t>(live_.size())});
            obs::emit({now_, obs::EventKind::kReplanEnd, kInvalidJob,
                       /*executed=*/0, /*resizes=*/0});
        }
        obs::count("sim.replans.elided");
        audit_state();
        arm_tick();
        return;
    }
    if (obs::tracing()) {
        obs::emit({now_, obs::EventKind::kReplanBegin, kInvalidJob,
                   static_cast<std::int64_t>(live_.size())});
    }
    const std::size_t log_before = result_.allocation_log.size();
    SchedulerDecision decision = scheduler_->allocate();
    view_dirty_ = false;
    last_decision_time_ = now_;
    if (durable_.writing()) {
        recover::Encoder body;
        body.f64(now_);
        body.u64(decision.gpus.size());
        for (const auto &[id, g] : decision.gpus) {
            body.i64(id);
            body.i64(g);
        }
        durable_.append(recover::RecordKind::kPlanCommit, body);
    }
    apply_decision(decision);
    const std::size_t resizes =
        result_.allocation_log.size() - log_before;
    if (obs::tracing()) {
        obs::emit({now_, obs::EventKind::kReplanEnd, kInvalidJob,
                   /*executed=*/1,
                   static_cast<std::int64_t>(resizes)});
    }
    if (obs::metrics() != nullptr) {
        obs::count("sim.replans.executed");
        obs::observe("sim.replan_resizes", kResizeEdges,
                     static_cast<double>(resizes));
        if (since_last >= 0.0 && !is_unbounded(since_last)) {
            obs::observe("sim.replan_interval_s", kReplanIntervalEdges,
                         since_last);
        }
        std::int64_t waiting = 0;
        obs::count("sim.jobs_touched", live_.size());
        for (std::size_t index : live_) {
            if (jobs_[index].state == JobState::kWaiting)
                ++waiting;
        }
        obs::observe("sim.queue_depth", kQueueDepthEdges,
                     static_cast<double>(waiting));
        obs::gauge_set("sim.queue_depth_last",
                       static_cast<double>(waiting));
        // Fragmentation: share of idle capacity outside the largest
        // contiguous per-server free block — high values mean a
        // compact placement cannot be found without migrations.
        GpuCount idle = placement_.idle_gpus();
        GpuCount largest_free = 0;
        for (int server = 0; server < topology_.num_servers();
             ++server) {
            largest_free = std::max(largest_free,
                                    placement_.free_in_server(server));
        }
        double fragmentation =
            idle > 0 ? 1.0 - static_cast<double>(largest_free) /
                                 static_cast<double>(idle)
                     : 0.0;
        obs::observe("sim.fragmentation", kFragmentationEdges,
                     fragmentation);
        obs::gauge_set("sim.fragmentation_last", fragmentation);
    }
    // Failure-aware policies report SLO jobs whose guarantee a fault
    // broke; each is demoted to best-effort exactly once.
    for (JobId id : scheduler_->take_demotions()) {
        JobRt &job = rt(id);
        if (job.outcome.demoted)
            continue;
        job.outcome.demoted = true;
        ++result_.slo_demotions;
        obs::emit({now_, obs::EventKind::kJobDemote, id});
        obs::count("sim.demotions");
        EF_INFO("job " << id << " demoted to best-effort at "
                       << format_double(now_ / kHour, 2) << " h");
    }
    // Background defrag runs after the decision is applied, so the
    // round hash (audit_state below) covers any committed moves and a
    // journal replay re-executes them deterministically.
    maybe_defrag();
    record_timelines();
    audit_state();
    arm_tick();
}

void
Simulator::maybe_defrag()
{
    if (defrag_ == nullptr || !defrag_->try_begin_round(now_))
        return;
    // Eligible movers: running jobs currently holding GPUs, ascending
    // by id as the planner requires.
    std::vector<defrag::DefragJob> eligible;
    for (std::size_t index : live_by_id()) {
        const JobRt &job = jobs_[index];
        if (job.state != JobState::kRunning || job.gpus <= 0 ||
            !placement_.is_placed(job.spec.id))
            continue;
        defrag::DefragJob dj;
        dj.id = job.spec.id;
        dj.model = job.spec.model;
        dj.global_batch = job.spec.global_batch;
        eligible.push_back(dj);
    }
    ++result_.defrag_rounds;
    const defrag::DefragPlan plan =
        defrag_->plan_round(placement_, eligible);
    if (!plan.moves.empty()) {
        // Audit trail: the accepted batch, journaled before it takes
        // effect (replay regenerates it by re-running the SA round).
        if (durable_.writing()) {
            recover::Encoder body;
            body.f64(now_);
            body.u64(plan.moves.size());
            for (const Migration &m : plan.moves) {
                body.i64(m.job);
                body.u64(m.to.size());
                for (GpuCount g : m.to)
                    body.i64(g);
            }
            durable_.append(recover::RecordKind::kDefrag, body);
        }
        placement_.apply_moves(plan.moves);
        for (const Migration &m : plan.moves) {
            JobRt &moved = rt(m.job);
            ++moved.outcome.migrations;
            charge_pause(moved, overhead_.migration_seconds(
                                    moved.spec.model, moved.gpus));
            if (moved.state == JobState::kRunning)
                refresh_throughput(moved);
            result_.allocation_log.push_back(
                AllocationEvent{now_, m.job, m.to});
            if (obs::tracing()) {
                obs::TraceEvent alloc{now_,
                                      obs::EventKind::kAllocChange,
                                      m.job, moved.gpus};
                alloc.ids = trace_ids(m.to);
                obs::emit(alloc);
                obs::TraceEvent mig{now_, obs::EventKind::kMigration,
                                    m.job, moved.gpus};
                mig.ids = trace_ids(m.to);
                obs::emit(mig);
            }
            obs::count("sim.migrations");
        }
        result_.defrag_moves += static_cast<int>(plan.moves.size());
        result_.defrag_budget_spent += plan.cost_units;
    }
    if (obs::tracing()) {
        obs::TraceEvent round{now_, obs::EventKind::kDefragRound,
                              kInvalidJob,
                              static_cast<std::int64_t>(
                                  plan.moves.size()),
                              static_cast<std::int64_t>(plan.steps)};
        round.x = plan.objective_before - plan.objective_after;
        obs::emit(round);
    }
    if (obs::metrics() != nullptr) {
        obs::count("sim.defrag.rounds");
        obs::gauge_set("sim.defrag.budget_spent_total",
                       defrag_->budget_spent_units());
        obs::gauge_set("sim.defrag.moves_total",
                       static_cast<double>(defrag_->moves_committed()));
    }
}

void
Simulator::record_fragmentation()
{
    const FragmentationStats stats = fragmentation_stats(placement_);
    result_.buddy_fragmentation.record(now_,
                                       stats.buddy_external_frag);
    result_.span_excess.record(
        now_, static_cast<double>(stats.total_span_excess));
    if (obs::metrics() != nullptr) {
        obs::gauge_set("sim.buddy_fragmentation_last",
                       stats.buddy_external_frag);
        obs::observe("sim.buddy_fragmentation", kFragmentationEdges,
                     stats.buddy_external_frag);
        obs::gauge_set("sim.span_excess_last",
                       static_cast<double>(stats.total_span_excess));
        obs::observe("sim.span_excess", kSpanExcessEdges,
                     static_cast<double>(stats.total_span_excess));
    }
}

void
Simulator::apply_admission(JobId id, bool admitted)
{
    if (durable_.writing()) {
        recover::Encoder body;
        body.i64(id);
        body.f64(now_);
        body.boolean(admitted);
        durable_.append(recover::RecordKind::kVerdict, body);
    }
    JobRt &job = rt(id);
    job.arrived = true;
    // Progress is only advanced for live jobs; until now this one had
    // nothing to account.
    job.last_update = now_;
    job.outcome.admitted = admitted;
    ++arrived_;
    if (!admitted) {
        job.state = JobState::kDropped;
        retired_sum_ += job_digest(job);
        obs::emit({now_, obs::EventKind::kJobReject, id});
        obs::count("sim.jobs.rejected");
        EF_DEBUG("job " << id << " dropped at submission");
    } else {
        job.state = JobState::kWaiting;
        ++accepted_;
        const std::size_t index = index_of(id);
        live_.insert(std::upper_bound(live_.begin(), live_.end(), index),
                     index);
        obs::emit({now_, obs::EventKind::kJobAdmit, id});
        obs::count("sim.jobs.admitted");
    }
    result_.submitted_jobs.record(now_, static_cast<double>(arrived_));
    result_.admitted_jobs.record(now_, static_cast<double>(accepted_));
}

void
Simulator::handle_arrival(JobId id)
{
    if (durable_.writing()) {
        recover::Encoder body;
        body.i64(id);
        body.f64(now_);
        durable_.append(recover::RecordKind::kSubmission, body);
    }
    if (config_.service.enabled) {
        handle_service_arrival(id);
        return;
    }
    JobRt &job = rt(id);
    obs::emit({now_, obs::EventKind::kJobSubmit, id,
               job.spec.requested_gpus});
    obs::count("sim.jobs.submitted");
    bool ok = scheduler_->admit(job.spec);
    apply_admission(id, ok);
    if (ok) {
        view_dirty_ = true;  // the active-job set grew
        request_replan();
    }
}

void
Simulator::handle_service_arrival(JobId id)
{
    JobRt &job = rt(id);
    obs::emit({now_, obs::EventKind::kJobSubmit, id,
               job.spec.requested_gpus});
    obs::count("sim.jobs.submitted");
    if (service_queue_.size() >= config_.service.queue_watermark) {
        // Backpressure: the queue is at its watermark, so the verdict
        // is synchronous — no scheduler involvement, O(1) per arrival.
        ++result_.shed_queue_full;
        obs::count("sim.service.shed_queue_full");
        obs::emit({now_, obs::EventKind::kServeShed, id,
                   static_cast<std::int64_t>(
                       serve::ShedVerdict::kShedQueueFull),
                   static_cast<std::int64_t>(service_queue_.size())});
        obs::observe("sim.service.decision_latency_s",
                     kDecisionLatencyEdges, 0.0);
        apply_admission(id, false);
        return;
    }
    service_queue_.push_back(id);
    result_.max_service_queue_depth = std::max(
        result_.max_service_queue_depth, service_queue_.size());
    obs::gauge_set("sim.service.queue_depth",
                   static_cast<double>(service_queue_.size()));
    if (service_queue_.size() == 1)
        arm_service_round();
}

void
Simulator::arm_service_round()
{
    if (service_queue_.empty())
        return;
    // The round runs when the governor has a token — or at the oldest
    // submission's starvation horizon, whichever comes first.
    const Time horizon_due =
        rt(service_queue_.front()).spec.submit_time +
        config_.service.governor.starvation_horizon_s;
    const Time due = std::max(
        now_, std::min(service_governor_->next_eligible(now_),
                       horizon_due));
    events_.push(Event{due, next_seq_++, Event::kServiceRound});
}

void
Simulator::handle_service_round()
{
    if (service_queue_.empty())
        return;  // stale event (an earlier round drained the queue)
    const bool token = service_governor_->try_acquire(now_);
    ++result_.service_rounds;
    if (!token)
        ++result_.service_rounds_forced;
    const std::size_t batch = service_queue_.size();
    bool any_admitted = false;
    while (!service_queue_.empty()) {
        const JobId id = service_queue_.front();
        service_queue_.pop_front();
        JobRt &job = rt(id);
        bool ok = scheduler_->admit(job.spec);
        if (!ok && config_.service.degrade_infeasible &&
            !job.spec.is_best_effort()) {
            // Deadline-infeasible at current load: keep the work,
            // drop the guarantee. Best-effort admission never fails.
            job.spec.kind = JobKind::kBestEffort;
            job.spec.deadline = kTimeInfinity;
            job.outcome.spec = job.spec;
            ++result_.service_degraded;
            obs::count("sim.service.degraded");
            ok = scheduler_->admit(job.spec);
            EF_CHECK(ok);
        }
        obs::observe("sim.service.decision_latency_s",
                     kDecisionLatencyEdges,
                     now_ - job.spec.submit_time);
        if (!ok) {
            obs::emit({now_, obs::EventKind::kServeShed, id,
                       static_cast<std::int64_t>(
                           serve::ShedVerdict::kShedInfeasible),
                       static_cast<std::int64_t>(batch)});
        }
        apply_admission(id, ok);
        any_admitted = any_admitted || ok;
    }
    obs::count("sim.service.rounds");
    obs::gauge_set("sim.service.queue_depth", 0.0);
    obs::emit({now_, obs::EventKind::kServeRound, kInvalidJob,
               static_cast<std::int64_t>(batch), token ? 0 : 1});
    if (any_admitted) {
        // One replan for the whole batch: the coalescing machinery
        // sees a single request no matter how many jobs were queued.
        view_dirty_ = true;
        request_replan();
    }
}

void
Simulator::handle_completion_check(JobId id)
{
    JobRt &job = rt(id);
    if (job.state != JobState::kRunning)
        return;  // stale event
    if (job.remaining() > kIterEpsilon)
        return;  // stale event: the job was slowed after scheduling

    const GpuCount held = job.gpus;
    job.executed = static_cast<double>(job.spec.iterations);
    job.state = JobState::kFinished;
    job.outcome.finished = true;
    job.outcome.finish_time = now_;
    placement_.release(id);
    job.gpus = 0;
    job.current_tpt = 0.0;
    live_.erase(std::lower_bound(live_.begin(), live_.end(), index_of(id)));
    retired_sum_ += job_digest(job);
    if (obs::tracing()) {
        obs::emit({now_, obs::EventKind::kAllocChange, id, held});
        obs::emit({now_, obs::EventKind::kJobFinish, id, held});
    }
    obs::count("sim.jobs.finished");
    view_dirty_ = true;  // the active-job set shrank, GPUs freed
    request_replan();
}

void
Simulator::handle_tick()
{
    // A tick by itself changes nothing the scheduler observes; the
    // replan it requests is elidable if it lands on a timestamp where
    // a decision was already made (view_dirty_ stays false).
    tick_armed_ = false;
    if (any_nonterminal_jobs())
        request_replan();
}

bool
Simulator::work_pending() const
{
    return arrived_ < jobs_.size() || !live_.empty();
}

RunResult
Simulator::run()
{
    const bool durable = !config_.durability.journal_dir.empty();
    if (durable) {
        recover::Status st = prepare_durability();
        EF_FATAL_IF(!st.ok(), "durability: " << st.to_string());
    }
    // A recovered run takes its event queue and fault streams from the
    // snapshot; a fresh one seeds them here, and its base snapshot is
    // drained at the top of the event loop below.
    if (!durable || !config_.durability.recover) {
        if (fault_ != nullptr) {
            if (fault_->server_crashes_enabled()) {
                for (int server = 0;
                     server < topology_.num_servers(); ++server) {
                    schedule_next_failure(server);
                }
            }
            schedule_next_gpu_fault();
            queue_scripted_faults();
        }
    }

    while (true) {
        // Coalescing: a pending replan is flushed only once every
        // event at the current timestamp has been handled (flushing
        // may enqueue new events, so re-read the top afterwards).
        if (replan_pending_ &&
            (events_.empty() || events_.top().time > now_)) {
            flush_replan();
            if (crashed_)
                break;  // injected scheduler crash at a round commit
        }
        // Base, cadence or post-recovery snapshot, taken at a clean
        // inter-event boundary so the captured state matches what the
        // uninterrupted run holds at this point.
        const recover::Status st = durable_.snapshot_if_due();
        EF_FATAL_IF(!st.ok(),
                    "durability: snapshot failed: " << st.to_string());
        if (events_.empty())
            break;
        Event event = events_.top();
        events_.pop();
        if ((event.kind == Event::kServerDown ||
             event.kind == Event::kServerUp ||
             event.kind == Event::kGpuDown ||
             event.kind == Event::kGpuUp ||
             event.kind == Event::kStragglerStart ||
             event.kind == Event::kStragglerEnd) &&
            !work_pending()) {
            continue;  // drain the fault stream once all jobs ended
        }
        if (event.time > config_.max_time) {
            EF_WARN("simulation hit max_time with "
                    << (any_nonterminal_jobs() ? "unfinished" : "no")
                    << " jobs");
            break;
        }
        advance_progress(event.time);
        now_ = event.time;
        switch (event.kind) {
          case Event::kArrival:
            handle_arrival(event.job);
            break;
          case Event::kCompletion:
            handle_completion_check(event.job);
            break;
          case Event::kTick:
            handle_tick();
            break;
          case Event::kServerDown:
            handle_server_down(event);
            break;
          case Event::kServerUp:
            handle_server_up(static_cast<int>(event.job));
            break;
          case Event::kGpuDown:
            handle_gpu_down(event);
            break;
          case Event::kGpuUp:
            handle_gpu_up(static_cast<GpuCount>(event.job));
            break;
          case Event::kStragglerStart:
            handle_straggler_start(event);
            break;
          case Event::kStragglerEnd:
            handle_straggler_end(event.job);
            break;
          case Event::kServiceRound:
            handle_service_round();
            break;
        }
    }

    result_.jobs.clear();
    for (JobRt &job : jobs_) {
        job.outcome.gpu_seconds = job.attained_gpu_seconds;
        result_.jobs.push_back(job.outcome);
        if (job.outcome.finished) {
            result_.makespan =
                std::max(result_.makespan, job.outcome.finish_time);
        }
    }
    result_.replan_failures = scheduler_->replan_failures();
    // Final digest over the terminal state. An injected crash dies at
    // its commit point instead — that commit is already durable, and
    // the recovered run takes the terminal sample itself.
    if (!crashed_)
        audit_state(/*terminal=*/true);
    if (!crashed_) {
        // Replay exhausted at the terminal round: the end of the run
        // is itself a clean boundary, so the deferred post-recovery
        // snapshot lands here.
        recover::Status st = durable_.snapshot_if_due();
        EF_FATAL_IF(!st.ok(), "durability: terminal snapshot failed: "
                                  << st.to_string());
    }
    EF_FATAL_IF(!crashed_ && durable_.replaying(),
                "recovery divergence: journal holds "
                    << durable_.unverified_commits()
                    << " round commits the re-execution never "
                       "reached");
    return result_;
}

}  // namespace ef
