#include "serve/service.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/math_util.h"
#include "core/allocator.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "recover/codec.h"
#include "sched/planning_util.h"
#include "serve/state_codec.h"

namespace ef {
namespace serve {
namespace {

/** Decision-latency histogram edges (seconds). Queue-full sheds are
 *  decided synchronously (latency 0); queued verdicts wait up to the
 *  starvation horizon, so the edges are dense in that range. */
const std::vector<double> &
latency_edges()
{
    static const std::vector<double> kEdges = {
        0.001, 0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0,
        20.0,  30.0, 60.0, 120.0, 300.0};
    return kEdges;
}

const char *
verdict_counter(ShedVerdict verdict)
{
    switch (verdict) {
      case ShedVerdict::kAdmitted:
        return "serve.verdict.admitted";
      case ShedVerdict::kAdmittedBestEffort:
        return "serve.verdict.admitted_best_effort";
      case ShedVerdict::kDegraded:
        return "serve.verdict.degraded";
      case ShedVerdict::kShedQueueFull:
        return "serve.verdict.shed_queue_full";
      case ShedVerdict::kShedInfeasible:
        return "serve.verdict.shed_infeasible";
    }
    return "serve.verdict.unknown";
}

}  // namespace

Service::Service(ServiceConfig config, FaultInjector *faults)
    : config_(config),
      faults_(faults),
      governor_(config.governor),
      durable_([this](recover::Encoder *enc) { encode_state(enc); })
{
    EF_FATAL_IF(config_.total_gpus <= 0, "service needs total_gpus > 0");
    EF_FATAL_IF(config_.slot_seconds <= 0.0,
                "service needs slot_seconds > 0");
    EF_FATAL_IF(config_.queue_watermark < 1,
                "service needs queue_watermark >= 1");
    planner_.total_gpus = config_.total_gpus;
    planner_.slot_seconds = config_.slot_seconds;
    planner_.direction = config_.direction;
    planner_.max_slots = config_.max_slots;
}

void
Service::submit(Submission submission)
{
    EF_FATAL_IF(submission.spec.submit_time < now_,
                "service submissions must arrive in time order (got "
                    << submission.spec.submit_time << " at clock "
                    << now_ << ")");
    if (durable_.writing()) {
        // The submission is durable before any of its effects: a crash
        // after this point replays it; a crash before it never saw it.
        recover::Encoder body;
        encode_job_spec(&body, submission.spec);
        encode_curve(&body, submission.curve);
        durable_.append(recover::RecordKind::kSubmission, body,
                        /*sync=*/true);
    }
    advance_internal(submission.spec.submit_time);

    if (faults_ != nullptr) {
        const int forced = faults_->take_scripted_rpc_drops(
            submission.spec.id, now_);
        if (forced > 0 || faults_->rpc_attempt_lost()) {
            // The submission RPC never reached the service: no verdict,
            // no queue slot. A real client would retry; the stream
            // moves on (the drop is part of the deterministic record).
            ++stats_.rpc_dropped;
            obs::count("serve.rpc_dropped");
            maybe_snapshot();
            return;
        }
    }

    if (pending_.size() >= config_.queue_watermark) {
        // Synchronous backpressure: O(1), no planning work, decided at
        // submission time.
        decide(submission, now_, ShedVerdict::kShedQueueFull);
        maybe_snapshot();
        return;
    }
    pending_.push_back(std::move(submission));
    stats_.max_queue_depth =
        std::max(stats_.max_queue_depth, pending_.size());
    obs::gauge_set("serve.queue_depth",
                   static_cast<double>(pending_.size()));
    if (pending_.size() == 1)
        arm();
    maybe_snapshot();
}

void
Service::advance_to(Time t)
{
    if (durable_.writing()) {
        recover::Encoder body;
        body.f64(t);
        body.u8(0);  // external advance (1 = finish)
        durable_.append(recover::RecordKind::kAdvance, body);
    }
    advance_internal(t);
    maybe_snapshot();
}

void
Service::advance_internal(Time t)
{
    EF_FATAL_IF(t < now_, "service clock cannot go backwards (to "
                              << t << " from " << now_ << ")");
    while (!pending_.empty() && next_due_ <= t) {
        now_ = std::max(now_, next_due_);
        run_round(now_);
    }
    now_ = std::max(now_, t);
}

void
Service::finish()
{
    if (durable_.writing()) {
        recover::Encoder body;
        body.f64(now_);
        body.u8(1);
        durable_.append(recover::RecordKind::kAdvance, body);
    }
    // At most two rounds: the first may be abandoned by the watchdog,
    // the escalated retry always commits and drains the queue.
    if (!pending_.empty())
        run_round(now_);
    if (!pending_.empty())
        run_round(now_);
    EF_CHECK(pending_.empty());
    maybe_snapshot();
}

void
Service::arm()
{
    if (pending_.empty()) {
        next_due_ = kTimeInfinity;
        return;
    }
    // Token-funded round when the bucket allows it; otherwise forced
    // at the oldest submission's starvation horizon, whichever is
    // earlier.
    const Time horizon_due = pending_.front().spec.submit_time +
                             config_.governor.starvation_horizon_s;
    next_due_ = std::max(
        now_, std::min(governor_.next_eligible(now_), horizon_due));
}

void
Service::decide(const Submission &submission, Time at,
                ShedVerdict verdict)
{
    bool deliver = true;
    if (durable_.replaying()) {
        if (replay_verdict_next_ < replay_verdicts_.size()) {
            // This verdict reached the journal before the crash, so
            // the caller already observed it: verify the replay
            // reproduced it and suppress the callback (exactly-once).
            const ReplayVerdict &want =
                replay_verdicts_[replay_verdict_next_];
            EF_FATAL_IF(
                want.id != submission.spec.id ||
                    want.verdict != static_cast<std::uint8_t>(verdict),
                "recovery divergence: journaled verdict "
                    << replay_verdict_next_ << " was (job " << want.id
                    << ", " << static_cast<int>(want.verdict)
                    << ") but the replay produced (job "
                    << submission.spec.id << ", "
                    << static_cast<int>(verdict) << ")");
            ++replay_verdict_next_;
            deliver = false;
        }
        // Otherwise the crash hit between the submission record and
        // its verdict: the caller never saw one, deliver it now.
    } else if (durable_.writing()) {
        // Verdict is durable before the caller can observe it, so a
        // post-crash replay knows not to re-issue it.
        recover::Encoder body;
        body.i64(submission.spec.id);
        body.u8(static_cast<std::uint8_t>(verdict));
        body.f64(at);
        durable_.append(recover::RecordKind::kVerdict, body,
                        /*sync=*/true);
    }
    ++stats_.submitted;
    switch (verdict) {
      case ShedVerdict::kAdmitted:
        ++stats_.admitted;
        break;
      case ShedVerdict::kAdmittedBestEffort:
        ++stats_.admitted_best_effort;
        break;
      case ShedVerdict::kDegraded:
        ++stats_.degraded;
        break;
      case ShedVerdict::kShedQueueFull:
        ++stats_.shed_queue_full;
        break;
      case ShedVerdict::kShedInfeasible:
        ++stats_.shed_infeasible;
        break;
    }
    obs::count(verdict_counter(verdict));
    obs::observe("serve.decision_latency_s", latency_edges(),
                 at - submission.spec.submit_time);
    if (obs::tracing() && is_shed(verdict)) {
        obs::TraceEvent event;
        event.time = at;
        event.kind = obs::EventKind::kServeShed;
        event.job = submission.spec.id;
        event.a = static_cast<std::int64_t>(verdict);
        event.b = static_cast<std::int64_t>(pending_.size());
        obs::emit(event);
    }
    if (deliver && on_decision_) {
        on_decision_(Decision{submission.spec.id,
                              submission.spec.submit_time, at, verdict});
    }
}

void
Service::retire(Time t)
{
    const Time dt = t - last_round_;
    if (dt <= 0.0)
        return;
    auto sweep = [&](std::map<JobId, Active> &jobs) {
        std::vector<JobId> done;
        for (auto &[id, active] : jobs) {
            auto it = gpus_now_.find(id);
            const GpuCount gpus =
                it == gpus_now_.end() ? 0 : it->second;
            if (gpus <= 0)
                continue;  // suspended this interval
            const double tpt = active.curve.throughput(gpus);
            if (tpt <= 0.0)
                continue;
            const double progress = tpt * dt;
            if (progress + 1e-9 < active.remaining_iterations) {
                active.remaining_iterations -= progress;
                continue;
            }
            const Time finish =
                last_round_ + active.remaining_iterations / tpt;
            ++stats_.finished;
            obs::count("serve.finished");
            if (!is_unbounded(active.deadline) &&
                finish > active.deadline + 1e-6) {
                ++stats_.deadline_misses;
                obs::count("serve.deadline_misses");
            }
            done.push_back(id);
        }
        for (JobId id : done) {
            jobs.erase(id);
            gpus_now_.erase(id);
        }
    };
    sweep(slo_);
    sweep(best_effort_);
}

void
Service::run_round(Time t)
{
    // Fluid progress since the last committed round, then completion
    // retirement, happens before any replanning sees the job set.
    // last_round_ must advance immediately: a watchdog-abandoned
    // round retries at the same t, and the retry's retire(t) would
    // otherwise re-apply the same interval's progress.
    retire(t);
    last_round_ = t;

    const PlanningMargin margin{config_.admission_margin,
                                config_.overhead_allowance_s};
    std::vector<PlanningJob> slo;
    slo.reserve(slo_.size());
    for (const auto &[id, active] : slo_) {
        PlanningJob job;
        job.id = id;
        job.curve = active.curve;
        job.remaining_iterations =
            margin.inflate(active.remaining_iterations, active.curve);
        job.deadline = active.deadline;
        job.soft = active.soft;
        slo.push_back(std::move(job));
    }

    std::uint64_t cost = 0;
    MinShareRefresh refresh =
        refresh_min_shares(planner_, t, std::move(slo), &replan_failures_,
                           false, &cost);
    stats_.planning_cost += cost;
    if (config_.watchdog_budget > 0 && !escalated_ &&
        cost > config_.watchdog_budget) {
        // Watchdog: this refresh blew the planning budget. Abandon it,
        // keep the last committed plans and allocations, and retry
        // immediately with the budget lifted, draining the queue in
        // one batch. Cost units are deterministic, so the timeout
        // replays identically.
        ++stats_.replan_timeouts;
        obs::count("serve.replan_timeouts");
        if (obs::tracing()) {
            obs::TraceEvent event;
            event.time = t;
            event.kind = obs::EventKind::kServeTimeout;
            event.a = static_cast<std::int64_t>(cost);
            event.b =
                static_cast<std::int64_t>(config_.watchdog_budget);
            obs::emit(event);
        }
        escalated_ = true;
        next_due_ = t;
        return;
    }
    escalated_ = false;

    // Jobs the refresh had to park lose their guarantee but keep
    // their progress: they continue as best-effort.
    for (const PlanningJob &parked : refresh.parked) {
        auto it = slo_.find(parked.id);
        if (it == slo_.end())
            continue;
        Active moved = it->second;
        moved.deadline = kTimeInfinity;
        moved.soft = false;
        best_effort_.emplace(parked.id, std::move(moved));
        slo_.erase(it);
        ++stats_.demotions;
        obs::count("serve.demotions");
    }

    // Residual availability after the refreshed minimum shares; grown
    // lazily to whatever horizon a candidate needs.
    std::map<JobId, SlotPlan> shares = std::move(refresh.min_shares);
    std::vector<GpuCount> available;
    auto ensure_slots = [&](int horizon) {
        if (static_cast<int>(available.size()) < horizon) {
            available.resize(static_cast<std::size_t>(horizon),
                             config_.total_gpus);
        }
    };
    for (const auto &[id, plan] : shares) {
        ensure_slots(plan.horizon());
        for (int s = 0; s < plan.horizon(); ++s) {
            GpuCount &a = available[static_cast<std::size_t>(s)];
            a -= plan.at(s);
            EF_CHECK_MSG(a >= 0, "service over-reserved slot " << s);
        }
    }

    const bool token = governor_.try_acquire(t);
    const std::size_t batch = pending_.size();
    std::vector<PlanningJob> alloc_slo = std::move(refresh.slo);
    std::uint64_t drain_cost = 0;
    while (!pending_.empty()) {
        Submission sub = std::move(pending_.front());
        pending_.pop_front();
        const JobSpec &spec = sub.spec;
        if (spec.is_best_effort()) {
            if (best_effort_.size() >= config_.max_active_best_effort) {
                decide(sub, t, ShedVerdict::kShedQueueFull);
                continue;
            }
            best_effort_.emplace(
                spec.id,
                Active{sub.curve,
                       static_cast<double>(spec.iterations),
                       kTimeInfinity, false});
            decide(sub, t, ShedVerdict::kAdmittedBestEffort);
            continue;
        }
        const PlanHorizon d =
            plan_horizon(t, spec.deadline, planner_.slot_seconds,
                         planner_.max_slots);
        ensure_slots(d.slots);
        const double inflated = margin.inflate(
            static_cast<double>(spec.iterations), sub.curve);
        auto fill = progressive_fill(sub.curve, inflated, available, d,
                                     planner_, /*start_slot=*/0,
                                     &drain_cost);
        if (fill.has_value()) {
            for (int s = 0; s < fill->horizon(); ++s) {
                available[static_cast<std::size_t>(s)] -= fill->at(s);
            }
            PlanningJob job;
            job.id = spec.id;
            job.curve = sub.curve;
            job.remaining_iterations = inflated;
            job.deadline = spec.deadline;
            job.soft = spec.has_soft_deadline();
            alloc_slo.push_back(std::move(job));
            shares.emplace(spec.id, std::move(*fill));
            slo_.emplace(spec.id,
                         Active{std::move(sub.curve),
                                static_cast<double>(spec.iterations),
                                spec.deadline,
                                spec.has_soft_deadline()});
            decide(sub, t, ShedVerdict::kAdmitted);
        } else if (config_.degrade_infeasible &&
                   best_effort_.size() <
                       config_.max_active_best_effort) {
            best_effort_.emplace(
                spec.id,
                Active{std::move(sub.curve),
                       static_cast<double>(spec.iterations),
                       kTimeInfinity, false});
            decide(sub, t, ShedVerdict::kDegraded);
        } else {
            decide(sub, t, ShedVerdict::kShedInfeasible);
        }
    }
    stats_.planning_cost += drain_cost;

    std::vector<PlanningJob> best_effort;
    best_effort.reserve(best_effort_.size());
    for (const auto &[id, active] : best_effort_) {
        PlanningJob job;
        job.id = id;
        job.curve = active.curve;
        job.remaining_iterations = active.remaining_iterations;
        job.deadline = kTimeInfinity;
        best_effort.push_back(std::move(job));
    }
    AllocationOutcome outcome =
        run_allocation(planner_, t, alloc_slo, shares, best_effort);
    gpus_now_ = std::move(outcome.gpus_now);

    ++stats_.rounds;
    if (!token)
        ++stats_.rounds_forced;
    obs::count("serve.rounds");
    if (!token)
        obs::count("serve.rounds_forced");
    obs::gauge_set("serve.queue_depth", 0.0);
    if (obs::tracing()) {
        obs::TraceEvent event;
        event.time = t;
        event.kind = obs::EventKind::kServeRound;
        event.a = static_cast<std::int64_t>(batch);
        event.b = token ? 0 : 1;
        obs::emit(event);
    }
    fold_round_hash(t, batch, !token);
    // While recovering this verifies the round against the journal.
    // The cadence snapshot it may schedule is deferred to the end of
    // the public entry point: a round committed mid-submit() would
    // otherwise truncate away the in-flight submission's journal
    // record before its effects reach the snapshotted state.
    durable_.commit(stats_.rounds, t, hash_);
    arm();
}

void
Service::maybe_snapshot()
{
    const recover::Status st = durable_.snapshot_if_due();
    EF_FATAL_IF(!st.ok(), "durability: service snapshot failed: "
                              << st.to_string());
}

void
Service::fold_round_hash(Time t, std::size_t batch, bool forced)
{
    Fnv1a h;
    h.u64(hash_);
    h.f64(t);
    h.u64(batch);
    h.u64(forced ? 1 : 0);
    h.u64(stats_.submitted);
    h.u64(stats_.admitted);
    h.u64(stats_.admitted_best_effort);
    h.u64(stats_.degraded);
    h.u64(stats_.shed_queue_full);
    h.u64(stats_.shed_infeasible);
    h.u64(stats_.rpc_dropped);
    h.u64(stats_.replan_timeouts);
    h.u64(stats_.finished);
    h.u64(stats_.deadline_misses);
    h.u64(stats_.demotions);
    for (const auto &[id, active] : slo_) {
        h.i64(id);
        h.f64(active.remaining_iterations);
        h.f64(active.deadline);
    }
    for (const auto &[id, active] : best_effort_) {
        h.i64(id);
        h.f64(active.remaining_iterations);
    }
    for (const auto &[id, gpus] : gpus_now_) {
        h.i64(id);
        h.i64(static_cast<std::int64_t>(gpus));
    }
    h.u64(governor_.fingerprint());
    if (faults_ != nullptr)
        h.u64(faults_->state_fingerprint());
    hash_ = h.digest();
}

std::uint64_t
Service::config_fingerprint() const
{
    // Every knob that changes decisions is load-bearing: a journal only
    // replays under the configuration that wrote it.
    Fnv1a h;
    h.str("ef.serve.v1");
    h.i64(static_cast<std::int64_t>(config_.total_gpus));
    h.f64(config_.slot_seconds);
    h.i64(config_.max_slots);
    h.u64(static_cast<std::uint64_t>(config_.direction));
    h.f64(config_.admission_margin);
    h.f64(config_.overhead_allowance_s);
    h.u64(config_.queue_watermark);
    h.f64(config_.governor.rounds_per_second);
    h.f64(config_.governor.burst);
    h.f64(config_.governor.starvation_horizon_s);
    h.u64(config_.degrade_infeasible ? 1 : 0);
    h.u64(config_.max_active_best_effort);
    h.u64(config_.watchdog_budget);
    return h.digest();
}

void
Service::encode_state(recover::Encoder *enc) const
{
    enc->u64(config_fingerprint());
    enc->f64(now_);
    enc->f64(last_round_);
    enc->f64(next_due_);
    enc->boolean(escalated_);
    enc->i64(replan_failures_);
    enc->u64(pending_.size());
    for (const Submission &sub : pending_) {
        encode_job_spec(enc, sub.spec);
        encode_curve(enc, sub.curve);
    }
    auto put_active = [&](const std::map<JobId, Active> &jobs) {
        enc->u64(jobs.size());
        for (const auto &[id, active] : jobs) {
            enc->i64(id);
            encode_curve(enc, active.curve);
            enc->f64(active.remaining_iterations);
            enc->f64(active.deadline);
            enc->boolean(active.soft);
        }
    };
    put_active(slo_);
    put_active(best_effort_);
    enc->u64(gpus_now_.size());
    for (const auto &[id, gpus] : gpus_now_) {
        enc->i64(id);
        enc->i64(static_cast<std::int64_t>(gpus));
    }
    enc->u64(stats_.submitted);
    enc->u64(stats_.rpc_dropped);
    enc->u64(stats_.admitted);
    enc->u64(stats_.admitted_best_effort);
    enc->u64(stats_.degraded);
    enc->u64(stats_.shed_queue_full);
    enc->u64(stats_.shed_infeasible);
    enc->u64(stats_.rounds);
    enc->u64(stats_.rounds_forced);
    enc->u64(stats_.replan_timeouts);
    enc->u64(stats_.planning_cost);
    enc->u64(stats_.finished);
    enc->u64(stats_.deadline_misses);
    enc->u64(stats_.demotions);
    enc->u64(stats_.max_queue_depth);
    enc->f64(governor_.tokens_raw());
    enc->f64(governor_.last_refill());
    enc->boolean(faults_ != nullptr);
    if (faults_ != nullptr)
        encode_fault_state(enc, faults_->capture_state());
    enc->u64(hash_);
}

recover::Status
Service::decode_state(recover::Decoder *dec)
{
    const recover::Status corrupt = recover::Status::error(
        recover::ErrorCode::kBadRecord,
        "service snapshot payload is malformed");
    std::uint64_t fingerprint = 0;
    dec->u64(&fingerprint);
    if (!dec->ok())
        return corrupt;
    if (fingerprint != config_fingerprint()) {
        return recover::Status::error(
            recover::ErrorCode::kStateMismatch,
            "snapshot was taken with a different service "
            "configuration");
    }
    dec->f64(&now_);
    dec->f64(&last_round_);
    dec->f64(&next_due_);
    dec->boolean(&escalated_);
    std::int64_t replan_failures = 0;
    dec->i64(&replan_failures);
    replan_failures_ = static_cast<int>(replan_failures);
    std::uint64_t n = 0;
    if (!dec->count(&n, 24))
        return corrupt;
    pending_.clear();
    for (std::uint64_t i = 0; i < n; ++i) {
        Submission sub;
        if (!decode_job_spec(dec, &sub.spec) ||
            !decode_curve(dec, &sub.curve))
            return corrupt;
        pending_.push_back(std::move(sub));
    }
    auto get_active = [&](std::map<JobId, Active> *jobs)
        -> bool {
        std::uint64_t count = 0;
        if (!dec->count(&count, 33))
            return false;
        jobs->clear();
        JobId prev = -1;
        for (std::uint64_t i = 0; i < count; ++i) {
            std::int64_t id = 0;
            Active active;
            dec->i64(&id);
            if (!decode_curve(dec, &active.curve))
                return false;
            dec->f64(&active.remaining_iterations);
            dec->f64(&active.deadline);
            dec->boolean(&active.soft);
            if (!dec->ok() || id <= prev ||
                !(active.remaining_iterations >= 0.0))
                return false;
            prev = id;
            jobs->emplace(id, std::move(active));
        }
        return true;
    };
    if (!get_active(&slo_) || !get_active(&best_effort_))
        return corrupt;
    std::uint64_t allocs = 0;
    if (!dec->count(&allocs, 16))
        return corrupt;
    gpus_now_.clear();
    JobId prev = -1;
    for (std::uint64_t i = 0; i < allocs; ++i) {
        std::int64_t id = 0;
        std::int64_t gpus = 0;
        dec->i64(&id);
        dec->i64(&gpus);
        if (!dec->ok() || id <= prev || gpus < 0)
            return corrupt;
        prev = id;
        gpus_now_[id] = static_cast<GpuCount>(gpus);
    }
    dec->u64(&stats_.submitted);
    dec->u64(&stats_.rpc_dropped);
    dec->u64(&stats_.admitted);
    dec->u64(&stats_.admitted_best_effort);
    dec->u64(&stats_.degraded);
    dec->u64(&stats_.shed_queue_full);
    dec->u64(&stats_.shed_infeasible);
    dec->u64(&stats_.rounds);
    dec->u64(&stats_.rounds_forced);
    dec->u64(&stats_.replan_timeouts);
    dec->u64(&stats_.planning_cost);
    dec->u64(&stats_.finished);
    dec->u64(&stats_.deadline_misses);
    dec->u64(&stats_.demotions);
    std::uint64_t max_depth = 0;
    dec->u64(&max_depth);
    stats_.max_queue_depth = static_cast<std::size_t>(max_depth);
    double tokens = 0.0;
    double last_refill = 0.0;
    dec->f64(&tokens);
    dec->f64(&last_refill);
    bool has_faults = false;
    dec->boolean(&has_faults);
    if (!dec->ok())
        return corrupt;
    if (has_faults != (faults_ != nullptr)) {
        return recover::Status::error(
            recover::ErrorCode::kStateMismatch,
            "snapshot fault-injection mode does not match this "
            "service");
    }
    if (faults_ != nullptr) {
        FaultInjector::State state;
        if (!decode_fault_state(dec, &state))
            return corrupt;
        faults_->restore_state(state);
    }
    dec->u64(&hash_);
    if (!dec->ok() || !dec->empty())
        return corrupt;
    governor_.restore(tokens, last_refill);
    return recover::Status{};
}

recover::Status
Service::replay_tail(const recover::JournalContents &tail)
{
    // Journaled verdicts were already delivered: collect them first,
    // so decide() verifies and suppresses each one the replay
    // reproduces (exactly-once).
    replay_verdicts_.clear();
    replay_verdict_next_ = 0;
    for (std::size_t i = 0; i < tail.records.size(); ++i) {
        if (tail.records[i].kind != recover::RecordKind::kVerdict)
            continue;
        recover::Decoder scan(tail.records[i].body);
        std::int64_t id = 0;
        std::uint8_t verdict = 0;
        double at = 0.0;
        scan.i64(&id);
        scan.u8(&verdict);
        scan.f64(&at);
        if (!scan.ok() || !scan.empty()) {
            return recover::Status::error(
                recover::ErrorCode::kBadRecord,
                "malformed service verdict record",
                static_cast<std::int64_t>(i));
        }
        replay_verdicts_.push_back(ReplayVerdict{id, verdict});
    }
    for (std::size_t i = 0; i < tail.records.size(); ++i) {
        const recover::JournalRecord &rec = tail.records[i];
        recover::Decoder dec(rec.body);
        const auto bad = [&](const char *what) {
            return recover::Status::error(
                recover::ErrorCode::kBadRecord, what,
                static_cast<std::int64_t>(i));
        };
        switch (rec.kind) {
          case recover::RecordKind::kSubmission: {
            Submission sub;
            if (!decode_job_spec(&dec, &sub.spec) ||
                !decode_curve(&dec, &sub.curve) || !dec.empty())
                return bad("malformed service submission record");
            submit(std::move(sub));
            break;
          }
          case recover::RecordKind::kAdvance: {
            double t = 0.0;
            std::uint8_t mode = 0;
            dec.f64(&t);
            dec.u8(&mode);
            if (!dec.ok() || !dec.empty() || mode > 1)
                return bad("malformed service advance record");
            if (mode == 1)
                finish();
            else
                advance_internal(t);
            break;
          }
          case recover::RecordKind::kVerdict:
          case recover::RecordKind::kRoundCommit:
            break;  // verified as the replay reproduces them
          default:
            return bad("unknown service journal record kind");
        }
    }
    if (durable_.unverified_commits() > 0 ||
        replay_verdict_next_ < replay_verdicts_.size()) {
        return recover::Status::error(
            recover::ErrorCode::kStateMismatch,
            "journal records effects the replay never reproduced");
    }
    return recover::Status{};
}

recover::Status
Service::bind_durability(const std::string &dir,
                         std::uint64_t snapshot_every, bool recover)
{
    EF_FATAL_IF(dir.empty(), "service durability needs a directory");
    EF_FATAL_IF(snapshot_every < 1,
                "service durability needs snapshot_every >= 1");
    recover::Status st;
    if (recover) {
        // The last snapshot, then the journal tail re-fed through the
        // normal code paths; the journal reopens for append afterwards.
        recover::JournalContents tail;
        st = durable_.recover(
            dir, snapshot_every,
            [this](recover::Decoder *dec, recover::DurableRun::Resume *at) {
                const recover::Status decoded = decode_state(dec);
                at->round = stats_.rounds;
                at->clock = now_;
                return decoded;
            },
            &tail);
        if (st.ok())
            st = replay_tail(tail);
        if (st.ok())
            st = durable_.end_replay(now_);
    } else {
        st = durable_.open(dir, snapshot_every);
    }
    return st.ok() ? durable_.snapshot_if_due() : st;
}

}  // namespace serve
}  // namespace ef
