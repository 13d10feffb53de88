#include "harness.h"

#include <algorithm>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <utility>

namespace ef {
namespace perfbench {

const char *
span_name(SpanKind kind)
{
    switch (kind) {
    case SpanKind::kGenerate: return "workload.generate";
    case SpanKind::kSimConstruct: return "sim.construct";
    case SpanKind::kSimRun: return "sim.run";
    case SpanKind::kAdmit: return "sched.admit";
    case SpanKind::kAllocate: return "sched.allocate";
    case SpanKind::kViewTotalGpus: return "sim.view.total_gpus";
    case SpanKind::kViewNow: return "sim.view.now";
    case SpanKind::kViewActiveJobs: return "sim.view.active_jobs";
    case SpanKind::kViewSpec: return "sim.view.spec";
    case SpanKind::kViewCurve: return "sim.view.curve";
    case SpanKind::kViewCurveFor: return "sim.view.curve_for";
    case SpanKind::kViewRemaining: return "sim.view.remaining_iterations";
    case SpanKind::kViewCurrentGpus: return "sim.view.current_gpus";
    case SpanKind::kViewAttained: return "sim.view.attained_gpu_seconds";
    case SpanKind::kViewFaultEpoch: return "sim.view.fault_epoch";
    case SpanKind::kServeConstruct: return "serve.construct";
    case SpanKind::kServeSubmit: return "serve.submit";
    case SpanKind::kServeFinish: return "serve.finish";
    case SpanKind::kCount: break;
    }
    return "?";
}

// --- Tracer ---------------------------------------------------------------

void
Tracer::begin(SpanKind kind)
{
    const std::int64_t start = now_ns();
    std::int32_t index = -1;
    if (spans_.size() < max_spans_) {
        index = static_cast<std::int32_t>(spans_.size());
        const std::int32_t parent =
            stack_.empty() ? -1 : stack_.back().index;
        spans_.push_back({start - origin_ns_, 0, parent});
        kinds_.push_back(kind);
    } else {
        ++dropped_;
    }
    stack_.push_back({start, 0, index, kind});
}

void
Tracer::end()
{
    const std::int64_t stop = now_ns();
    const Open open = stack_.back();
    stack_.pop_back();
    const std::int64_t dur = stop - open.start_ns;
    SpanTotals &t = totals_[static_cast<std::size_t>(open.kind)];
    ++t.count;
    t.total_ns += dur;
    t.self_ns += dur - open.child_ns;
    if (!stack_.empty())
        stack_.back().child_ns += dur;
    if (open.index >= 0)
        spans_[static_cast<std::size_t>(open.index)].dur_ns =
            static_cast<std::uint32_t>(
                std::min<std::int64_t>(dur, UINT32_MAX));
}

bool
Tracer::write_csv(const std::string &path) const
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr)
        return false;
    std::fprintf(out, "id,parent,name,start_ns,dur_ns\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(out, "%zu,%d,%s,%lld,%u\n", i, s.parent,
                     span_name(kinds_[i]),
                     static_cast<long long>(s.start_ns), s.dur_ns);
    }
    return std::fclose(out) == 0;
}

CallLatency
summarize(std::vector<std::int64_t> ns)
{
    CallLatency out;
    out.samples = ns.size();
    if (ns.empty())
        return out;
    std::sort(ns.begin(), ns.end());
    const std::size_t n = ns.size();
    out.p50_us = static_cast<double>(ns[(n + 1) / 2 - 1]) * 1e-3;
    out.tail_us = static_cast<double>(ns[n > 10 ? n - 11 : n - 1]) * 1e-3;
    return out;
}

// --- CountingView ---------------------------------------------------------

std::uint64_t
ViewCounts::lookups() const
{
    return calls_of(SpanKind::kViewSpec) + calls_of(SpanKind::kViewCurve) +
           calls_of(SpanKind::kViewRemaining) +
           calls_of(SpanKind::kViewCurrentGpus) +
           calls_of(SpanKind::kViewAttained);
}

GpuCount
CountingView::total_gpus() const
{
    count(SpanKind::kViewTotalGpus);
    Scope s(tracer_, SpanKind::kViewTotalGpus);
    return target_->total_gpus();
}

Time
CountingView::now() const
{
    count(SpanKind::kViewNow);
    Scope s(tracer_, SpanKind::kViewNow);
    return target_->now();
}

std::vector<JobId>
CountingView::active_jobs() const
{
    count(SpanKind::kViewActiveJobs);
    Scope s(tracer_, SpanKind::kViewActiveJobs);
    std::vector<JobId> ids = target_->active_jobs();
    counts_.active_ids += ids.size();
    return ids;
}

const JobSpec &
CountingView::spec(JobId job) const
{
    count(SpanKind::kViewSpec);
    Scope s(tracer_, SpanKind::kViewSpec);
    return target_->spec(job);
}

const ScalingCurve &
CountingView::curve(JobId job) const
{
    count(SpanKind::kViewCurve);
    Scope s(tracer_, SpanKind::kViewCurve);
    return target_->curve(job);
}

ScalingCurve
CountingView::curve_for(const JobSpec &spec) const
{
    count(SpanKind::kViewCurveFor);
    Scope s(tracer_, SpanKind::kViewCurveFor);
    return target_->curve_for(spec);
}

double
CountingView::remaining_iterations(JobId job) const
{
    count(SpanKind::kViewRemaining);
    Scope s(tracer_, SpanKind::kViewRemaining);
    return target_->remaining_iterations(job);
}

GpuCount
CountingView::current_gpus(JobId job) const
{
    count(SpanKind::kViewCurrentGpus);
    Scope s(tracer_, SpanKind::kViewCurrentGpus);
    return target_->current_gpus(job);
}

double
CountingView::attained_gpu_seconds(JobId job) const
{
    count(SpanKind::kViewAttained);
    Scope s(tracer_, SpanKind::kViewAttained);
    return target_->attained_gpu_seconds(job);
}

std::uint64_t
CountingView::fault_epoch() const
{
    count(SpanKind::kViewFaultEpoch);
    Scope s(tracer_, SpanKind::kViewFaultEpoch);
    return target_->fault_epoch();
}

// --- TimingScheduler ------------------------------------------------------

TimingScheduler::TimingScheduler(std::unique_ptr<Scheduler> inner,
                                 Tracer *tracer)
    : inner_(std::move(inner)), tracer_(tracer)
{
    proxy_.set_tracer(tracer);
}

void
TimingScheduler::sync_view() const
{
    if (proxy_.target() == view_)
        return;
    proxy_.set_target(view_);
    inner_->bind(view_ == nullptr ? nullptr : &proxy_);
}

std::string
TimingScheduler::name() const
{
    sync_view();
    return inner_->name();
}

bool
TimingScheduler::admit(const JobSpec &job)
{
    sync_view();
    Scope s(tracer_, SpanKind::kAdmit);
    const std::int64_t start = now_ns();
    const bool ok = inner_->admit(job);
    admit_ns_.push_back(now_ns() - start);
    admitted_ += ok ? 1 : 0;
    return ok;
}

SchedulerDecision
TimingScheduler::allocate()
{
    sync_view();
    Scope s(tracer_, SpanKind::kAllocate);
    const std::int64_t start = now_ns();
    SchedulerDecision decision = inner_->allocate();
    allocate_ns_.push_back(now_ns() - start);
    return decision;
}

Time
TimingScheduler::reschedule_interval() const
{
    sync_view();
    return inner_->reschedule_interval();
}

PlacementStrategy
TimingScheduler::placement_strategy() const
{
    sync_view();
    return inner_->placement_strategy();
}

bool
TimingScheduler::allow_migration() const
{
    sync_view();
    return inner_->allow_migration();
}

int
TimingScheduler::replan_failures() const
{
    sync_view();
    return inner_->replan_failures();
}

std::vector<JobId>
TimingScheduler::take_demotions()
{
    sync_view();
    return inner_->take_demotions();
}

void
TimingScheduler::set_planner_concurrency(int shards, int threads)
{
    sync_view();
    inner_->set_planner_concurrency(shards, threads);
}

void
TimingScheduler::encode_recovery_state(std::string *out) const
{
    sync_view();
    inner_->encode_recovery_state(out);
}

bool
TimingScheduler::decode_recovery_state(const std::string &blob)
{
    sync_view();
    return inner_->decode_recovery_state(blob);
}

}  // namespace perfbench
}  // namespace ef
