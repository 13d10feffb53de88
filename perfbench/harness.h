/**
 * @file
 * Outside-in instrumentation for the end-to-end benchmark.
 *
 * The benchmark measures each layer from outside, through the public
 * entry points only, so nothing here changes the program under test:
 *
 *  - TimingScheduler decorates a real policy. It forwards every
 *    Scheduler virtual and clocks each admit() and allocate() call.
 *  - CountingView is the ClusterView the decorator binds under the
 *    inner policy. It forwards every accessor to the simulator's view
 *    and counts the calls (and the ids active_jobs() hands out).
 *  - Tracer records a span around every wrapped call when the run is
 *    traced: name, start, end and parent, held in memory and written
 *    out at the end. Self time per span kind is folded as spans close.
 *
 * Untraced runs keep only the per-call admit/allocate clocks; the view
 * proxy then counts but never reads the clock.
 */
#ifndef EF_PERFBENCH_HARNESS_H_
#define EF_PERFBENCH_HARNESS_H_

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sched/scheduler.h"

namespace ef {
namespace perfbench {

/** Monotonic host clock in nanoseconds. */
inline std::int64_t
now_ns()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Every boundary the benchmark wraps. */
enum class SpanKind : std::uint8_t {
    kGenerate,       ///< workload: input generation
    kSimConstruct,   ///< sim: Simulator constructor
    kSimRun,         ///< sim: Simulator::run
    kAdmit,          ///< sched: Scheduler::admit
    kAllocate,       ///< sched: Scheduler::allocate
    kViewTotalGpus,  ///< sim: ClusterView accessors, called by the policy
    kViewNow,
    kViewActiveJobs,
    kViewSpec,
    kViewCurve,
    kViewCurveFor,
    kViewRemaining,
    kViewCurrentGpus,
    kViewAttained,
    kViewFaultEpoch,
    kServeConstruct, ///< serve: Service constructor
    kServeSubmit,    ///< serve: Service::submit
    kServeFinish,    ///< serve: Service::finish
    kCount,
};

inline constexpr std::size_t kSpanKinds =
    static_cast<std::size_t>(SpanKind::kCount);
inline constexpr std::size_t kFirstView =
    static_cast<std::size_t>(SpanKind::kViewTotalGpus);
inline constexpr std::size_t kViewKinds =
    static_cast<std::size_t>(SpanKind::kViewFaultEpoch) - kFirstView + 1;

/** Dotted span name, e.g. "sched.allocate" or "sim.view.spec". */
const char *span_name(SpanKind kind);

/** Per-kind aggregate of closed spans. */
struct SpanTotals
{
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;  ///< summed span durations
    std::int64_t self_ns = 0;   ///< durations minus child spans
};

/**
 * In-memory span recorder. Spans nest strictly (single thread); each
 * records its parent's index. Aggregates are exact for every span;
 * raw span records (17 bytes each) stop after @p max_spans, and the
 * rest are counted as dropped.
 */
class Tracer
{
  public:
    explicit Tracer(std::size_t max_spans) : max_spans_(max_spans) {}

    void begin(SpanKind kind);
    void end();

    SpanTotals totals(SpanKind kind) const
    {
        return totals_[static_cast<std::size_t>(kind)];
    }
    std::size_t recorded() const { return spans_.size(); }
    std::uint64_t dropped() const { return dropped_; }

    /** Write the raw spans as CSV (id,parent,name,start_ns,dur_ns). */
    bool write_csv(const std::string &path) const;

  private:
    struct Open
    {
        std::int64_t start_ns;
        std::int64_t child_ns;
        std::int32_t index;  ///< into spans_, -1 when not recorded
        SpanKind kind;
    };
    struct Span
    {
        std::int64_t start_ns;
        std::uint32_t dur_ns;  ///< saturates at about 4.3 s
        std::int32_t parent;   ///< -1 for a root span
    };

    std::size_t max_spans_;
    std::int64_t origin_ns_ = now_ns();
    std::vector<Open> stack_;
    std::vector<Span> spans_;
    std::vector<SpanKind> kinds_;  ///< parallel to spans_
    std::uint64_t dropped_ = 0;
    std::array<SpanTotals, kSpanKinds> totals_{};
};

/** RAII span; a no-op when @p tracer is null. */
class Scope
{
  public:
    Scope(Tracer *tracer, SpanKind kind) : tracer_(tracer)
    {
        if (tracer_ != nullptr)
            tracer_->begin(kind);
    }
    ~Scope()
    {
        if (tracer_ != nullptr)
            tracer_->end();
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer *tracer_;
};

/**
 * p50 and tail of one input's host latencies for one kind of call. The
 * tail is the highest percentile with at least ten samples beyond it:
 * the 11th-largest sample, p(100 * (n - 10) / n).
 */
struct CallLatency
{
    double p50_us = 0.0;
    double tail_us = 0.0;
    std::size_t samples = 0;
};

CallLatency summarize(std::vector<std::int64_t> ns);

/** Call counts the view proxy keeps in every run. */
struct ViewCounts
{
    std::array<std::uint64_t, kViewKinds> calls{};
    /** Ids returned by active_jobs(), summed over calls. */
    std::uint64_t active_ids = 0;

    std::uint64_t calls_of(SpanKind kind) const
    {
        return calls[static_cast<std::size_t>(kind) - kFirstView];
    }
    /** Per-job lookups: spec, curve, remaining, current, attained. */
    std::uint64_t lookups() const;
};

/** Forwarding ClusterView that counts (and, traced, times) calls. */
class CountingView final : public ClusterView
{
  public:
    void set_target(const ClusterView *target) { target_ = target; }
    const ClusterView *target() const { return target_; }
    void set_tracer(Tracer *tracer) { tracer_ = tracer; }
    const ViewCounts &counts() const { return counts_; }

    GpuCount total_gpus() const override;
    Time now() const override;
    std::vector<JobId> active_jobs() const override;
    const JobSpec &spec(JobId job) const override;
    const ScalingCurve &curve(JobId job) const override;
    ScalingCurve curve_for(const JobSpec &spec) const override;
    double remaining_iterations(JobId job) const override;
    GpuCount current_gpus(JobId job) const override;
    double attained_gpu_seconds(JobId job) const override;
    std::uint64_t fault_epoch() const override;

  private:
    void count(SpanKind kind) const
    {
        ++counts_.calls[static_cast<std::size_t>(kind) - kFirstView];
    }

    const ClusterView *target_ = nullptr;
    Tracer *tracer_ = nullptr;
    mutable ViewCounts counts_;
};

/**
 * Scheduler decorator: forwards every virtual to the wrapped policy
 * and clocks admit() and allocate(). Whatever view the simulator binds
 * to the decorator is re-bound under the inner policy through a
 * CountingView before any forwarded call.
 */
class TimingScheduler final : public Scheduler
{
  public:
    explicit TimingScheduler(std::unique_ptr<Scheduler> inner,
                             Tracer *tracer = nullptr);

    std::string name() const override;
    bool admit(const JobSpec &job) override;
    SchedulerDecision allocate() override;
    Time reschedule_interval() const override;
    PlacementStrategy placement_strategy() const override;
    bool allow_migration() const override;
    int replan_failures() const override;
    std::vector<JobId> take_demotions() override;
    void set_planner_concurrency(int shards, int threads) override;
    void encode_recovery_state(std::string *out) const override;
    bool decode_recovery_state(const std::string &blob) override;

    /** Host latency of every admit() / allocate() call, in order. */
    const std::vector<std::int64_t> &admit_ns() const { return admit_ns_; }
    const std::vector<std::int64_t> &allocate_ns() const
    {
        return allocate_ns_;
    }
    std::uint64_t admitted() const { return admitted_; }
    const ViewCounts &view_counts() const { return proxy_.counts(); }

  private:
    /** Re-bind the proxy when the simulator bound a new view. */
    void sync_view() const;

    std::unique_ptr<Scheduler> inner_;
    Tracer *tracer_;
    mutable CountingView proxy_;
    std::vector<std::int64_t> admit_ns_;
    std::vector<std::int64_t> allocate_ns_;
    std::uint64_t admitted_ = 0;
};

}  // namespace perfbench
}  // namespace ef

#endif  // EF_PERFBENCH_HARNESS_H_
