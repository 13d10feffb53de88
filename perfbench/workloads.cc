#include "workloads.h"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "fault/fault.h"
#include "recover/log.h"
#include "serve/service.h"
#include "serve/stream.h"
#include "sim/simulator.h"
#include "workload/trace_gen.h"

namespace ef {
namespace perfbench {
namespace {

double
seconds_between(std::int64_t start, std::int64_t stop)
{
    return static_cast<double>(stop - start) * 1e-9;
}

std::string
hex(std::uint64_t value)
{
    std::ostringstream out;
    out << std::hex << value;
    return out.str();
}

std::uint64_t
file_bytes(const std::string &path)
{
    struct stat st{};
    if (::stat(path.c_str(), &st) != 0)
        return 0;
    return static_cast<std::uint64_t>(st.st_size);
}

/** Generator seed of input @p k of a run with @p inputs inputs. */
std::uint64_t
input_seed(std::uint64_t seed, int k, int inputs)
{
    return seed * static_cast<std::uint64_t>(inputs) +
           static_cast<std::uint64_t>(k);
}

/** Fold one input's part of a rep into the rep. */
void
merge(Rep *into, const Rep &part)
{
    into->setup_s += part.setup_s;
    into->run_s += part.run_s;
    into->admit.insert(into->admit.end(), part.admit.begin(),
                       part.admit.end());
    into->replan.insert(into->replan.end(), part.replan.begin(),
                        part.replan.end());
    into->operations += part.operations;
    into->state_hash = (into->state_hash ^ part.state_hash) *
                       0x100000001b3ULL;
    into->failures.insert(into->failures.end(), part.failures.begin(),
                          part.failures.end());
    for (const auto &[key, value] : part.exact) {
        double &slot = into->exact[key];
        slot = key == "serve.max_queue_depth" ? std::max(slot, value)
                                              : slot + value;
    }
    for (const auto &[key, value] : part.seconds)
        into->seconds[key] += value;
}

// --- simulator workloads --------------------------------------------------

/** What one simulator input runs: generator, policy and config. */
struct SimSetup
{
    TraceGenConfig gen;
    std::string scheduler;
    SimConfig config;
};

SimSetup
paper_trace(std::uint64_t seed)
{
    SimSetup s;
    s.gen.name = "paper-trace";
    s.gen.topology = TopologySpec::with_total_gpus(2048);
    s.gen.num_jobs = 1000;
    s.gen.mean_interarrival_s = 330.0;
    s.gen.seed = seed;
    s.scheduler = "elasticflow";
    return s;
}

SimSetup
mega_long(std::uint64_t seed)
{
    SimSetup s;
    s.gen.name = "mega-long";
    s.gen.topology = TopologySpec::with_total_gpus(16384);
    s.gen.num_jobs = 400;
    s.gen.mean_interarrival_s = 60.0;
    s.gen.duration_log_mean = 10.0;  // exp(10) s, about 6 h
    s.gen.duration_log_sigma = 0.6;
    s.gen.seed = seed;
    s.scheduler = "elasticflow";
    return s;
}

/** churn_preset() at 4x the cluster, with the arrival rate scaled to
 *  keep the same load per GPU; Tiresias with budgeted defrag. */
SimSetup
churn_durable(std::uint64_t seed)
{
    SimSetup s;
    s.gen = churn_preset();
    s.gen.name = "churn-durable";
    s.gen.topology = TopologySpec::with_total_gpus(256);
    s.gen.num_jobs = 500;
    s.gen.mean_interarrival_s = churn_preset().mean_interarrival_s / 4.0;
    s.gen.seed = seed;
    s.scheduler = "tiresias";
    s.config.defrag.enabled = true;
    s.config.defrag.budget_units_per_round = 16.0;
    return s;
}

/** Inputs per run of each simulator workload. */
int
sim_inputs(const std::string &name)
{
    if (name == "paper-trace")
        return 6;
    if (name == "mega-long")
        return 6;
    return 8;  // churn-durable
}

std::vector<SimSetup>
sim_setups(const std::string &name, std::uint64_t seed)
{
    const int n = sim_inputs(name);
    std::vector<SimSetup> out;
    for (int k = 0; k < n; ++k) {
        const std::uint64_t s = input_seed(seed, k, n);
        if (name == "paper-trace")
            out.push_back(paper_trace(s));
        else if (name == "mega-long")
            out.push_back(mega_long(s));
        else if (name == "churn-durable")
            out.push_back(churn_durable(s));
        else
            EF_FATAL_IF(true, "not a simulator workload: " << name);
    }
    return out;
}

FaultEvent
sched_crash_at_round(std::int64_t round)
{
    FaultEvent ev;
    ev.type = FaultType::kSchedCrash;
    ev.target = round;
    return ev;
}

/** A simulator ready to run: its inputs, wrapped policy and timings. */
struct SimBuild
{
    Trace trace;
    std::unique_ptr<TimingScheduler> policy;  // outlives sim
    std::unique_ptr<Simulator> sim;
    double setup_s = 0.0;
};

/** Set-up: generate the trace, wrap the policy, construct the Simulator. */
SimBuild
build_sim(const SimSetup &setup, const SimConfig &config, Tracer *tracer)
{
    SimBuild b;
    const std::int64_t t0 = now_ns();
    {
        Scope s(tracer, SpanKind::kGenerate);
        b.trace = TraceGenerator::generate(setup.gen);
    }
    b.policy = std::make_unique<TimingScheduler>(
        make_scheduler(setup.scheduler), tracer);
    {
        Scope s(tracer, SpanKind::kSimConstruct);
        b.sim = std::make_unique<Simulator>(b.trace, b.policy.get(), config);
    }
    b.setup_s = seconds_between(t0, now_ns());
    return b;
}

/** Exact per-layer values a finished simulator run reports. Ratios are
 *  kept as numerator and denominator so inputs add up. */
void
record_run_result(const RunResult &r, Rep *rep)
{
    double migrations = 0.0;
    double scaling = 0.0;
    for (const JobOutcome &job : r.jobs) {
        migrations += job.migrations;
        scaling += job.scaling_events;
    }
    auto &x = rep->exact;
    x["sim.replans"] = r.replans_attempted;
    x["sim.replans_coalesced"] = r.replans_coalesced;
    x["sim.replans_elided"] = r.replans_elided;
    x["sim.hash_samples"] = static_cast<double>(r.state_hash_samples);
    x["sim.alloc_changes"] = static_cast<double>(r.allocation_log.size());
    x["cluster.migrations"] = migrations;
    x["cluster.scaling_events"] = scaling;
    x["defrag.rounds"] = r.defrag_rounds;
    x["defrag.moves"] = r.defrag_moves;
    x["defrag.budget_spent"] = r.defrag_budget_spent;
    x["guard.deadline_jobs"] = static_cast<double>(r.submitted(JobKind::kSlo));
    x["guard.deadlines_met"] = static_cast<double>(r.deadlines_met());
    x["guard.jobs"] = static_cast<double>(r.jobs.size());
    x["guard.shed"] = static_cast<double>(r.dropped_count());
    x["guard.fragmentation_pct"] = 100.0 * average_fragmentation(r);
    x["guard.inputs"] = 1.0;
}

/** Exact per-layer values and latencies the wrapped policies of one
 *  input saw. */
void
record_policy(const std::vector<const TimingScheduler *> &policies,
              Rep *rep)
{
    auto &x = rep->exact;
    std::vector<std::int64_t> admit_ns;
    std::vector<std::int64_t> allocate_ns;
    for (const TimingScheduler *p : policies) {
        const ViewCounts &v = p->view_counts();
        x["sched.admit.calls"] += static_cast<double>(p->admit_ns().size());
        x["sched.admit.accepted"] += static_cast<double>(p->admitted());
        x["sched.allocate.calls"] +=
            static_cast<double>(p->allocate_ns().size());
        x["sim.view.active_jobs.calls"] +=
            static_cast<double>(v.calls_of(SpanKind::kViewActiveJobs));
        x["sim.view.active_jobs.ids"] += static_cast<double>(v.active_ids);
        x["sim.view.lookups"] += static_cast<double>(v.lookups());
        admit_ns.insert(admit_ns.end(), p->admit_ns().begin(),
                        p->admit_ns().end());
        allocate_ns.insert(allocate_ns.end(), p->allocate_ns().begin(),
                           p->allocate_ns().end());
    }
    std::int64_t admit_total = 0;
    for (std::int64_t ns : admit_ns)
        admit_total += ns;
    std::int64_t allocate_total = 0;
    for (std::int64_t ns : allocate_ns)
        allocate_total += ns;
    rep->seconds["sched.admit.busy_s"] = admit_total * 1e-9;
    rep->seconds["sched.allocate.busy_s"] = allocate_total * 1e-9;
    rep->admit.push_back(summarize(std::move(admit_ns)));
    rep->replan.push_back(summarize(std::move(allocate_ns)));
}

// --- paper-trace, mega-long -----------------------------------------------

class SimWorkload : public Workload
{
  public:
    explicit SimWorkload(std::vector<SimSetup> inputs)
        : inputs_(std::move(inputs))
    {
    }

    std::vector<std::string> warm_up() override
    {
        // Bare (unwrapped) runs fix the hash every wrapped rep must hit.
        reference_.clear();
        samples_.clear();
        for (const SimSetup &in : inputs_) {
            const Trace trace = TraceGenerator::generate(in.gen);
            auto policy = make_scheduler(in.scheduler);
            Simulator sim(trace, policy.get(), in.config);
            const RunResult result = sim.run();
            reference_.push_back(result.state_hash);
            samples_.push_back(result.state_hash_samples);
        }
        return {};
    }

    Rep rep(Tracer *tracer) override
    {
        Rep rep;
        for (std::size_t k = 0; k < inputs_.size(); ++k)
            merge(&rep, run_input(k, tracer));
        return rep;
    }

  protected:
    const std::vector<SimSetup> &inputs() const { return inputs_; }
    /** Round commits of each input's bare run. */
    const std::vector<std::uint64_t> &reference_samples() const
    {
        return samples_;
    }

  private:
    Rep run_input(std::size_t k, Tracer *tracer)
    {
        Rep part;
        SimBuild b = build_sim(inputs_[k], inputs_[k].config, tracer);
        const std::int64_t t0 = now_ns();
        RunResult result;
        {
            Scope s(tracer, SpanKind::kSimRun);
            result = b.sim->run();
        }
        part.run_s = seconds_between(t0, now_ns());
        part.seconds["sim.run_s"] = part.run_s;
        part.setup_s = b.setup_s;
        part.operations = b.trace.size();
        part.state_hash = result.state_hash;
        record_run_result(result, &part);
        record_policy({b.policy.get()}, &part);
        if (result.state_hash != reference_[k])
            part.failures.push_back(
                "input " + std::to_string(k) + ": state_hash " +
                hex(result.state_hash) + " differs from the unwrapped run's " +
                hex(reference_[k]));
        return part;
    }

    std::vector<SimSetup> inputs_;
    std::vector<std::uint64_t> reference_;
    std::vector<std::uint64_t> samples_;
};

// --- churn-durable --------------------------------------------------------

/**
 * Churn with budgeted defrag. The measured reps run every input with
 * defrag and no durability, like the other simulator workloads. The
 * crash-and-recover cycle runs beside them (durable_check): its fsync'd
 * journal makes host time follow the shared disk, not the program.
 */
class ChurnWorkload : public SimWorkload
{
  public:
    ChurnWorkload(std::vector<SimSetup> inputs, std::string dir)
        : SimWorkload(std::move(inputs)), dir_(std::move(dir))
    {
    }

    ~ChurnWorkload() override
    {
        std::error_code ec;
        std::filesystem::remove_all(dir_, ec);
    }

    /**
     * Input 0 three ways: uninterrupted without a journal (the
     * durability-off baseline and reference hash), then journaled and
     * crashed late by a scripted sched-crash, then recovered to the end
     * by a fresh Simulator. The recovered hash must equal the baseline.
     */
    Rep durable_check() override
    {
        Rep check;
        const SimSetup &in = inputs()[0];
        const std::uint64_t rounds = reference_samples()[0];
        SimConfig plain_config = in.config;
        plain_config.faults.script.push_back(
            sched_crash_at_round(static_cast<std::int64_t>(
                rounds - rounds / 8)));
        SimConfig crash_config = plain_config;
        crash_config.durability.journal_dir = dir_;
        SimConfig recover_config = crash_config;
        recover_config.durability.recover = true;
        std::error_code ec;
        std::filesystem::remove_all(dir_, ec);

        SimBuild plain = build_sim(in, plain_config, nullptr);
        std::int64_t t0 = now_ns();
        const RunResult reference = plain.sim->run();
        check.seconds["recover.plain_s"] = seconds_between(t0, now_ns());

        SimBuild b = build_sim(in, crash_config, nullptr);
        t0 = now_ns();
        const recover::Status opened = b.sim->prepare_durability();
        double prepare_s = seconds_between(t0, now_ns());
        b.sim->run();
        const bool crashed = b.sim->crashed();
        const double crashed_s = seconds_between(t0, now_ns());
        check.exact["recover.journal_bytes"] = static_cast<double>(
            file_bytes(recover::DurableLog::journal_path(dir_)));
        check.exact["recover.snapshot_bytes"] = static_cast<double>(
            file_bytes(recover::DurableLog::snapshot_path(dir_)));
        b.sim.reset();

        t0 = now_ns();
        auto policy = make_scheduler(in.scheduler);
        Simulator sim(b.trace, policy.get(), recover_config);
        const std::int64_t p0 = now_ns();
        const recover::Status recovered = sim.prepare_durability();
        prepare_s += seconds_between(p0, now_ns());
        const RunResult result = sim.run();
        const double recover_s = seconds_between(t0, now_ns());
        check.seconds["recover_s"] = recover_s;
        check.seconds["recover.durable_s"] = crashed_s + recover_s;
        check.seconds["recover.prepare_s"] = prepare_s;
        std::filesystem::remove_all(dir_, ec);

        if (!opened.ok())
            check.failures.push_back("durable log open failed: " +
                                     opened.to_string());
        if (!crashed)
            check.failures.push_back("scripted crash did not fire");
        if (!recovered.ok())
            check.failures.push_back("recovery failed: " +
                                     recovered.to_string());
        if (sim.crashed())
            check.failures.push_back("recovering run crashed");
        if (result.state_hash != reference.state_hash ||
            result.state_hash_samples != reference.state_hash_samples)
            check.failures.push_back(
                "recovered state_hash " + hex(result.state_hash) +
                " differs from the uninterrupted run's " +
                hex(reference.state_hash));
        return check;
    }

  private:
    std::string dir_;
};

// --- service-soak ---------------------------------------------------------

/** ext_service_soak's fixture: 64 GPUs, watermark 64, 100 jobs/s. */
constexpr GpuCount kSoakGpus = 64;
constexpr std::size_t kSoakWatermark = 64;
constexpr int kSoakStreams = 16;
constexpr std::uint64_t kSoakSubmissions = 50000;  // per stream

class ServiceWorkload : public Workload
{
  public:
    explicit ServiceWorkload(std::uint64_t seed)
    {
        for (int k = 0; k < kSoakStreams; ++k) {
            serve::StreamConfig stream;
            stream.topology = TopologySpec::with_total_gpus(kSoakGpus);
            stream.arrival_rate = 100.0;
            stream.seed = input_seed(seed, k, kSoakStreams);
            streams_.push_back(stream);
        }
        service_.total_gpus = kSoakGpus;
        service_.queue_watermark = kSoakWatermark;
        service_.governor.rounds_per_second = 0.5;
        service_.governor.burst = 2.0;
        service_.governor.starvation_horizon_s = 120.0;
        service_.degrade_infeasible = true;
        service_.max_active_best_effort = 256;
    }

    std::vector<std::string> warm_up() override
    {
        reference_.assign(streams_.size(), 0);
        std::vector<std::string> failures;
        for (std::size_t k = 0; k < streams_.size(); ++k) {
            Rep first = run_stream(k, nullptr);
            reference_[k] = first.state_hash;
            failures.insert(failures.end(), first.failures.begin(),
                            first.failures.end());
        }
        return failures;
    }

    Rep rep(Tracer *tracer) override
    {
        Rep rep;
        for (std::size_t k = 0; k < streams_.size(); ++k)
            merge(&rep, run_stream(k, tracer));
        return rep;
    }

  private:
    /** A fresh Service; its submissions are pre-generated in inputs_. */
    struct Build
    {
        std::unique_ptr<serve::Service> service;
        double setup_s = 0.0;
    };

    Build build(std::size_t k, Tracer *tracer)
    {
        Build b;
        const std::int64_t t0 = now_ns();
        {
            Scope s(tracer, SpanKind::kGenerate);
            serve::SyntheticStream stream(streams_[k]);
            inputs_.clear();  // keeps its capacity from stream to stream
            inputs_.reserve(kSoakSubmissions);
            for (std::uint64_t i = 0; i < kSoakSubmissions; ++i)
                inputs_.push_back(stream.next());
        }
        {
            Scope s(tracer, SpanKind::kServeConstruct);
            b.service = std::make_unique<serve::Service>(service_);
        }
        b.setup_s = seconds_between(t0, now_ns());
        return b;
    }

    Rep run_stream(std::size_t k, Tracer *tracer)
    {
        Rep part;
        Build b = build(k, tracer);
        std::vector<serve::Submission> &inputs = inputs_;
        serve::Service *service = b.service.get();
        std::vector<std::uint8_t> verdicts(inputs.size(), 0);
        std::uint64_t stray = 0;
        service->set_decision_callback(
            [&verdicts, &stray](const serve::Decision &d) {
                if (d.id >= 0 &&
                    static_cast<std::size_t>(d.id) < verdicts.size())
                    ++verdicts[static_cast<std::size_t>(d.id)];
                else
                    ++stray;
            });

        // Closed loop: the next submission goes in only after the
        // previous submit() returned.
        const std::int64_t t0 = now_ns();
        std::vector<std::int64_t> admit_ns;
        std::vector<std::int64_t> replan_ns;
        admit_ns.reserve(inputs.size());
        std::int64_t round_ns = 0;
        std::int64_t plain_ns = 0;
        for (serve::Submission &submission : inputs) {
            const std::uint64_t rounds = service->stats().rounds;
            const std::int64_t start = now_ns();
            {
                Scope s(tracer, SpanKind::kServeSubmit);
                service->submit(std::move(submission));
            }
            const std::int64_t ns = now_ns() - start;
            if (service->stats().rounds != rounds) {
                replan_ns.push_back(ns);
                round_ns += ns;
            } else {
                admit_ns.push_back(ns);
                plain_ns += ns;
            }
        }
        {
            Scope s(tracer, SpanKind::kServeFinish);
            service->finish();
        }
        part.run_s = seconds_between(t0, now_ns());
        part.admit.push_back(summarize(std::move(admit_ns)));
        part.replan.push_back(summarize(std::move(replan_ns)));
        part.setup_s = b.setup_s;
        part.operations = inputs.size();
        part.state_hash = service->state_hash();

        const serve::ServiceStats &st = service->stats();
        auto &x = part.exact;
        x["serve.submit.calls"] = static_cast<double>(inputs.size());
        x["serve.rounds"] = static_cast<double>(st.rounds);
        x["serve.rounds_forced"] = static_cast<double>(st.rounds_forced);
        x["serve.planning_cost"] = static_cast<double>(st.planning_cost);
        x["serve.shed_queue_full"] = static_cast<double>(st.shed_queue_full);
        x["serve.shed_infeasible"] = static_cast<double>(st.shed_infeasible);
        x["serve.max_queue_depth"] = static_cast<double>(st.max_queue_depth);
        // The service retires jobs without a final outcome table: its
        // deadline guard counts retired jobs that finished on time.
        x["guard.deadline_jobs"] = static_cast<double>(st.finished);
        x["guard.deadlines_met"] =
            static_cast<double>(st.finished - st.deadline_misses);
        x["guard.jobs"] = static_cast<double>(st.submitted);
        x["guard.shed"] = static_cast<double>(st.shed());
        part.seconds["serve.round_busy_s"] = round_ns * 1e-9;
        part.seconds["serve.plain_busy_s"] = plain_ns * 1e-9;

        std::uint64_t missing = 0;
        std::uint64_t repeated = 0;
        for (std::uint8_t n : verdicts) {
            missing += n == 0 ? 1 : 0;
            repeated += n > 1 ? 1 : 0;
        }
        const std::string where = "stream " + std::to_string(k) + ": ";
        if (missing != 0 || repeated != 0 || stray != 0 ||
            st.submitted != inputs.size())
            part.failures.push_back(
                where + "verdicts: " + std::to_string(missing) +
                " missing, " + std::to_string(repeated) + " repeated, " +
                std::to_string(stray) + " for unknown ids, " +
                std::to_string(st.submitted) + " counted for " +
                std::to_string(inputs.size()) + " submissions");
        if (st.max_queue_depth > kSoakWatermark)
            part.failures.push_back(
                where + "queue depth " + std::to_string(st.max_queue_depth) +
                " exceeded the watermark " + std::to_string(kSoakWatermark));
        if (reference_[k] != 0 && part.state_hash != reference_[k])
            part.failures.push_back(where + "state_hash " +
                                    hex(part.state_hash) +
                                    " differs from the warm-up run's " +
                                    hex(reference_[k]));
        return part;
    }

    std::vector<serve::StreamConfig> streams_;
    serve::ServiceConfig service_;
    std::vector<serve::Submission> inputs_;
    std::vector<std::uint64_t> reference_;
};

}  // namespace

std::unique_ptr<Workload>
make_workload(const std::string &name, std::uint64_t seed)
{
    if (name == "paper-trace" || name == "mega-long")
        return std::make_unique<SimWorkload>(sim_setups(name, seed));
    if (name == "churn-durable")
        return std::make_unique<ChurnWorkload>(
            sim_setups(name, seed),
            std::string(kOutDir) + "/journal-" + std::to_string(seed) +
                "-" + std::to_string(::getpid()));
    if (name == "service-soak")
        return std::make_unique<ServiceWorkload>(seed);
    return nullptr;
}

}  // namespace perfbench
}  // namespace ef
