/**
 * @file
 * End-to-end benchmark. Runs one workload from one process on
 * one thread, checks its outputs, prints every metric by name with its
 * unit, and ends with one JSON line:
 *
 *   ef_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * --trace 0 reports the end-to-end metrics from untraced repetitions.
 * --trace 1 runs untraced repetitions for half the time and traced ones
 * for the other half, and reports the per-layer metrics: host-time
 * shares of admit, allocate, submit and simulator self time from the
 * untraced reps' per-call clocks, and what needs spans (view time,
 * self time per layer) from the traced reps, plus the tracing overhead
 * (traced minus untraced run time). The exit status is nonzero when
 * any correctness check failed.
 */
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace ef {
namespace perfbench {
namespace {

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

bool
parse(int argc, char **argv, Options *opt)
{
    bool have_workload = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        if (key == "--workload") {
            opt->workload = value;
            have_workload = true;
        } else if (key == "--seed") {
            opt->seed = std::stoull(value);
        } else if (key == "--seconds") {
            opt->seconds = std::stod(value);
        } else if (key == "--trace") {
            opt->trace = value != "0";
        } else {
            return false;
        }
    }
    return have_workload && argc % 2 == 1 && opt->seconds > 0.0;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * Latency of one kind of call over the run. Per input, the median over
 * reps of its p50 and tail damps host noise; the metric is the mean of
 * those over the run's inputs, which damps the quirks of any one input.
 */
struct Latency
{
    double p50_us = 0.0;
    double tail_us = 0.0;
    double tail_p = 0.0;       ///< at the median per-input sample count
    std::size_t samples = 0;   ///< median per-input sample count
};

Latency
latency(const std::vector<Rep> &reps,
        std::vector<CallLatency> Rep::*field)
{
    const std::size_t inputs = (reps.front().*field).size();
    Latency out;
    std::vector<double> counts;
    for (std::size_t k = 0; k < inputs; ++k) {
        std::vector<double> p50;
        std::vector<double> tail;
        for (const Rep &rep : reps) {
            const CallLatency &c = (rep.*field)[k];
            p50.push_back(c.p50_us);
            tail.push_back(c.tail_us);
            counts.push_back(static_cast<double>(c.samples));
        }
        out.p50_us += median(p50) / static_cast<double>(inputs);
        out.tail_us += median(tail) / static_cast<double>(inputs);
    }
    out.samples = static_cast<std::size_t>(median(counts));
    out.tail_p = out.samples > 10
                     ? 100.0 * static_cast<double>(out.samples - 10) /
                           static_cast<double>(out.samples)
                     : 100.0;
    return out;
}

double
peak_rss_mb()
{
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/** One reported metric. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::string
number(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.12g", v);
    return buf;
}

void
print_metrics(const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::cout << "  " << m.name << " = " << number(m.value) << " "
                  << m.unit << "\n";
}

std::string
json_line(bool correct, std::uint64_t attempted, std::uint64_t failed,
          const std::vector<Metric> &metrics)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        if (i > 0)
            out += ", ";
        out += "\"" + m.name + "\": {\"value\": " + number(m.value) +
               ", \"unit\": \"" + m.unit + "\"}";
    }
    out += "}}";
    return out;
}

/** Run reps until @p budget_s has passed and at least @p min_reps ran. */
void
repeat(double budget_s, std::size_t min_reps,
       const std::function<void()> &one)
{
    const std::int64_t start = now_ns();
    std::size_t done = 0;
    while (done < min_reps ||
           static_cast<double>(now_ns() - start) * 1e-9 < budget_s) {
        one();
        ++done;
    }
}

double
median_of(const std::vector<Rep> &reps,
          const std::function<double(const Rep &)> &get)
{
    std::vector<double> v;
    for (const Rep &rep : reps)
        v.push_back(get(rep));
    return median(v);
}

std::vector<std::size_t>
sizes(const std::vector<CallLatency> &per_input)
{
    std::vector<std::size_t> out;
    for (const CallLatency &c : per_input)
        out.push_back(c.samples);
    return out;
}

double
seconds_of(const Rep &rep, const std::string &key)
{
    auto it = rep.seconds.find(key);
    return it == rep.seconds.end() ? 0.0 : it->second;
}

double
span_s(const Tracer &t, SpanKind kind, bool self = false)
{
    const SpanTotals s = t.totals(kind);
    return (self ? s.self_ns : s.total_ns) * 1e-9;
}

/**
 * Host seconds per layer of one untraced rep, from the per-call clocks
 * every rep keeps. No span is open, so no tracing cost falls inside.
 */
std::map<std::string, double>
clocked_times(const Rep &rep)
{
    std::map<std::string, double> s;
    for (const char *key : {"sched.admit.busy_s", "sched.allocate.busy_s",
                            "serve.round_busy_s", "serve.plain_busy_s"})
        s[key] = seconds_of(rep, key);
    s["sim.self_s"] = seconds_of(rep, "sim.run_s") -
                      s["sched.admit.busy_s"] - s["sched.allocate.busy_s"];
    return s;
}

/** Host seconds per layer of one traced rep that only spans can give. */
std::map<std::string, double>
span_times(const Tracer &t)
{
    std::map<std::string, double> s;
    double view_s = 0.0;
    double view_self_s = 0.0;
    for (std::size_t k = kFirstView; k < kFirstView + kViewKinds; ++k) {
        view_s += span_s(t, static_cast<SpanKind>(k));
        view_self_s += span_s(t, static_cast<SpanKind>(k), true);
    }
    s["workload.generate_s"] = span_s(t, SpanKind::kGenerate);
    s["sched.admit.self_s"] = span_s(t, SpanKind::kAdmit, true);
    s["sched.allocate.self_s"] = span_s(t, SpanKind::kAllocate, true);
    s["sim.view_s"] = view_s;
    // Self time per layer (a span's duration minus its child spans).
    s["self.workload_s"] = span_s(t, SpanKind::kGenerate, true);
    s["self.sim_s"] = span_s(t, SpanKind::kSimConstruct, true) +
                      span_s(t, SpanKind::kSimRun, true) + view_self_s;
    s["self.sched_s"] = s["sched.admit.self_s"] + s["sched.allocate.self_s"];
    s["self.serve_s"] = span_s(t, SpanKind::kServeConstruct, true) +
                        span_s(t, SpanKind::kServeSubmit, true) +
                        span_s(t, SpanKind::kServeFinish, true);
    return s;
}

/** Per-key medians of per-rep maps (every map has the same keys). */
std::map<std::string, double>
median_each(const std::vector<std::map<std::string, double>> &maps)
{
    std::map<std::string, double> out;
    for (const auto &entry : maps.front()) {
        std::vector<double> v;
        for (const auto &m : maps)
            v.push_back(m.at(entry.first));
        out[entry.first] = median(v);
    }
    return out;
}

void
print_seconds(const std::map<std::string, double> &s)
{
    for (const auto &[name, value] : s)
        std::cout << "  " << name << " = " << number(value) << " s\n";
}

/** Durability cycles a traced run times for the recover layer. */
constexpr int kDurableChecks = 3;
/** Raw spans a traced rep keeps in memory (17 MiB); aggregates and
 *  self times cover every span regardless. */
constexpr std::size_t kMaxSpans = std::size_t{1} << 20;

int
run(const Options &opt)
{
    std::unique_ptr<Workload> workload =
        make_workload(opt.workload, opt.seed);
    if (workload == nullptr) {
        std::cerr << "unknown workload '" << opt.workload << "'\n";
        return 2;
    }
    std::cout << "workload " << opt.workload << "  seed " << opt.seed
              << "  seconds " << number(opt.seconds) << "  trace "
              << (opt.trace ? 1 : 0) << "\n";

    std::vector<std::string> failures = workload->warm_up();

    // The durability cycle runs beside the reps: once as a check, and
    // kDurableChecks times in traced runs for the recover layer.
    std::map<std::string, std::vector<double>> durable;
    std::map<std::string, double> durable_exact;
    for (int i = 0; i < (opt.trace ? kDurableChecks : 1); ++i) {
        Rep check = workload->durable_check();
        failures.insert(failures.end(), check.failures.begin(),
                        check.failures.end());
        for (const auto &[name, value] : check.seconds)
            durable[name].push_back(value);
        durable_exact = check.exact;
    }

    // Untraced repetitions (the whole budget, or half when traced).
    std::vector<Rep> plain;
    repeat(opt.trace ? opt.seconds / 2 : opt.seconds, opt.trace ? 2 : 3,
           [&] {
               plain.push_back(workload->rep(nullptr));
           });

    std::vector<Rep> traced;
    std::vector<std::map<std::string, double>> spans;
    if (opt.trace) {
        std::unique_ptr<Tracer> last;
        repeat(opt.seconds / 2, 1, [&] {
            last = std::make_unique<Tracer>(kMaxSpans);
            traced.push_back(workload->rep(last.get()));
            spans.push_back(span_times(*last));
        });
        const std::string csv = std::string(kOutDir) + "/spans-" +
                                opt.workload + "-seed" +
                                std::to_string(opt.seed) + ".csv";
        if (!last->write_csv(csv))
            failures.push_back("cannot write " + csv);
        std::cout << "spans of the last traced rep: " << last->recorded()
                  << " written to " << csv << ", " << last->dropped()
                  << " more counted but not kept\n";
    }

    // Correctness: every rep's own checks, identical hashes, and the
    // same work done in every rep.
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<const Rep *> all;
    for (const Rep &rep : plain)
        all.push_back(&rep);
    for (const Rep &rep : traced)
        all.push_back(&rep);
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Rep &rep = *all[i];
        std::vector<std::string> errs = rep.failures;
        if (rep.state_hash != all[0]->state_hash)
            errs.push_back("state_hash differs from the first rep's");
        if (sizes(rep.admit) != sizes(all[0]->admit) ||
            sizes(rep.replan) != sizes(all[0]->replan) ||
            rep.exact != all[0]->exact)
            errs.push_back("work counts differ from the first rep's");
        attempted += rep.operations;
        if (!errs.empty())
            failed += rep.operations;
        for (const std::string &e : errs)
            std::cout << "CHECK FAILED (rep " << i << "): " << e << "\n";
    }
    for (const std::string &e : failures)
        std::cout << "CHECK FAILED: " << e << "\n";
    if (!failures.empty())
        failed = attempted;
    const bool correct = failed == 0;

    std::cout << "reps: " << plain.size() << " untraced, " << traced.size()
              << " traced; " << all[0]->operations
              << " operations per rep; state_hash " << std::hex
              << all[0]->state_hash << std::dec << "\n";

    std::vector<Metric> metrics;
    if (!opt.trace) {
        const Latency admit = latency(plain, &Rep::admit);
        const Latency replan = latency(plain, &Rep::replan);
        metrics = {
            {"setup_s", median_of(plain, [](const Rep &r) {
                 return r.setup_s;
             }), "s"},
            {"run_s", median_of(plain, [](const Rep &r) {
                 return r.run_s;
             }), "s"},
            {"replan_p50_us", replan.p50_us, "us"},
            {"replan_tail_us", replan.tail_us, "us"},
            {"peak_rss_mb", peak_rss_mb(), "MiB"},
        };
        std::cout << "end-to-end (median over " << plain.size()
                  << " untraced reps):\n";
        print_metrics(metrics);
        std::cout << "  replan tail = p" << number(replan.tail_p)
                  << " of " << replan.samples << " samples per input\n"
                  << "admission latency (reported, not gated): p50 "
                  << number(admit.p50_us) << " us, p"
                  << number(admit.tail_p) << " " << number(admit.tail_us)
                  << " us, " << admit.samples << " samples per input\n";
    } else {
        const double plain_run =
            median_of(plain, [](const Rep &r) { return r.run_s; });
        const double traced_run =
            median_of(traced, [](const Rep &r) { return r.run_s; });
        // Shares of untraced host time: per rep, then the median.
        std::vector<std::map<std::string, double>> clocked;
        std::vector<std::map<std::string, double>> clocked_pct;
        for (const Rep &rep : plain) {
            clocked.push_back(clocked_times(rep));
            std::map<std::string, double> pct;
            for (const auto &[name, value] : clocked.back())
                pct[name] = rep.run_s > 0.0 ? 100.0 * value / rep.run_s
                                            : 0.0;
            clocked_pct.push_back(pct);
        }
        const std::map<std::string, double> c = median_each(clocked);
        const std::map<std::string, double> c_pct =
            median_each(clocked_pct);
        std::map<std::string, double> s = median_each(spans);
        s["trace.overhead_s"] = traced_run - plain_run;
        for (const auto &[name, values] : durable)
            s[name] = median(values);
        if (!durable.empty())
            s["recover.overhead_s"] =
                s["recover.durable_s"] - s["recover.plain_s"];

        const Rep &r = traced.back();
        auto exact = [&r](const char *name) {
            auto it = r.exact.find(name);
            return it == r.exact.end() ? 0.0 : it->second;
        };
        const double replans = exact("sched.allocate.calls");
        std::cout << "per-layer host time from per-call clocks (median "
                     "over untraced reps; run_s "
                  << number(plain_run) << " s):\n";
        print_seconds(c);
        std::cout << "  sim.self_us_per_replan = "
                  << number(replans > 0.0 ? 1e6 * c.at("sim.self_s") / replans
                                          : 0.0)
                  << " us\n"
                  << "per-layer host time from spans (median over traced "
                     "reps; run_s "
                  << number(traced_run) << " s):\n";
        print_seconds(s);

        auto ratio = [&exact](const char *num, const char *den) {
            const double d = exact(den);
            return d > 0.0 ? exact(num) / d : 0.0;
        };
        auto traced_pct = [&](const std::string &name) {
            return traced_run > 0.0 ? 100.0 * s.at(name) / traced_run
                                    : 0.0;
        };
        // The durability cycle's shares are of its own host time.
        auto durable_pct = [&s](const char *part, const char *whole) {
            const double w = s[whole];
            return w > 0.0 ? 100.0 * s[part] / w : 0.0;
        };
        metrics = {
            {"workload.generate_s", s["workload.generate_s"], "s"},
            {"sim.self_pct", c_pct.at("sim.self_s"), "%"},
            {"sim.view_pct", traced_pct("sim.view_s"), "%"},
            {"sim.view.active_jobs.calls",
             exact("sim.view.active_jobs.calls"), "count"},
            {"sim.view.active_jobs.ids", exact("sim.view.active_jobs.ids"),
             "count"},
            {"sim.view.lookups", exact("sim.view.lookups"), "count"},
            {"sim.replans", exact("sim.replans"), "count"},
            {"sim.replans_coalesced", exact("sim.replans_coalesced"),
             "count"},
            {"sim.replans_elided", exact("sim.replans_elided"), "count"},
            {"sim.hash_samples", exact("sim.hash_samples"), "count"},
            {"sim.alloc_changes", exact("sim.alloc_changes"), "count"},
            {"sched.admit.calls", exact("sched.admit.calls"), "count"},
            {"sched.admit_pct", c_pct.at("sched.admit.busy_s"), "%"},
            {"sched.admit.accept_ratio",
             ratio("sched.admit.accepted", "sched.admit.calls"), "ratio"},
            {"sched.allocate.calls", exact("sched.allocate.calls"),
             "count"},
            {"sched.allocate_pct", c_pct.at("sched.allocate.busy_s"), "%"},
            {"sched.allocate.self_pct", traced_pct("sched.allocate.self_s"),
             "%"},
            {"serve.submit.calls", exact("serve.submit.calls"), "count"},
            {"serve.rounds", exact("serve.rounds"), "count"},
            {"serve.rounds_forced", exact("serve.rounds_forced"), "count"},
            {"serve.round_pct", c_pct.at("serve.round_busy_s"), "%"},
            {"serve.plain_pct", c_pct.at("serve.plain_busy_s"), "%"},
            {"serve.planning_cost", exact("serve.planning_cost"), "units"},
            {"serve.cost_per_round",
             ratio("serve.planning_cost", "serve.rounds"), "units"},
            {"serve.shed_queue_full", exact("serve.shed_queue_full"),
             "count"},
            {"serve.shed_infeasible", exact("serve.shed_infeasible"),
             "count"},
            {"serve.max_queue_depth", exact("serve.max_queue_depth"),
             "count"},
            {"recover.prepare_pct",
             durable_pct("recover.prepare_s", "recover.durable_s"), "%"},
            {"recover.recover_pct",
             durable_pct("recover_s", "recover.durable_s"), "%"},
            {"recover.overhead_pct",
             durable_pct("recover.overhead_s", "recover.plain_s"), "%"},
            {"recover.journal_bytes", durable_exact["recover.journal_bytes"],
             "B"},
            {"recover.snapshot_bytes", durable_exact["recover.snapshot_bytes"],
             "B"},
            {"defrag.rounds", exact("defrag.rounds"), "count"},
            {"defrag.moves", exact("defrag.moves"), "count"},
            {"defrag.moves_per_round", ratio("defrag.moves", "defrag.rounds"),
             "ratio"},
            {"defrag.budget_spent", exact("defrag.budget_spent"), "units"},
            {"cluster.migrations", exact("cluster.migrations"), "count"},
            {"cluster.scaling_events", exact("cluster.scaling_events"),
             "count"},
            {"deadline_ratio",
             ratio("guard.deadlines_met", "guard.deadline_jobs"), "ratio"},
            {"shed_rate", ratio("guard.shed", "guard.jobs"), "ratio"},
            {"avg_fragmentation",
             ratio("guard.fragmentation_pct", "guard.inputs"), "%"},
            {"trace.overhead_pct",
             plain_run > 0.0 ? 100.0 * s["trace.overhead_s"] / plain_run
                             : 0.0,
             "%"},
        };
        std::cout << "per-layer metrics:\n";
        print_metrics(metrics);
    }

    std::cout << json_line(correct, attempted, failed, metrics)
              << std::endl;
    return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace ef

int
main(int argc, char **argv)
{
    ef::perfbench::Options opt;
    if (!ef::perfbench::parse(argc, argv, &opt)) {
        std::cerr << "usage: ef_perfbench --workload NAME --seed N "
                     "--seconds S --trace 0|1\n";
        return 2;
    }
    std::error_code ec;
    std::filesystem::create_directories(ef::perfbench::kOutDir, ec);
    if (ec) {
        std::cerr << "cannot create " << ef::perfbench::kOutDir << ": "
                  << ec.message() << "\n";
        return 2;
    }
    return ef::perfbench::run(opt);
}
