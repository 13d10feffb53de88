/**
 * @file
 * The benchmark's workloads. Each one builds its inputs from the seed,
 * drives the libraries through their public entry points, and checks
 * its own outputs. See README.md for why each workload exists.
 */
#ifndef EF_PERFBENCH_WORKLOADS_H_
#define EF_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"

namespace ef {
namespace perfbench {

/**
 * One measured repetition: set-up plus the measured phase over every
 * input of the run (a workload covers several independently seeded
 * inputs per run, so one seed's quirks weigh less).
 */
struct Rep
{
    double setup_s = 0.0;  ///< input generation + construction
    double run_s = 0.0;    ///< the measured phase
    /** Admission latency per input: Scheduler::admit, or (service) a
     *  submit() that committed no planning round. */
    std::vector<CallLatency> admit;
    /** Planning-round latency per input: Scheduler::allocate, or
     *  (service) a submit() that committed a round. */
    std::vector<CallLatency> replan;
    /** Submitted jobs or submissions. */
    std::uint64_t operations = 0;
    std::uint64_t state_hash = 0;
    /** Correctness checks that failed (empty = the rep is correct). */
    std::vector<std::string> failures;
    /** Exact per-layer values (counts, behaviour guards, bytes). */
    std::map<std::string, double> exact;
    /** Host seconds clocked per call in every rep, traced or not
     *  (sched.admit.busy_s, serve.round_busy_s, ...). */
    std::map<std::string, double> seconds;
};

/** A workload instance bound to one seed. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /**
     * Unmeasured reference run: warms caches and fixes what every
     * measured repetition is checked against (for the simulator
     * workloads, an unwrapped run's state_hash). Returns the failed
     * checks, if any.
     */
    virtual std::vector<std::string> warm_up() = 0;

    /** One measured repetition; @p tracer is null when untraced. */
    virtual Rep rep(Tracer *tracer) = 0;

    /**
     * An unmeasured durability cycle run beside the reps (churn-durable:
     * crash one input late and recover it). Its failures count against
     * the run; its seconds feed the recover layer's metrics. Empty for
     * workloads without one.
     */
    virtual Rep durable_check() { return {}; }
};

/** Scratch output (span dumps, the churn-durable journal), relative to
 *  the working directory. */
inline constexpr const char *kOutDir = ".bench_out";

/** Build @p name for @p seed. Null for an unknown name. */
std::unique_ptr<Workload> make_workload(const std::string &name,
                                        std::uint64_t seed);

}  // namespace perfbench
}  // namespace ef

#endif  // EF_PERFBENCH_WORKLOADS_H_
