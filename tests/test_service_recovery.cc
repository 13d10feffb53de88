/**
 * @file
 * Serve-mode crash recovery under pressure (DESIGN.md §12): a Service
 * killed with a non-empty admission queue and a mid-bucket governor
 * must recover to a state whose verdict stream is exactly-once — a
 * verdict whose journal record reached disk before the crash is never
 * re-delivered by the replay — while the starvation-horizon bound and
 * the round-hash chain both survive the crash. Also covers the
 * simulator's streaming-admission (service) mode through the same
 * crash-at-round harness, and the typed errors both drivers give for a
 * journal whose round commits skip a round or are truncated.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "fault/fault.h"
#include "recover/journal.h"
#include "recover/log.h"
#include "sched/scheduler.h"
#include "serve/service.h"
#include "serve/stream.h"
#include "sim/simulator.h"
#include "workload/trace_gen.h"

namespace ef {
namespace {

std::string
fresh_dir(const std::string &name)
{
    const std::string dir = testing::TempDir() + "/" + name;
    std::remove(recover::DurableLog::snapshot_path(dir).c_str());
    std::remove(recover::DurableLog::journal_path(dir).c_str());
    return dir;
}

serve::ServiceConfig
pressured_config()
{
    serve::ServiceConfig config;
    config.total_gpus = 16;
    config.queue_watermark = 8;
    // A slow bucket, so submissions pile up between rounds and the
    // governor is mid-refill at any interesting crash point.
    config.governor.rounds_per_second = 0.01;
    config.governor.burst = 1.0;
    config.governor.starvation_horizon_s = 300.0;
    return config;
}

std::vector<serve::Submission>
burst_stream(int n, std::uint64_t seed = 7)
{
    serve::StreamConfig stream_config;
    stream_config.topology = TopologySpec::with_total_gpus(16);
    stream_config.arrival_rate = 0.05;
    stream_config.seed = seed;
    serve::SyntheticStream stream(stream_config);
    std::vector<serve::Submission> subs;
    subs.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        subs.push_back(stream.next());
    return subs;
}

TEST(ServiceRecovery, ExactlyOnceVerdictsUnderPressure)
{
    const int kSubs = 40;
    const int kCrashAfter = 17;  // crash mid-stream, queue non-empty
    const std::vector<serve::Submission> subs = burst_stream(kSubs);

    // Uninterrupted reference run.
    std::vector<serve::Decision> want;
    serve::Service reference(pressured_config());
    reference.set_decision_callback(
        [&](const serve::Decision &d) { want.push_back(d); });
    for (const serve::Submission &sub : subs)
        reference.submit(sub);
    reference.finish();
    const std::uint64_t want_hash = reference.state_hash();

    // Durable run killed after kCrashAfter submissions.
    const std::string dir = fresh_dir("ef_service_crash");
    std::vector<serve::Decision> before;
    std::size_t queue_at_crash = 0;
    {
        serve::Service service(pressured_config());
        ASSERT_TRUE(service
                        .bind_durability(dir, /*snapshot_every=*/4,
                                         /*recover=*/false)
                        .ok());
        service.set_decision_callback(
            [&](const serve::Decision &d) { before.push_back(d); });
        for (int i = 0; i < kCrashAfter; ++i)
            service.submit(subs[static_cast<std::size_t>(i)]);
        queue_at_crash = service.queue_depth();
        // The Service object dies here with its queue still loaded —
        // the on-disk journal is all that survives.
    }
    ASSERT_GT(queue_at_crash, 0u) << "crash point lost its pressure";

    // Recover into a fresh Service and finish the stream.
    std::vector<serve::Decision> after;
    serve::Service recovered(pressured_config());
    recovered.set_decision_callback(
        [&](const serve::Decision &d) { after.push_back(d); });
    ASSERT_TRUE(recovered
                    .bind_durability(dir, /*snapshot_every=*/4,
                                     /*recover=*/true)
                    .ok());
    EXPECT_EQ(recovered.queue_depth(), queue_at_crash);
    for (int i = kCrashAfter; i < kSubs; ++i)
        recovered.submit(subs[static_cast<std::size_t>(i)]);
    recovered.finish();

    // Exactly-once: pre-crash verdicts and post-recovery verdicts
    // concatenate to precisely the uninterrupted stream — nothing
    // re-issued, nothing lost.
    ASSERT_EQ(before.size() + after.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        const serve::Decision &got = i < before.size()
                                         ? before[i]
                                         : after[i - before.size()];
        EXPECT_EQ(got.id, want[i].id) << "verdict " << i;
        EXPECT_EQ(got.verdict, want[i].verdict) << "verdict " << i;
        EXPECT_EQ(got.decide_time, want[i].decide_time)
            << "verdict " << i;
    }
    EXPECT_EQ(recovered.state_hash(), want_hash);
    EXPECT_EQ(recovered.stats().submitted,
              reference.stats().submitted);
    EXPECT_EQ(recovered.stats().rounds, reference.stats().rounds);

    // Starvation bound survives the crash: no queued submission
    // waited past the horizon for its verdict.
    const Time horizon =
        pressured_config().governor.starvation_horizon_s;
    for (std::size_t i = 0; i < after.size(); ++i) {
        EXPECT_LE(after[i].decide_time - after[i].submit_time,
                  horizon + 1e-9)
            << "verdict " << i;
    }
}

TEST(ServiceRecovery, CrashAtEverySubmissionPrefix)
{
    const int kSubs = 24;
    const std::vector<serve::Submission> subs = burst_stream(kSubs, 11);

    serve::Service reference(pressured_config());
    for (const serve::Submission &sub : subs)
        reference.submit(sub);
    reference.finish();

    // snapshot_every = 1 makes nearly every round's cadence snapshot
    // land at the end of a submit() that committed it, so the deferral
    // past the in-flight submission's journal record is exercised.
    for (const std::uint64_t every : {std::uint64_t{1}, std::uint64_t{4}}) {
        for (int crash = 1; crash < kSubs; crash += 3) {
            const std::string dir =
                fresh_dir("ef_service_prefix_" + std::to_string(every) +
                          "_" + std::to_string(crash));
            {
                serve::Service service(pressured_config());
                ASSERT_TRUE(
                    service.bind_durability(dir, every, false).ok());
                for (int i = 0; i < crash; ++i)
                    service.submit(subs[static_cast<std::size_t>(i)]);
            }
            serve::Service recovered(pressured_config());
            ASSERT_TRUE(recovered.bind_durability(dir, every, true).ok());
            for (int i = crash; i < kSubs; ++i)
                recovered.submit(subs[static_cast<std::size_t>(i)]);
            recovered.finish();
            EXPECT_EQ(recovered.state_hash(), reference.state_hash())
                << "snapshot_every " << every << ", crash after "
                << "submission " << crash;
        }
    }
}

TEST(ServiceRecovery, RecoveryIsReadOnlyUntilRebind)
{
    // Crashing again mid-recovery must be harmless: DurableLog::load
    // never mutates the directory, so a second recovery sees the same
    // bytes.
    const std::vector<serve::Submission> subs = burst_stream(20, 3);
    const std::string dir = fresh_dir("ef_service_recrash");
    {
        serve::Service service(pressured_config());
        ASSERT_TRUE(service.bind_durability(dir, 4, false).ok());
        for (int i = 0; i < 12; ++i)
            service.submit(subs[static_cast<std::size_t>(i)]);
    }
    serve::Service first(pressured_config());
    ASSERT_TRUE(first.bind_durability(dir, 4, true).ok());
    const std::uint64_t hash_first = first.state_hash();

    // "first" dies right after recovery (before any new input); its
    // rebind rewrote the snapshot, but the recovered state is the
    // same, so a second recovery lands in the same place.
    serve::Service second(pressured_config());
    ASSERT_TRUE(second.bind_durability(dir, 4, true).ok());
    EXPECT_EQ(second.state_hash(), hash_first);
    EXPECT_EQ(second.queue_depth(), first.queue_depth());
}

TEST(ServiceRecovery, MismatchedConfigIsTypedError)
{
    const std::vector<serve::Submission> subs = burst_stream(8, 5);
    const std::string dir = fresh_dir("ef_service_mismatch");
    {
        serve::Service service(pressured_config());
        ASSERT_TRUE(service.bind_durability(dir, 4, false).ok());
        for (const serve::Submission &sub : subs)
            service.submit(sub);
    }
    serve::ServiceConfig other = pressured_config();
    other.total_gpus = 32;
    serve::Service recovered(other);
    recover::Status st = recovered.bind_durability(dir, 4, true);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code, recover::ErrorCode::kStateMismatch);
}

TEST(ServiceRecovery, SimulatorServiceModeCrashRecovers)
{
    // The simulator's streaming-admission mode carries the admission
    // queue and governor bucket inside the simulator snapshot; a
    // sched-crash mid-run must recover bit-identically there too.
    TraceGenConfig gen = testbed_small_preset();
    gen.seed = 13;
    const Trace trace = TraceGenerator::generate(gen);

    SimConfig base;
    base.service.enabled = true;
    base.service.queue_watermark = 4;
    base.service.governor.rounds_per_second = 0.001;
    base.service.governor.burst = 1.0;
    base.service.governor.starvation_horizon_s = 2.0 * kHour;
    base.faults.script.push_back([] {
        FaultEvent ev;
        ev.time = 0.0;
        ev.type = FaultType::kSchedCrash;
        ev.target = 1;
        return ev;
    }());

    RunResult baseline;
    {
        auto scheduler = make_scheduler("elasticflow");
        Simulator sim(trace, scheduler.get(), base);
        baseline = sim.run();
        ASSERT_FALSE(sim.crashed());  // no journal, crash can't fire
    }
    ASSERT_GT(baseline.state_hash_samples, 2u);

    for (std::uint64_t n = 1; n <= baseline.state_hash_samples;
         n += 2) {
        const std::string dir =
            fresh_dir("ef_service_sim_" + std::to_string(n));
        SimConfig config = base;
        config.faults.script.clear();
        config.faults.script.push_back([n] {
            FaultEvent ev;
            ev.time = 0.0;
            ev.type = FaultType::kSchedCrash;
            ev.target = static_cast<std::int64_t>(n);
            return ev;
        }());
        config.durability.journal_dir = dir;
        {
            auto scheduler = make_scheduler("elasticflow");
            Simulator sim(trace, scheduler.get(), config);
            sim.run();
            ASSERT_TRUE(sim.crashed()) << "round " << n;
        }
        config.durability.recover = true;
        auto scheduler = make_scheduler("elasticflow");
        Simulator sim(trace, scheduler.get(), config);
        ASSERT_TRUE(sim.prepare_durability().ok());
        RunResult recovered = sim.run();
        EXPECT_EQ(recovered.state_hash, baseline.state_hash)
            << "round " << n;
        EXPECT_EQ(recovered.state_hash_samples,
                  baseline.state_hash_samples)
            << "round " << n;
        EXPECT_EQ(recovered.shed_queue_full, baseline.shed_queue_full)
            << "round " << n;
    }
}

enum class Driver { kSimulator, kService };
enum class BadCommit { kSkipsARound, kTruncatedBody };

/** The simulator run behind the bad-commit cases: crashes at round 3. */
recover::Status
run_simulator(const std::string &dir, bool recover)
{
    TraceGenConfig gen = testbed_small_preset();
    gen.seed = 13;
    SimConfig config;
    config.durability.journal_dir = dir;
    config.durability.recover = recover;
    FaultEvent crash;
    crash.type = FaultType::kSchedCrash;
    crash.target = 3;
    config.faults.script.push_back(crash);
    auto scheduler = make_scheduler("elasticflow");
    Simulator sim(TraceGenerator::generate(gen), scheduler.get(), config);
    if (recover)
        return sim.prepare_durability();
    sim.run();
    EXPECT_TRUE(sim.crashed());
    return recover::Status{};
}

/**
 * A fresh run of @p driver that leaves a real journal ending in round
 * commits, or (with @p recover) the driver's recovery from it.
 */
recover::Status
run_driver(Driver driver, const std::string &dir, bool recover)
{
    if (driver == Driver::kSimulator)
        return run_simulator(dir, recover);
    serve::Service service(pressured_config());
    // No cadence snapshot, so every round commit stays journaled.
    recover::Status st = service.bind_durability(dir, 1000, recover);
    if (!recover) {
        EXPECT_TRUE(st.ok()) << st.to_string();
        for (const serve::Submission &sub : burst_stream(12, 3))
            service.submit(sub);
    }
    return st;
}

class BadRoundCommit
    : public testing::TestWithParam<std::tuple<Driver, BadCommit>>
{
};

TEST_P(BadRoundCommit, IsATypedErrorFromEitherDriver)
{
    // A checksum-valid round commit with a bad body appended to a real
    // journal: recovery must refuse it with a typed kBadRecord, never
    // abort.
    const auto [driver, bad] = GetParam();
    const std::string dir = fresh_dir(
        "ef_bad_commit_" +
        std::to_string(static_cast<int>(driver)) + "_" +
        std::to_string(static_cast<int>(bad)));
    run_driver(driver, dir, /*recover=*/false);
    const std::string path = recover::DurableLog::journal_path(dir);
    recover::JournalContents contents;
    ASSERT_TRUE(recover::read_journal(path, &contents).ok());
    std::string body;
    for (const recover::JournalRecord &rec : contents.records) {
        if (rec.kind == recover::RecordKind::kRoundCommit)
            body = rec.body;
    }
    ASSERT_FALSE(body.empty()) << "the journal holds no round commit";
    if (bad == BadCommit::kSkipsARound) {
        // The body starts with the u64 round: jump one ahead.
        recover::Decoder dec(body);
        std::uint64_t round = 0;
        ASSERT_TRUE(dec.u64(&round));
        recover::Encoder skipped;
        skipped.u64(round + 2);
        body = skipped.data() + body.substr(8);
    } else {
        body.pop_back();
    }
    {
        recover::JournalWriter writer;
        ASSERT_TRUE(writer.open(path, false, contents.valid_bytes).ok());
        ASSERT_TRUE(
            writer.append(recover::RecordKind::kRoundCommit, body).ok());
        ASSERT_TRUE(writer.commit().ok());
    }
    const recover::Status st = run_driver(driver, dir, /*recover=*/true);
    EXPECT_EQ(st.code, recover::ErrorCode::kBadRecord) << st.to_string();
}

INSTANTIATE_TEST_SUITE_P(
    BothDrivers, BadRoundCommit,
    testing::Combine(testing::Values(Driver::kSimulator,
                                     Driver::kService),
                     testing::Values(BadCommit::kSkipsARound,
                                     BadCommit::kTruncatedBody)),
    [](const testing::TestParamInfo<BadRoundCommit::ParamType> &c) {
        return std::string(std::get<0>(c.param) == Driver::kService
                               ? "Service"
                               : "Simulator") +
               (std::get<1>(c.param) == BadCommit::kSkipsARound
                    ? "SkipsARound"
                    : "TruncatedBody");
    });

}  // namespace
}  // namespace ef
