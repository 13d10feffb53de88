#include "recover/durable_run.h"

#include <ios>
#include <utility>

#include "common/check.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ef::recover {
namespace {

/** recover.replay_cost_units edges: journal records re-applied. */
const std::vector<double> kReplayEdges = {0,  1,  2,   4,   8,   16,
                                          32, 64, 128, 256, 512, 1024};

}  // namespace

Status
DurableRun::open(const std::string &dir, std::uint64_t snapshot_every)
{
    EF_CHECK_MSG(!bound(), "durability is already bound");
    auto log = std::make_unique<DurableLog>();
    Status st = log->open(dir);
    if (!st.ok())
        return st;
    log_ = std::move(log);
    snapshot_every_ = snapshot_every;
    snapshot_pending_ = true;  // recovery always has a base to load
    return st;
}

Status
DurableRun::recover(const std::string &dir, std::uint64_t snapshot_every,
                    const Decode &decode, JournalContents *contents,
                    const TailCheck &tail_check)
{
    EF_CHECK_MSG(!bound(), "durability is already bound");
    JournalContents local;
    JournalContents &journal = contents != nullptr ? *contents : local;
    std::string snapshot;
    Status st = DurableLog::load(dir, &snapshot, &journal);
    if (!st.ok())
        return st;
    if (!journal.tail.ok()) {
        EF_INFO("recovery: discarding torn journal tail ("
                << journal.tail.to_string() << ")");
    }
    Decoder dec(snapshot);
    Resume at;
    st = decode(&dec, &at);
    if (!st.ok())
        return st;

    // Delta records are the audit trail (or, for the service, inputs
    // the driver re-feeds); only the commits are verified here.
    commits_.clear();
    next_ = 0;
    for (std::size_t i = 0; i < journal.records.size(); ++i) {
        const JournalRecord &rec = journal.records[i];
        if (rec.kind != RecordKind::kRoundCommit)
            continue;
        Decoder body(rec.body);
        Commit commit;
        double clock = 0.0;
        body.u64(&commit.round);
        body.f64(&clock);
        body.u64(&commit.hash);
        commit.tail = rec.body.substr(rec.body.size() - body.remaining());
        if (tail_check)
            tail_check(&body);
        if (!body.ok() || !body.empty()) {
            return Status::error(ErrorCode::kBadRecord,
                                 "malformed round-commit record",
                                 static_cast<std::int64_t>(i));
        }
        if (commit.round != at.round + commits_.size() + 1) {
            return Status::error(ErrorCode::kBadRecord,
                                 "round-commit sequence is not "
                                 "contiguous with the snapshot",
                                 static_cast<std::int64_t>(i));
        }
        commits_.push_back(std::move(commit));
    }
    dir_ = dir;
    snapshot_every_ = snapshot_every;
    round_ = at.round;
    snapshot_round_ = at.round;
    valid_bytes_ = journal.valid_bytes;
    loaded_records_ = journal.records.size();
    replaying_ = true;
    obs::emit({at.clock, obs::EventKind::kRecoveryBegin, kInvalidJob,
               static_cast<std::int64_t>(loaded_records_),
               static_cast<std::int64_t>(commits_.size())});
    return st;
}

Status
DurableRun::end_replay(double clock)
{
    EF_CHECK_MSG(replaying_, "end_replay outside a recovery");
    auto log = std::make_unique<DurableLog>();
    Status st = log->open_existing(dir_, valid_bytes_);
    if (!st.ok())
        return st;
    log_ = std::move(log);
    replaying_ = false;
    snapshot_pending_ = true;  // re-anchor the log at the recovered state
    obs::emit({clock, obs::EventKind::kRecoveryEnd, kInvalidJob,
               static_cast<std::int64_t>(next_)});
    // Deterministic replay cost: journal records loaded. (A wall-clock
    // replay time would break byte-identical obs dumps.)
    obs::observe("recover.replay_cost_units", kReplayEdges,
                 static_cast<double>(loaded_records_));
    return st;
}

void
DurableRun::write(RecordKind kind, const std::string &body, bool sync)
{
    Status st = log_->append(kind, body);
    if (st.ok() && sync)
        st = log_->commit();
    EF_FATAL_IF(!st.ok(), "durability: journal "
                              << record_kind_name(kind)
                              << " write failed: " << st.to_string());
    obs::count("recover.journal_records");
}

void
DurableRun::append(RecordKind kind, const Encoder &body, bool sync)
{
    if (log_ != nullptr)
        write(kind, body.data(), sync);
}

const DurableRun::Commit *
DurableRun::commit(std::uint64_t round, double clock, std::uint64_t hash,
                   const Encoder &tail, bool cadence)
{
    round_ = round;
    if (replaying_) {
        // Rounds past the last journaled commit are new work whose
        // commit was lost to the crash: nothing to verify.
        if (next_ == commits_.size())
            return nullptr;
        const Commit &want = commits_[next_];
        EF_FATAL_IF(want.round != round || want.hash != hash,
                    "recovery divergence at round "
                        << round << ": journal has (round " << want.round
                        << ", hash " << std::hex << want.hash
                        << "), re-execution produced hash " << hash
                        << std::dec);
        ++next_;
        obs::count("recover.replay_rounds");
        return &want;
    }
    if (log_ == nullptr)
        return nullptr;
    Encoder head;
    head.u64(round);
    head.f64(clock);
    head.u64(hash);
    write(RecordKind::kRoundCommit, head.data() + tail.data(),
          /*sync=*/true);
    if (cadence && round - snapshot_round_ >= snapshot_every_)
        snapshot_pending_ = true;
    return nullptr;
}

Status
DurableRun::write_snapshot()
{
    snapshot_pending_ = false;
    Encoder enc;
    encode_(&enc);
    Status st = log_->write_snapshot(enc.data());
    if (!st.ok()) {
        log_.reset();
        return st;
    }
    snapshot_round_ = round_;
    obs::count("recover.snapshots");
    obs::count("recover.snapshot_bytes", enc.size());
    obs::gauge_set("recover.snapshot_bytes_last",
                   static_cast<double>(enc.size()));
    return st;
}

}  // namespace ef::recover
