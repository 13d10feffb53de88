/**
 * @file
 * DurableRun: the one binding between a round driver (the Simulator,
 * serve::Service) and its DurableLog (DESIGN.md §12). The driver
 * supplies its full-state encoder, and on recovery the matching
 * decoder; DurableRun owns the protocol around them: fresh open, delta
 * appends, fsync'd round commits (verified instead of written while
 * replaying), the snapshot cadence, and recovery (read-only load, torn
 * tail report, contiguous-commit check, append-mode reopen). It emits
 * the `recover.*` counters and the recovery trace events for both
 * drivers.
 *
 * Snapshots are only ever marked pending; each driver drains them with
 * snapshot_if_due() at its own clean boundary, never at the commit
 * itself, which sits inside the driver's round where the state is one
 * an uninterrupted run never holds between inputs.
 */
#ifndef EF_RECOVER_DURABLE_RUN_H_
#define EF_RECOVER_DURABLE_RUN_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "recover/codec.h"
#include "recover/log.h"

namespace ef::recover {

class DurableRun
{
  public:
    /** Writes the driver's full state as a snapshot payload. */
    using Encode = std::function<void(Encoder *)>;
    /** Where a decoded snapshot leaves the driver. */
    struct Resume
    {
        std::uint64_t round = 0;  ///< round commits the snapshot covers
        double clock = 0.0;
    };
    /** Restores the driver from a snapshot payload. */
    using Decode = std::function<Status(Decoder *, Resume *)>;
    /** Reads a round commit's driver tail; the tail must be consumed
     *  exactly. */
    using TailCheck = std::function<void(Decoder *)>;

    /** One journaled round commit awaiting re-execution. */
    struct Commit
    {
        std::uint64_t round = 0;
        std::uint64_t hash = 0;
        std::string tail;  ///< the driver's bytes after (round, clock, hash)
    };

    explicit DurableRun(Encode encode) : encode_(std::move(encode)) {}
    // The driver's encoder captures the driver itself.
    DurableRun(const DurableRun &) = delete;
    DurableRun &operator=(const DurableRun &) = delete;

    /** Fresh run at round 0 under @p dir; the base snapshot is pending. */
    Status open(const std::string &dir, std::uint64_t snapshot_every);

    /**
     * Load @p dir, decode its snapshot and collect the journaled round
     * commits; the run is then replaying. Records go to @p contents when
     * non-null. A commit whose body is malformed, whose tail fails
     * @p tail_check (empty: the tail must be empty), or whose round is
     * not the next after the snapshot's is a typed kBadRecord.
     */
    Status recover(const std::string &dir, std::uint64_t snapshot_every,
                   const Decode &decode, JournalContents *contents,
                   const TailCheck &tail_check = nullptr);

    /** Replay done at @p clock: reopen for append, snapshot pending. */
    Status end_replay(double clock);

    bool bound() const { return log_ != nullptr || replaying_; }
    bool writing() const { return log_ != nullptr; }
    bool replaying() const { return replaying_; }
    std::size_t unverified_commits() const
    {
        return commits_.size() - next_;
    }

    /** Append one delta record (fsync'd with @p sync); no-op unless
     *  writing. */
    void append(RecordKind kind, const Encoder &body, bool sync = false);

    /**
     * Round boundary. Writing: append the kRoundCommit `(round, clock,
     * hash)` + @p tail and fsync it; every snapshot_every rounds a
     * cadence snapshot becomes pending unless @p cadence is false.
     * Replaying: check (round, hash) against the next journaled commit
     * (divergence is fatal) and return it; null otherwise.
     */
    const Commit *commit(std::uint64_t round, double clock,
                         std::uint64_t hash, const Encoder &tail = {},
                         bool cadence = true);

    /** Write the pending snapshot, if one is due and the log is open.
     *  Inline: the drivers call it after every input. */
    Status
    snapshot_if_due()
    {
        return log_ != nullptr && snapshot_pending_ ? write_snapshot()
                                                    : Status{};
    }

  private:
    void write(RecordKind kind, const std::string &body, bool sync);
    Status write_snapshot();

    Encode encode_;
    std::unique_ptr<DurableLog> log_;
    std::string dir_;
    std::uint64_t snapshot_every_ = 1;
    std::uint64_t round_ = 0;  ///< last committed round
    std::uint64_t snapshot_round_ = 0;
    bool snapshot_pending_ = false;
    bool replaying_ = false;
    std::vector<Commit> commits_;
    std::size_t next_ = 0;
    /** Valid journal bytes at recovery: where appends resume. */
    std::uint64_t valid_bytes_ = 0;
    std::uint64_t loaded_records_ = 0;
};

}  // namespace ef::recover

#endif  // EF_RECOVER_DURABLE_RUN_H_
