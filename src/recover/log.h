/**
 * @file
 * DurableLog: a journal directory holding one snapshot plus one
 * write-ahead journal, with snapshot-triggered truncation.
 *
 * Protocol (see DESIGN.md §12; recover::DurableRun drives it for both
 * round drivers):
 *   - A fresh run calls open() (restarts the journal) and then
 *     write_snapshot() with the initial state, so recovery always has
 *     a base to load.
 *   - Steady state appends delta records and ends every round with a
 *     round-commit record followed by commit() — the fsync'd commit
 *     point. Every snapshot_every rounds the owner writes a new
 *     snapshot, which atomically replaces the old one and truncates
 *     the journal (the snapshot subsumes it).
 *   - Recovery calls load() (read-only: a crash during recovery leaves
 *     the directory untouched and recovery simply restarts), replays
 *     the journal tail, and only then calls open_existing() to append
 *     after the replayed records, followed by write_snapshot() to
 *     re-anchor the log at the recovered state.
 */
#ifndef EF_RECOVER_LOG_H_
#define EF_RECOVER_LOG_H_

#include <cstdint>
#include <string>

#include "recover/codec.h"
#include "recover/journal.h"

namespace ef::recover {

class DurableLog
{
  public:
    /** snapshot/journal file names inside a journal directory. */
    static std::string snapshot_path(const std::string &dir);
    static std::string journal_path(const std::string &dir);

    /**
     * Read-only recovery load: verified snapshot payload plus every
     * valid journal record (torn tails reported via contents->tail).
     * Non-ok on unreadable/corrupt snapshot or a structurally bad
     * journal head.
     */
    static Status load(const std::string &dir, std::string *snapshot,
                       JournalContents *contents);

    /**
     * Start (or restart) writing under `dir`: creates the directory if
     * needed and truncates the journal. The caller must follow up with
     * write_snapshot() of its current state before appending deltas.
     */
    Status open(const std::string &dir);

    /**
     * Reopen for appending after a recovery load, keeping the replayed
     * journal records in place. `existing_bytes` is the reader's
     * JournalContents::valid_bytes — any torn tail beyond it is chopped
     * off before new records land. Until the caller's next
     * write_snapshot(), the on-disk state (old snapshot + full journal)
     * stays recoverable, so a crash before that snapshot loses nothing.
     */
    Status open_existing(const std::string &dir,
                         std::uint64_t existing_bytes);

    /** Atomically replace the snapshot and truncate the journal. */
    Status write_snapshot(const std::string &payload);

    /** Append one delta record (durable at the next commit()). */
    Status append(RecordKind kind, const std::string &body);

    /** fsync'd commit point. */
    Status commit();

    std::uint64_t journal_records() const { return journal_.records(); }

  private:
    std::string dir_;
    JournalWriter journal_;
};

}  // namespace ef::recover

#endif  // EF_RECOVER_LOG_H_
