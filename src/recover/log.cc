#include "recover/log.h"

#include "recover/file_util.h"
#include "recover/snapshot.h"

namespace ef::recover {

std::string
DurableLog::snapshot_path(const std::string &dir)
{
    return dir + "/snapshot.bin";
}

std::string
DurableLog::journal_path(const std::string &dir)
{
    return dir + "/journal.bin";
}

Status
DurableLog::load(const std::string &dir, std::string *snapshot,
                 JournalContents *contents)
{
    Status st = read_snapshot_file(snapshot_path(dir), snapshot);
    if (!st.ok())
        return st;
    if (!file_exists(journal_path(dir))) {
        // Snapshot without a journal: valid (crash right after a
        // snapshot replaced it but before the fresh journal landed).
        contents->records.clear();
        contents->tail = Status{};
        contents->valid_bytes = 0;
        return Status{};
    }
    return read_journal(journal_path(dir), contents);
}

Status
DurableLog::open(const std::string &dir)
{
    Status st = ensure_dir(dir);
    if (!st.ok())
        return st;
    dir_ = dir;
    st = journal_.open(journal_path(dir), /*truncate=*/true);
    if (!st.ok())
        return st;
    return fsync_parent_dir(journal_path(dir));
}

Status
DurableLog::open_existing(const std::string &dir,
                          std::uint64_t existing_bytes)
{
    Status st = ensure_dir(dir);
    if (!st.ok())
        return st;
    dir_ = dir;
    if (!file_exists(journal_path(dir))) {
        // Snapshot-only recovery (crash landed between a snapshot and
        // the fresh journal): nothing to preserve, start clean.
        st = journal_.open(journal_path(dir), /*truncate=*/true);
    } else {
        st = journal_.open(journal_path(dir), /*truncate=*/false,
                           existing_bytes);
    }
    if (!st.ok())
        return st;
    return fsync_parent_dir(journal_path(dir));
}

Status
DurableLog::write_snapshot(const std::string &payload)
{
    Status st = write_snapshot_file(snapshot_path(dir_), payload);
    if (!st.ok())
        return st;
    // The snapshot subsumes everything journaled so far.
    return journal_.truncate_all();
}

Status
DurableLog::append(RecordKind kind, const std::string &body)
{
    return journal_.append(kind, body);
}

Status
DurableLog::commit()
{
    return journal_.commit();
}

}  // namespace ef::recover
