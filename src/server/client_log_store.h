#ifndef DLOG_SERVER_CLIENT_LOG_STORE_H_
#define DLOG_SERVER_CLIENT_LOG_STORE_H_

#include <cstdint>
#include <map>
#include <vector>

#include "common/log_types.h"
#include "common/result.h"
#include "common/status.h"

namespace dlog::server {

/// One client's portion of a log server's state (Section 3.1.1): the
/// records themselves (keyed <LSN, Epoch>, each with a present flag), the
/// derived interval list, and the staging area for recovery-time copies.
///
/// The interval list is also the index: each interval occupies a
/// contiguous run of the stream, so a record's position is its interval's
/// start plus its LSN offset (a server holds a handful of intervals per
/// client, so a linear scan beats any tree). Each record also carries the
/// disk track that holds it, or kInNvram while it waits in the group
/// buffer.
///
/// Semantics enforced here:
///  * stream writes: "Successive records on a log server are written with
///    non decreasing LSNs and non decreasing epoch numbers" — a Write
///    either extends the tail sequence or starts a new one at an LSN and
///    epoch that keep both monotone (gaps are allowed: the skipped
///    records live on other servers);
///  * CopyLog records may have lower LSNs but are invisible until
///    InstallCopies atomically installs every copy staged with the same
///    epoch number;
///  * duplicates (same <LSN, Epoch>, same contents) are accepted
///    idempotently — the transport may redeliver.
class ClientLogStore {
 public:
  ClientLogStore() = default;

  /// Appends `record` to the stream, subject to the monotonicity rules
  /// above. Returns FailedPrecondition for out-of-order writes and
  /// Corruption for a <LSN, Epoch> duplicate with different contents.
  Status Write(const LogRecord& record);

  /// ServerReadLog: "returns the present flag and log record with highest
  /// epoch number and the requested LSN". NotFound if the LSN is not
  /// stored at any epoch.
  Result<LogRecord> Read(Lsn lsn) const;

  /// True if a record with this exact <LSN, Epoch> is stored.
  bool Contains(Lsn lsn, Epoch epoch) const {
    return Find(lsn, epoch) != kNotStored;
  }

  /// Track number of a record still in the NVRAM group buffer.
  static constexpr uint64_t kInNvram = ~uint64_t{0};

  /// The disk track holding the record Read(lsn) returns: kInNvram while
  /// it is buffered, and also when the LSN is not stored.
  uint64_t TrackOf(Lsn lsn) const;

  /// Notes that <lsn, epoch> reached disk `track` (no-op if not stored).
  /// A non-empty `payload` replaces the record's bytes: the flush path
  /// passes a view of the same bytes in the track image, so the record
  /// no longer keeps its arriving packet alive.
  void SetTrack(Lsn lsn, Epoch epoch, uint64_t track,
                SharedBytes payload = {});

  /// The IntervalList operation: maximal runs of consecutive LSNs with
  /// equal epochs, in stream order.
  IntervalList Intervals() const;

  /// Stages a recovery-time copy tagged with `record.epoch` (the client's
  /// new epoch). Staged records are not readable and not in Intervals().
  /// Copies may target any LSN ("log servers accept CopyLog calls for
  /// records with LSNs that are lower than the highest...").
  Status StageCopy(const LogRecord& record);

  /// Atomically installs every record staged with `epoch` (appending them
  /// to the stream in LSN order) and returns the records actually
  /// appended (so the caller can persist them). OK and empty if none are
  /// staged.
  Result<std::vector<LogRecord>> InstallCopies(Epoch epoch);

  /// Total encoded payload bytes staged under `epoch` (capacity checks).
  size_t StagedBytes(Epoch epoch) const;

  /// Log space management (Section 5.3): discards every record with
  /// LSN < `below`, clipping intervals accordingly. Returns the number
  /// of records discarded.
  size_t TruncateBelow(Lsn below);

  /// Highest LSN in the stream (kNoLsn when empty).
  Lsn HighestLsn() const { return highest_lsn_; }
  /// Epoch of the tail sequence (0 when empty).
  Epoch TailEpoch() const;
  /// The LSN that would extend the tail sequence.
  Lsn ExpectedNextLsn() const { return HighestLsn() + 1; }

  size_t record_count() const { return stream_.size(); }
  size_t staged_count() const;

  /// Rebuilds state from records in original stream write order (the
  /// disk-scan recovery path). Trusts the input: no validation.
  static ClientLogStore FromRecords(const std::vector<LogRecord>& records);

  /// All stored records in stream write order (checkpoint/scan helper).
  const std::vector<LogRecord>& stream() const { return stream_; }
  /// The disk track of each stream() record (kInNvram while buffered).
  const std::vector<uint64_t>& tracks() const { return tracks_; }

 private:
  static constexpr size_t kNotStored = ~size_t{0};

  /// Stream position of <lsn, epoch>, or kNotStored.
  size_t Find(Lsn lsn, Epoch epoch) const;
  /// Stream position of the highest-epoch record for `lsn`, or
  /// kNotStored. Epochs must be compared: InstallCopies may append a
  /// lower epoch after a higher one.
  size_t FindHighestEpoch(Lsn lsn) const;
  /// Appends without validation and maintains the sequence list.
  void AppendToStream(LogRecord record, uint64_t track);

  std::vector<LogRecord> stream_;  // write order, including installed copies
  std::vector<uint64_t> tracks_;   // parallel to stream_
  // Derived interval list in write order; the last element is the tail.
  std::vector<Interval> sequences_;
  // Stream position of each sequence's low LSN (parallel to sequences_).
  std::vector<size_t> sequence_starts_;
  Lsn highest_lsn_ = kNoLsn;
  // Copies staged by epoch, in arrival order.
  std::map<Epoch, std::vector<LogRecord>> staged_;
};

}  // namespace dlog::server

#endif  // DLOG_SERVER_CLIENT_LOG_STORE_H_
