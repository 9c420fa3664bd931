#include "server/client_log_store.h"

#include <algorithm>
#include <cassert>

namespace dlog::server {

size_t ClientLogStore::Find(Lsn lsn, Epoch epoch) const {
  for (size_t i = 0; i < sequences_.size(); ++i) {
    const Interval& seq = sequences_[i];
    if (seq.epoch == epoch && seq.Contains(lsn)) {
      return sequence_starts_[i] + (lsn - seq.low);
    }
  }
  return kNotStored;
}

size_t ClientLogStore::FindHighestEpoch(Lsn lsn) const {
  size_t best = kNotStored;
  Epoch best_epoch = 0;
  for (size_t i = 0; i < sequences_.size(); ++i) {
    const Interval& seq = sequences_[i];
    if (!seq.Contains(lsn)) continue;
    if (best == kNotStored || seq.epoch > best_epoch) {
      best = sequence_starts_[i] + (lsn - seq.low);
      best_epoch = seq.epoch;
    }
  }
  return best;
}

void ClientLogStore::AppendToStream(LogRecord record, uint64_t track) {
  highest_lsn_ = std::max(highest_lsn_, record.lsn);
  bool extends = false;
  if (!sequences_.empty()) {
    Interval& tail = sequences_.back();
    if (tail.epoch == record.epoch && record.lsn == tail.high + 1) {
      tail.high = record.lsn;
      extends = true;
    }
  }
  if (!extends) {
    sequences_.push_back(Interval{record.epoch, record.lsn, record.lsn});
    sequence_starts_.push_back(stream_.size());
  }
  stream_.push_back(std::move(record));
  tracks_.push_back(track);
}

Status ClientLogStore::Write(const LogRecord& record) {
  if (record.lsn == kNoLsn) {
    return Status::InvalidArgument("LSN 0 is reserved");
  }
  const size_t existing = Find(record.lsn, record.epoch);
  if (existing != kNotStored) {
    if (stream_[existing] == record) return Status::OK();  // redelivery
    return Status::Corruption(
        "different contents for an existing <LSN, Epoch>");
  }
  if (!sequences_.empty()) {
    const Interval& tail = sequences_.back();
    // Keep both LSN and epoch non-decreasing along the stream. A repeat
    // of the tail LSN is legal only with a higher epoch (the recovery
    // re-copy of the highest record, e.g. <9,4> after <9,3> in Fig 3-3).
    if (record.epoch < tail.epoch) {
      return Status::FailedPrecondition("epoch lower than tail sequence");
    }
    if (record.lsn <= tail.high &&
        !(record.lsn == tail.high && record.epoch > tail.epoch)) {
      return Status::FailedPrecondition("LSN not beyond the stream tail");
    }
  }
  AppendToStream(record, kInNvram);
  return Status::OK();
}

Result<LogRecord> ClientLogStore::Read(Lsn lsn) const {
  const size_t pos = FindHighestEpoch(lsn);
  if (pos == kNotStored) return Status::NotFound("LSN not stored");
  return stream_[pos];
}

uint64_t ClientLogStore::TrackOf(Lsn lsn) const {
  const size_t pos = FindHighestEpoch(lsn);
  return pos == kNotStored ? kInNvram : tracks_[pos];
}

void ClientLogStore::SetTrack(Lsn lsn, Epoch epoch, uint64_t track,
                              SharedBytes payload) {
  const size_t pos = Find(lsn, epoch);
  if (pos == kNotStored) return;  // truncated since it was buffered
  tracks_[pos] = track;
  if (!payload.empty()) {
    assert(payload == stream_[pos].data);
    stream_[pos].data = std::move(payload);
  }
}

IntervalList ClientLogStore::Intervals() const { return sequences_; }

Status ClientLogStore::StageCopy(const LogRecord& record) {
  if (record.lsn == kNoLsn) {
    return Status::InvalidArgument("LSN 0 is reserved");
  }
  staged_[record.epoch].push_back(record);
  return Status::OK();
}

Result<std::vector<LogRecord>> ClientLogStore::InstallCopies(Epoch epoch) {
  auto it = staged_.find(epoch);
  if (it == staged_.end()) return std::vector<LogRecord>{};
  std::vector<LogRecord> copies = std::move(it->second);
  staged_.erase(it);
  std::stable_sort(copies.begin(), copies.end(),
                   [](const LogRecord& a, const LogRecord& b) {
                     return a.lsn < b.lsn;
                   });
  std::vector<LogRecord> installed;
  for (const LogRecord& r : copies) {
    const size_t existing = Find(r.lsn, r.epoch);
    if (existing != kNotStored) {
      // A retried recovery may re-install the same copy.
      if (stream_[existing] == r) continue;
      return Status::Corruption("conflicting copy for <LSN, Epoch>");
    }
    AppendToStream(r, kInNvram);
    installed.push_back(r);
  }
  return installed;
}

size_t ClientLogStore::StagedBytes(Epoch epoch) const {
  auto it = staged_.find(epoch);
  if (it == staged_.end()) return 0;
  size_t n = 0;
  for (const LogRecord& r : it->second) n += r.data.size() + 32;
  return n;
}

size_t ClientLogStore::staged_count() const {
  size_t n = 0;
  for (const auto& [epoch, records] : staged_) n += records.size();
  return n;
}

size_t ClientLogStore::TruncateBelow(Lsn below) {
  const bool any_below =
      std::any_of(sequences_.begin(), sequences_.end(),
                  [below](const Interval& seq) { return seq.low < below; });
  if (!any_below) return 0;
  std::vector<LogRecord> stream = std::move(stream_);
  std::vector<uint64_t> tracks = std::move(tracks_);
  stream_.clear();
  tracks_.clear();
  sequences_.clear();
  sequence_starts_.clear();
  highest_lsn_ = kNoLsn;
  size_t removed = 0;
  for (size_t i = 0; i < stream.size(); ++i) {
    if (stream[i].lsn < below) {
      ++removed;
    } else {
      AppendToStream(std::move(stream[i]), tracks[i]);
    }
  }
  return removed;
}

Epoch ClientLogStore::TailEpoch() const {
  if (sequences_.empty()) return 0;
  return sequences_.back().epoch;
}

ClientLogStore ClientLogStore::FromRecords(
    const std::vector<LogRecord>& records) {
  ClientLogStore store;
  for (const LogRecord& r : records) {
    // Skip exact duplicates (a record can appear in both a checkpoint
    // and the scanned tail).
    if (store.Contains(r.lsn, r.epoch)) continue;
    store.AppendToStream(r, kInNvram);
  }
  return store;
}

}  // namespace dlog::server
