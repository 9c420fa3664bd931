#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/log_types.h"
#include "common/rng.h"
#include "server/client_log_store.h"
#include "server/track_format.h"

namespace dlog::server {
namespace {

LogRecord Rec(Lsn lsn, Epoch epoch, bool present = true,
              std::string_view data = "d") {
  LogRecord r;
  r.lsn = lsn;
  r.epoch = epoch;
  r.present = present;
  r.data = ToBytes(data);
  return r;
}

TEST(ClientLogStoreTest, EmptyStore) {
  ClientLogStore store;
  EXPECT_EQ(store.HighestLsn(), kNoLsn);
  EXPECT_EQ(store.TailEpoch(), 0u);
  EXPECT_TRUE(store.Intervals().empty());
  EXPECT_TRUE(store.Read(1).status().IsNotFound());
}

TEST(ClientLogStoreTest, SequentialWritesFormOneInterval) {
  ClientLogStore store;
  for (Lsn l = 1; l <= 5; ++l) ASSERT_TRUE(store.Write(Rec(l, 1)).ok());
  IntervalList ivs = store.Intervals();
  ASSERT_EQ(ivs.size(), 1u);
  EXPECT_EQ(ivs[0], (Interval{1, 1, 5}));
  EXPECT_EQ(store.HighestLsn(), 5u);
  EXPECT_EQ(store.ExpectedNextLsn(), 6u);
}

TEST(ClientLogStoreTest, LsnZeroRejected) {
  ClientLogStore store;
  EXPECT_FALSE(store.Write(Rec(0, 1)).ok());
}

TEST(ClientLogStoreTest, GapStartsNewInterval) {
  ClientLogStore store;
  ASSERT_TRUE(store.Write(Rec(1, 1)).ok());
  ASSERT_TRUE(store.Write(Rec(2, 1)).ok());
  // Client switched away and back: LSNs 3-4 live elsewhere.
  ASSERT_TRUE(store.Write(Rec(5, 1)).ok());
  IntervalList ivs = store.Intervals();
  ASSERT_EQ(ivs.size(), 2u);
  EXPECT_EQ(ivs[0], (Interval{1, 1, 2}));
  EXPECT_EQ(ivs[1], (Interval{1, 5, 5}));
}

TEST(ClientLogStoreTest, EpochChangeStartsNewInterval) {
  ClientLogStore store;
  ASSERT_TRUE(store.Write(Rec(1, 1)).ok());
  ASSERT_TRUE(store.Write(Rec(2, 3)).ok());
  ASSERT_EQ(store.Intervals().size(), 2u);
  EXPECT_EQ(store.TailEpoch(), 3u);
}

TEST(ClientLogStoreTest, OutOfOrderRejected) {
  ClientLogStore store;
  ASSERT_TRUE(store.Write(Rec(5, 2)).ok());
  EXPECT_FALSE(store.Write(Rec(3, 2)).ok());   // lower LSN
  EXPECT_FALSE(store.Write(Rec(6, 1)).ok());   // lower epoch
  EXPECT_FALSE(store.Write(Rec(5, 2, false)).ok());  // conflicting dup
}

TEST(ClientLogStoreTest, ExactDuplicateIsIdempotent) {
  ClientLogStore store;
  ASSERT_TRUE(store.Write(Rec(1, 1)).ok());
  ASSERT_TRUE(store.Write(Rec(1, 1)).ok());  // redelivery
  EXPECT_EQ(store.record_count(), 1u);
}

// Figure 3-3, Server 1: the recovery procedure rewrites the tail record
// <9,3> as <9,4> — same LSN, higher epoch.
TEST(ClientLogStoreTest, TailRecopyWithHigherEpoch) {
  ClientLogStore store;
  for (Lsn l = 1; l <= 9; ++l) ASSERT_TRUE(store.Write(Rec(l, 3)).ok());
  ASSERT_TRUE(store.Write(Rec(9, 4)).ok());
  ASSERT_TRUE(store.Write(Rec(10, 4, false, "")).ok());
  IntervalList ivs = store.Intervals();
  ASSERT_EQ(ivs.size(), 2u);
  EXPECT_EQ(ivs[0], (Interval{3, 1, 9}));
  EXPECT_EQ(ivs[1], (Interval{4, 9, 10}));
  // ServerReadLog returns the highest-epoch version.
  EXPECT_EQ(store.Read(9)->epoch, 4u);
  EXPECT_FALSE(store.Read(10)->present);
}

// Reconstructs Server 1 of Figure 3-1 record by record.
TEST(ClientLogStoreTest, Figure31Server1) {
  ClientLogStore store;
  for (Lsn l = 1; l <= 3; ++l) ASSERT_TRUE(store.Write(Rec(l, 1)).ok());
  ASSERT_TRUE(store.Write(Rec(3, 3)).ok());           // recovery copy
  ASSERT_TRUE(store.Write(Rec(4, 3, false, "")).ok());  // not present
  for (Lsn l = 5; l <= 9; ++l) ASSERT_TRUE(store.Write(Rec(l, 3)).ok());

  IntervalList ivs = store.Intervals();
  ASSERT_EQ(ivs.size(), 2u);
  EXPECT_EQ(ivs[0], (Interval{1, 1, 3}));
  EXPECT_EQ(ivs[1], (Interval{3, 3, 9}));
  EXPECT_EQ(store.Read(3)->epoch, 3u);
  EXPECT_FALSE(store.Read(4)->present);
  EXPECT_TRUE(store.Read(5)->present);
}

TEST(ClientLogStoreTest, StagedCopiesInvisibleUntilInstall) {
  ClientLogStore store;
  for (Lsn l = 1; l <= 9; ++l) ASSERT_TRUE(store.Write(Rec(l, 3)).ok());
  ASSERT_TRUE(store.StageCopy(Rec(9, 4, true, "copy")).ok());
  ASSERT_TRUE(store.StageCopy(Rec(10, 4, false, "")).ok());

  // Not visible yet.
  EXPECT_EQ(store.Read(9)->epoch, 3u);
  EXPECT_EQ(store.HighestLsn(), 9u);
  EXPECT_EQ(store.Intervals().size(), 1u);
  EXPECT_EQ(store.staged_count(), 2u);

  Result<std::vector<LogRecord>> installed = store.InstallCopies(4);
  ASSERT_TRUE(installed.ok());
  EXPECT_EQ(installed->size(), 2u);
  EXPECT_EQ(store.Read(9)->epoch, 4u);
  EXPECT_EQ(store.Read(9)->data, ToBytes("copy"));
  EXPECT_EQ(store.HighestLsn(), 10u);
  EXPECT_EQ(store.staged_count(), 0u);
}

TEST(ClientLogStoreTest, InstallOfUnknownEpochIsNoOp) {
  ClientLogStore store;
  Result<std::vector<LogRecord>> r = store.InstallCopies(99);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
}

TEST(ClientLogStoreTest, InstallSortsByLsn) {
  ClientLogStore store;
  for (Lsn l = 1; l <= 5; ++l) ASSERT_TRUE(store.Write(Rec(l, 1)).ok());
  // Staged out of order.
  ASSERT_TRUE(store.StageCopy(Rec(5, 2, true, "b")).ok());
  ASSERT_TRUE(store.StageCopy(Rec(4, 2, true, "a")).ok());
  ASSERT_TRUE(store.InstallCopies(2).ok());
  IntervalList ivs = store.Intervals();
  // Installed copies form a contiguous epoch-2 sequence 4-5.
  ASSERT_EQ(ivs.size(), 2u);
  EXPECT_EQ(ivs[1], (Interval{2, 4, 5}));
}

TEST(ClientLogStoreTest, CopiesForDifferentEpochsAreIndependent) {
  ClientLogStore store;
  ASSERT_TRUE(store.Write(Rec(1, 1)).ok());
  ASSERT_TRUE(store.StageCopy(Rec(1, 2)).ok());
  ASSERT_TRUE(store.StageCopy(Rec(1, 3)).ok());
  ASSERT_TRUE(store.InstallCopies(3).ok());
  EXPECT_EQ(store.Read(1)->epoch, 3u);
  EXPECT_EQ(store.staged_count(), 1u);  // epoch-2 copy still staged
}

TEST(ClientLogStoreTest, FromRecordsRoundTrip) {
  ClientLogStore store;
  for (Lsn l = 1; l <= 3; ++l) ASSERT_TRUE(store.Write(Rec(l, 1)).ok());
  ASSERT_TRUE(store.Write(Rec(3, 3)).ok());
  ASSERT_TRUE(store.Write(Rec(4, 3, false, "")).ok());
  ASSERT_TRUE(store.Write(Rec(5, 3)).ok());

  ClientLogStore rebuilt = ClientLogStore::FromRecords(store.stream());
  EXPECT_EQ(rebuilt.Intervals(), store.Intervals());
  EXPECT_EQ(rebuilt.record_count(), store.record_count());
  EXPECT_EQ(rebuilt.Read(3)->epoch, 3u);
}

TEST(ClientLogStoreTest, FromRecordsSkipsDuplicates) {
  std::vector<LogRecord> records = {Rec(1, 1), Rec(2, 1), Rec(1, 1),
                                    Rec(2, 1), Rec(3, 1)};
  ClientLogStore store = ClientLogStore::FromRecords(records);
  EXPECT_EQ(store.record_count(), 3u);
  ASSERT_EQ(store.Intervals().size(), 1u);
  EXPECT_EQ(store.Intervals()[0], (Interval{1, 1, 3}));
}

// --- The store against a plain map model ---

/// The obvious reference for ClientLogStore: every record in a map keyed
/// <LSN, Epoch>, the write order in a vector, and the interval list
/// recomputed from the write order on demand.
struct StoreModel {
  using Key = std::pair<Lsn, Epoch>;

  void Append(const LogRecord& r) {
    stream.push_back(r);
    records[{r.lsn, r.epoch}] = r;
  }

  bool Write(const LogRecord& r) {
    auto it = records.find({r.lsn, r.epoch});
    if (it != records.end()) return it->second == r;
    if (!stream.empty()) {
      const LogRecord& tail = stream.back();
      if (r.epoch < tail.epoch) return false;
      if (r.lsn <= tail.lsn && !(r.lsn == tail.lsn && r.epoch > tail.epoch)) {
        return false;
      }
    }
    Append(r);
    return true;
  }

  bool InstallCopies(Epoch epoch) {
    auto it = staged.find(epoch);
    if (it == staged.end()) return true;
    std::vector<LogRecord> copies = std::move(it->second);
    staged.erase(it);
    std::stable_sort(copies.begin(), copies.end(),
                     [](const LogRecord& a, const LogRecord& b) {
                       return a.lsn < b.lsn;
                     });
    for (const LogRecord& r : copies) {
      auto existing = records.find({r.lsn, r.epoch});
      if (existing == records.end()) {
        Append(r);
      } else if (!(existing->second == r)) {
        return false;
      }
    }
    return true;
  }

  size_t TruncateBelow(Lsn below) {
    const size_t before = stream.size();
    auto below_key = [below](const auto& kv) { return kv.first.first < below; };
    std::erase_if(stream,
                  [below](const LogRecord& r) { return r.lsn < below; });
    std::erase_if(records, below_key);
    std::erase_if(tracks, below_key);
    return before - stream.size();
  }

  /// The highest-epoch record stored for `lsn`, or nullptr.
  const LogRecord* Read(Lsn lsn) const {
    const LogRecord* best = nullptr;
    for (auto it = records.lower_bound({lsn, 0});
         it != records.end() && it->first.first == lsn; ++it) {
      best = &it->second;
    }
    return best;
  }

  uint64_t TrackOf(Lsn lsn) const {
    const LogRecord* r = Read(lsn);
    if (r == nullptr) return ClientLogStore::kInNvram;
    auto it = tracks.find({r->lsn, r->epoch});
    return it == tracks.end() ? ClientLogStore::kInNvram : it->second;
  }

  IntervalList Intervals() const {
    IntervalList out;
    for (const LogRecord& r : stream) {
      if (!out.empty() && out.back().epoch == r.epoch &&
          r.lsn == out.back().high + 1) {
        out.back().high = r.lsn;
      } else {
        out.push_back({r.epoch, r.lsn, r.lsn});
      }
    }
    return out;
  }

  Lsn HighestLsn() const {
    return records.empty() ? kNoLsn : records.rbegin()->first.first;
  }
  Epoch TailEpoch() const { return stream.empty() ? 0 : stream.back().epoch; }

  std::vector<LogRecord> stream;
  std::map<Key, LogRecord> records;
  std::map<Key, uint64_t> tracks;
  std::map<Epoch, std::vector<LogRecord>> staged;
};

void ExpectAgrees(const ClientLogStore& store, const StoreModel& model,
                  uint64_t seed, int step) {
  SCOPED_TRACE(testing::Message() << "seed " << seed << " step " << step);
  ASSERT_EQ(store.Intervals(), model.Intervals());
  ASSERT_EQ(store.HighestLsn(), model.HighestLsn());
  ASSERT_EQ(store.TailEpoch(), model.TailEpoch());
  ASSERT_EQ(store.record_count(), model.stream.size());
  for (Lsn lsn = 1; lsn <= model.HighestLsn() + 2; ++lsn) {
    const LogRecord* want = model.Read(lsn);
    Result<LogRecord> got = store.Read(lsn);
    ASSERT_EQ(got.ok(), want != nullptr) << "lsn " << lsn;
    if (want != nullptr) {
      ASSERT_EQ(*got, *want) << "lsn " << lsn;
    }
    ASSERT_EQ(store.TrackOf(lsn), model.TrackOf(lsn)) << "lsn " << lsn;
  }
  for (const auto& [key, record] : model.records) {
    ASSERT_TRUE(store.Contains(key.first, key.second));
    if (model.records.count({key.first, key.second + 1}) == 0) {
      ASSERT_FALSE(store.Contains(key.first, key.second + 1));
    }
  }
}

// Drives the store and the model through the same random operations and
// checks after every step that they agree on everything observable.
TEST(ClientLogStoreTest, AgreesWithMapModelUnderRandomOperations) {
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    Rng rng(seed);
    ClientLogStore store;
    StoreModel model;
    // Contents are a function of <LSN, Epoch>, except for an occasional
    // conflicting variant.
    auto make = [&rng](Lsn lsn, Epoch epoch) {
      std::string data = "r";
      data += std::to_string(lsn);
      data += '.';
      data += std::to_string(epoch);
      if (rng.Bernoulli(0.05)) data += "-conflict";
      return Rec(lsn, epoch, !rng.Bernoulli(0.1), data);
    };
    // Figure 3-3's pair <9,3>/<9,4>, then a lower-epoch copy installed
    // after the higher-epoch stream.
    for (Lsn l = 1; l <= 9; ++l) {
      ASSERT_EQ(store.Write(Rec(l, 3)).ok(), model.Write(Rec(l, 3)));
    }
    ASSERT_EQ(store.Write(Rec(9, 4)).ok(), model.Write(Rec(9, 4)));
    ASSERT_TRUE(store.StageCopy(Rec(5, 2, true, "low")).ok());
    model.staged[2].push_back(Rec(5, 2, true, "low"));
    ASSERT_EQ(store.InstallCopies(2).ok(), model.InstallCopies(2));
    ASSERT_NO_FATAL_FAILURE(ExpectAgrees(store, model, seed, 0));
    ASSERT_EQ(store.Read(9)->epoch, 4u);
    ASSERT_EQ(store.Read(5)->epoch, 3u);

    for (int step = 1; step <= 300; ++step) {
      const Lsn high = model.stream.empty() ? 0 : model.stream.back().lsn;
      const Epoch tail = model.TailEpoch();
      const uint64_t op = rng.NextBelow(100);
      if (op < 55) {
        const int64_t delta = static_cast<int64_t>(rng.NextInRange(0, 5)) - 2;
        const Lsn lsn =
            std::max<int64_t>(1, static_cast<int64_t>(high) + delta);
        Epoch epoch = std::max<Epoch>(1, tail);
        if (rng.Bernoulli(0.1)) ++epoch;
        if (rng.Bernoulli(0.05) && epoch > 1) --epoch;
        const LogRecord r = make(lsn, epoch);
        ASSERT_EQ(store.Write(r).ok(), model.Write(r));
      } else if (op < 70) {
        const LogRecord r =
            make(rng.NextInRange(1, high + 3), rng.NextInRange(1, tail + 2));
        ASSERT_TRUE(store.StageCopy(r).ok());
        model.staged[r.epoch].push_back(r);
      } else if (op < 80) {
        const Epoch epoch = rng.NextInRange(1, tail + 2);
        ASSERT_EQ(store.InstallCopies(epoch).ok(),
                  model.InstallCopies(epoch));
      } else if (op < 92) {
        if (model.stream.empty()) continue;
        const LogRecord& r =
            model.stream[rng.NextBelow(model.stream.size())];
        store.SetTrack(r.lsn, r.epoch, static_cast<uint64_t>(step));
        model.tracks[{r.lsn, r.epoch}] = static_cast<uint64_t>(step);
      } else if (op < 97) {
        const Lsn below = rng.NextInRange(1, high / 2 + 2);
        ASSERT_EQ(store.TruncateBelow(below), model.TruncateBelow(below));
      } else {
        // Rebuild from the write order with duplicates mixed in, as a
        // restart scan sees records in both a track and the buffer.
        std::vector<LogRecord> scan;
        for (const LogRecord& r : model.stream) {
          scan.push_back(r);
          if (rng.Bernoulli(0.2)) {
            const LogRecord duplicate = scan[rng.NextBelow(scan.size())];
            scan.push_back(duplicate);
          }
        }
        store = ClientLogStore::FromRecords(scan);
        model.tracks.clear();
        model.staged.clear();
      }
      ASSERT_NO_FATAL_FAILURE(ExpectAgrees(store, model, seed, step));
    }
  }
}

// --- Track format ---

TEST(TrackFormatTest, EntryRoundTrip) {
  StreamEntry e{42, Rec(7, 3, true, "payload")};
  Bytes encoded = EncodeStreamEntry(e);
  EXPECT_EQ(encoded.size(), StreamEntrySize(e));
  Result<StreamEntry> decoded = DecodeStreamEntry(encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, e);
}

TEST(TrackFormatTest, TrackRoundTrip) {
  std::vector<StreamEntry> entries = {
      {1, Rec(1, 1, true, "a")},
      {2, Rec(100, 5, false, "")},
      {1, Rec(2, 1, true, "interleaved")},
  };
  Bytes track = EncodeTrack(entries);
  Result<std::vector<StreamEntry>> decoded = DecodeTrack(track);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, entries);
}

TEST(TrackFormatTest, CorruptTrackDetected) {
  Bytes track = EncodeTrack({{1, Rec(1, 1)}});
  track[track.size() / 2] ^= 0xFF;
  EXPECT_TRUE(DecodeTrack(track).status().IsCorruption());
}

TEST(TrackFormatTest, EmptyTrack) {
  Bytes track = EncodeTrack({});
  Result<std::vector<StreamEntry>> decoded = DecodeTrack(track);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->empty());
}

}  // namespace
}  // namespace dlog::server
