// Deterministic decode fuzzing: Rng-driven bit flips, truncations,
// appended garbage and overwritten length fields applied to valid
// encodings of every wire message, the server's stream entries and
// tracks, and the TP layer's WAL records. Every decoder must return a
// Status or a value for any byte string; run under ASan/UBSan this also
// checks that none reads out of bounds.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/crc32c.h"
#include "common/rng.h"
#include "server/track_format.h"
#include "tp/wal.h"
#include "wire/messages.h"

namespace dlog {
namespace {

using Decode = std::function<void(const Bytes&)>;

/// Values written over every 4-byte window: lengths and counts that are
/// zero, just past the buffer, or far beyond it.
std::vector<uint32_t> LengthProbes(size_t size) {
  return {0u, 1u, static_cast<uint32_t>(size),
          static_cast<uint32_t>(size + 1), 0x7fffffffu, 0xffffffffu};
}

/// Feeds `decode` mutants of `valid`: every 4-byte window overwritten with
/// each length probe, every truncation, then `rounds` random mutants. The
/// decoder sees an exactly sized copy, so a read past the end leaves the
/// heap block.
void Fuzz(const Bytes& valid, const Decode& decode, uint64_t seed,
          int rounds = 400) {
  auto feed = [&](const Bytes& b) { decode(Bytes(b.begin(), b.end())); };
  feed(valid);
  for (size_t at = 0; at + 4 <= valid.size(); ++at) {
    for (uint32_t v : LengthProbes(valid.size())) {
      Bytes b = valid;
      for (int i = 0; i < 4; ++i) b[at + i] = static_cast<uint8_t>(v >> (8 * i));
      feed(b);
    }
  }
  for (size_t n = 0; n < valid.size(); ++n) {
    feed(Bytes(valid.begin(), valid.begin() + n));
  }
  Rng rng(seed);
  for (int round = 0; round < rounds; ++round) {
    Bytes b = valid;
    switch (rng.NextBelow(3)) {
      case 0: {  // flip 1-8 bits
        const uint64_t flips = rng.NextInRange(1, 8);
        for (uint64_t i = 0; i < flips && !b.empty(); ++i) {
          b[rng.NextBelow(b.size())] ^=
              static_cast<uint8_t>(1u << rng.NextBelow(8));
        }
        break;
      }
      case 1: {  // truncate, then flip a byte of what is left
        b.resize(rng.NextBelow(b.size() + 1));
        if (!b.empty()) b[rng.NextBelow(b.size())] ^= 0xff;
        break;
      }
      default: {  // append random bytes
        const uint64_t extra = rng.NextInRange(1, 16);
        for (uint64_t i = 0; i < extra; ++i) {
          b.push_back(static_cast<uint8_t>(rng.NextU64()));
        }
        break;
      }
    }
    feed(b);
  }
}

LogRecord Record(Lsn lsn, Epoch epoch, bool present, size_t bytes) {
  LogRecord r;
  r.lsn = lsn;
  r.epoch = epoch;
  r.present = present;
  r.data = Bytes(bytes, static_cast<uint8_t>('a' + lsn % 26));
  return r;
}

/// Decodes `b` as a whole message, then hands its body to every body
/// decoder: a mutated type byte sends a body to a decoder for another
/// message.
void DecodeAnyMessage(const Bytes& b) {
  Result<wire::Envelope> env = wire::DecodeEnvelope(b);
  if (!env.ok()) return;
  const SharedBytes& body = env->body;
  (void)wire::DecodeRecordBatch(body);
  (void)wire::DecodeNewInterval(body);
  (void)wire::DecodeNewHighLsn(body);
  (void)wire::DecodeOverloaded(body);
  (void)wire::DecodeMissingInterval(body);
  (void)wire::DecodeIntervalListReq(body);
  (void)wire::DecodeIntervalListResp(body);
  (void)wire::DecodeReadLogReq(body);
  (void)wire::DecodeReadLogResp(body);
  (void)wire::DecodeCopyLogReq(body);
  (void)wire::DecodeCopyLogResp(body);
  (void)wire::DecodeInstallCopiesReq(body);
  (void)wire::DecodeInstallCopiesResp(body);
  (void)wire::DecodeGenReadReq(body);
  (void)wire::DecodeGenReadResp(body);
  (void)wire::DecodeGenWriteReq(body);
  (void)wire::DecodeGenWriteResp(body);
  (void)wire::DecodeTruncateLog(body);
}

TEST(DecodeFuzzTest, WireMessagesNeverCrash) {
  wire::RecordBatch batch;
  batch.client = 3;
  batch.epoch = 9;
  batch.trace = 77;
  batch.span = 78;
  batch.records = {Record(1, 9, true, 12), Record(2, 9, false, 0),
                   Record(3, 9, true, 40)};
  wire::IntervalListResp intervals;
  intervals.status = wire::RpcStatus::kOk;
  intervals.intervals = {{4, 1, 10}, {5, 11, 30}};
  wire::ReadLogResp read;
  read.status = wire::RpcStatus::kOk;
  read.records = batch.records;
  const std::vector<Bytes> messages = {
      wire::EncodeRecordBatch(wire::MessageType::kForceLog, batch),
      wire::EncodeRecordBatch(wire::MessageType::kWriteLog, {}),
      wire::EncodeNewInterval({3, 9, 40}),
      wire::EncodeNewHighLsn({41}),
      wire::EncodeOverloaded({3, 1, 40, 5000}),
      wire::EncodeMissingInterval({10, 19}),
      wire::EncodeIntervalListReq({3}, 5),
      wire::EncodeIntervalListResp(intervals, 5),
      wire::EncodeReadLogReq(wire::MessageType::kReadLogForwardReq, {3, 7},
                             6),
      wire::EncodeReadLogResp(read, 6),
      wire::EncodeCopyLogReq({3, 10, batch.records}, 7),
      wire::EncodeCopyLogResp({wire::RpcStatus::kOverloaded}, 7),
      wire::EncodeInstallCopiesReq({3, 10}, 8),
      wire::EncodeInstallCopiesResp({wire::RpcStatus::kOk}, 8),
      wire::EncodeGenReadReq({3}, 9),
      wire::EncodeGenReadResp({wire::RpcStatus::kOk, 12}, 9),
      wire::EncodeGenWriteReq({3, 13}, 10),
      wire::EncodeGenWriteResp({wire::RpcStatus::kOk}, 10),
      wire::EncodeTruncateLog({3, 5}),
  };
  uint64_t seed = 1;
  for (const Bytes& message : messages) {
    ASSERT_TRUE(wire::DecodeEnvelope(message).ok());
    Fuzz(message, DecodeAnyMessage, seed++);
  }
}

TEST(DecodeFuzzTest, StreamEntriesAndTracksNeverCrash) {
  const std::vector<server::StreamEntry> entries = {
      {3, Record(1, 9, true, 20)},
      {4, Record(7, 2, false, 0)},
      {3, Record(2, 9, true, 33)}};
  auto decode_entry = [](const Bytes& b) {
    (void)server::DecodeStreamEntry(b);
    (void)server::DecodeStreamEntryHeader(b);
  };
  uint64_t seed = 100;
  for (const server::StreamEntry& e : entries) {
    const Bytes encoded = server::EncodeStreamEntry(e);
    ASSERT_TRUE(server::DecodeStreamEntry(encoded).ok());
    Fuzz(encoded, decode_entry, seed++);
  }

  const Bytes track = server::EncodeTrack(entries);
  ASSERT_TRUE(server::DecodeTrack(track).ok());
  auto decode_track = [](const Bytes& b) { (void)server::DecodeTrack(b); };
  Fuzz(track, decode_track, seed++);
  // The checksum rejects nearly every mutant above; re-seal the mutated
  // body so decoding reaches the entries.
  auto decode_resealed = [](const Bytes& b) {
    if (b.size() < 4) return;
    Bytes sealed = b;
    const uint32_t crc = crc32c::Value(sealed.data() + 4, sealed.size() - 4);
    for (int i = 0; i < 4; ++i) sealed[i] = static_cast<uint8_t>(crc >> (8 * i));
    (void)server::DecodeTrack(sealed);
  };
  Fuzz(track, decode_resealed, seed++);
  Fuzz(server::EncodeTrack({}), decode_resealed, seed++);
}

TEST(DecodeFuzzTest, WalRecordsNeverCrash) {
  tp::WalRecord update;
  update.type = tp::WalType::kUpdate;
  update.txn = 42;
  update.page = 3;
  update.offset = 16;
  update.redo = ToBytes("new-bytes");
  update.undo = ToBytes("old-bytes");
  tp::WalRecord undo;
  undo.type = tp::WalType::kUndo;
  undo.txn = 42;
  undo.update_lsn = 17;
  undo.undo = ToBytes("old");
  tp::WalRecord commit;
  commit.type = tp::WalType::kCommit;
  commit.txn = 42;
  auto decode = [](const Bytes& b) { (void)tp::DecodeWalRecord(b); };
  uint64_t seed = 200;
  for (const tp::WalRecord& r : {update, undo, commit}) {
    const Bytes encoded = tp::EncodeWalRecord(r);
    Result<tp::WalRecord> round_trip = tp::DecodeWalRecord(encoded);
    ASSERT_TRUE(round_trip.ok());
    EXPECT_EQ(*round_trip, r);
    Fuzz(encoded, decode, seed++);
  }
}

}  // namespace
}  // namespace dlog
