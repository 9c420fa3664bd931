#include "server/track_format.h"

#include <algorithm>

#include "common/crc32c.h"

namespace dlog::server {
namespace {

void PutEntry(Encoder* enc, const StreamEntry& entry) {
  enc->PutU32(entry.client);
  enc->PutU64(entry.record.lsn);
  enc->PutU64(entry.record.epoch);
  enc->PutBool(entry.record.present);
  // Persistence is where a record's bytes leave the shared wire buffer
  // for a stable-storage image — the one copy the zero-copy path keeps.
  AddBytesCopied(entry.record.data.size());
  enc->PutBlob(entry.record.data);
}

Result<StreamEntry> GetEntry(Decoder* dec) {
  StreamEntry entry;
  DLOG_ASSIGN_OR_RETURN(entry.client, dec->GetU32());
  DLOG_ASSIGN_OR_RETURN(entry.record.lsn, dec->GetU64());
  DLOG_ASSIGN_OR_RETURN(entry.record.epoch, dec->GetU64());
  DLOG_ASSIGN_OR_RETURN(entry.record.present, dec->GetBool());
  DLOG_ASSIGN_OR_RETURN(entry.record.data, dec->GetBlob());
  return entry;
}

}  // namespace

Bytes EncodeStreamEntry(const StreamEntry& entry) {
  Bytes out;
  out.reserve(StreamEntrySize(entry));
  Encoder enc(&out);
  PutEntry(&enc, entry);
  return out;
}

Result<StreamEntry> DecodeStreamEntry(const Bytes& bytes) {
  Decoder dec(bytes);
  DLOG_ASSIGN_OR_RETURN(StreamEntry entry, GetEntry(&dec));
  if (!dec.Done()) return Status::Corruption("trailing bytes after entry");
  return entry;
}

Result<StreamEntryHeader> DecodeStreamEntryHeader(const Bytes& bytes) {
  Decoder dec(bytes);
  StreamEntryHeader header;
  DLOG_ASSIGN_OR_RETURN(header.client, dec.GetU32());
  DLOG_ASSIGN_OR_RETURN(header.lsn, dec.GetU64());
  DLOG_ASSIGN_OR_RETURN(header.epoch, dec.GetU64());
  return header;
}

size_t StreamEntrySize(const StreamEntry& entry) {
  return kStreamEntryFixedBytes + entry.record.data.size();
}

Bytes EncodeTrack(const std::vector<StreamEntry>& entries) {
  size_t body_size = 4;
  for (const StreamEntry& e : entries) body_size += StreamEntrySize(e);
  Bytes body;
  body.reserve(body_size);
  Encoder body_enc(&body);
  body_enc.PutU32(static_cast<uint32_t>(entries.size()));
  for (const StreamEntry& e : entries) PutEntry(&body_enc, e);

  Bytes out;
  out.reserve(4 + body.size());
  Encoder enc(&out);
  enc.PutU32(crc32c::Value(body));
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

Bytes EncodeTrackFromEncoded(const std::vector<const Bytes*>& entries) {
  size_t total = 4 + 4;  // checksum + count
  for (const Bytes* e : entries) total += e->size();
  Bytes out;
  out.reserve(total);
  Encoder enc(&out);
  enc.PutU32(0);  // checksum placeholder, patched once the body is built
  enc.PutU32(static_cast<uint32_t>(entries.size()));
  for (const Bytes* e : entries) {
    // The same stable-storage copy EncodeTrack's PutEntry would count.
    AddBytesCopied(e->size() - kStreamEntryFixedBytes);
    out.insert(out.end(), e->begin(), e->end());
  }
  const uint32_t crc = crc32c::Value(out.data() + 4, out.size() - 4);
  out[0] = static_cast<uint8_t>(crc);
  out[1] = static_cast<uint8_t>(crc >> 8);
  out[2] = static_cast<uint8_t>(crc >> 16);
  out[3] = static_cast<uint8_t>(crc >> 24);
  return out;
}

Result<std::vector<StreamEntry>> DecodeTrack(const Bytes& track) {
  Decoder dec(track);
  DLOG_ASSIGN_OR_RETURN(uint32_t crc, dec.GetU32());
  if (crc32c::Value(track.data() + 4, track.size() - 4) != crc) {
    return Status::Corruption("track checksum mismatch");
  }
  DLOG_ASSIGN_OR_RETURN(uint32_t count, dec.GetU32());
  std::vector<StreamEntry> entries;
  // A count the bytes cannot hold must not size the vector.
  entries.reserve(std::min<size_t>(count,
                                   dec.remaining() / kStreamEntryFixedBytes));
  for (uint32_t i = 0; i < count; ++i) {
    DLOG_ASSIGN_OR_RETURN(StreamEntry entry, GetEntry(&dec));
    entries.push_back(std::move(entry));
  }
  if (!dec.Done()) return Status::Corruption("trailing bytes after track");
  return entries;
}

}  // namespace dlog::server
