#include "wire/messages.h"

#include <algorithm>
#include <cassert>

#include "wire/connection.h"

namespace dlog::wire {
namespace {

// type(1) + rpc_id(8)
constexpr size_t kHeaderBytes = 1 + 8;

/// An empty message buffer with room for `size` encoded bytes plus the
/// transport frame trailer, so neither encoding nor framing regrows it.
Bytes MessageBuffer(size_t size) {
  Bytes out;
  out.reserve(size + Endpoint::kFrameTrailerBytes);
  return out;
}

/// The encoded size of `records`, without their u32 count.
size_t RecordsSize(const std::vector<LogRecord>& records) {
  size_t size = 0;
  for (const LogRecord& r : records) size += EncodedRecordSize(r);
  return size;
}

void PutHeader(Encoder* enc, MessageType type, uint64_t rpc_id) {
  enc->PutU8(static_cast<uint8_t>(type));
  enc->PutU64(rpc_id);
}

void PutRecord(Encoder* enc, const LogRecord& r) {
  enc->PutU64(r.lsn);
  enc->PutU64(r.epoch);
  enc->PutBool(r.present);
  enc->PutBlob(r.data);
}

Result<LogRecord> GetRecord(Decoder* dec) {
  LogRecord r;
  DLOG_ASSIGN_OR_RETURN(r.lsn, dec->GetU64());
  DLOG_ASSIGN_OR_RETURN(r.epoch, dec->GetU64());
  DLOG_ASSIGN_OR_RETURN(r.present, dec->GetBool());
  // View into the arriving buffer: record data stays zero-copy until a
  // consumer materializes it (e.g. persistence into a track).
  DLOG_ASSIGN_OR_RETURN(r.data, dec->GetBlobView());
  return r;
}

Result<std::vector<LogRecord>> GetRecords(Decoder* dec) {
  DLOG_ASSIGN_OR_RETURN(uint32_t n, dec->GetU32());
  std::vector<LogRecord> records;
  // A corrupt count must not size the vector: each record takes at least
  // its fixed fields.
  records.reserve(std::min<size_t>(n, dec->remaining() / (8 + 8 + 1 + 4)));
  for (uint32_t i = 0; i < n; ++i) {
    DLOG_ASSIGN_OR_RETURN(LogRecord r, GetRecord(dec));
    records.push_back(std::move(r));
  }
  return records;
}

void PutRecords(Encoder* enc, const std::vector<LogRecord>& records) {
  enc->PutU32(static_cast<uint32_t>(records.size()));
  for (const LogRecord& r : records) PutRecord(enc, r);
}

Result<RpcStatus> GetRpcStatus(Decoder* dec) {
  DLOG_ASSIGN_OR_RETURN(uint8_t v, dec->GetU8());
  if (v > static_cast<uint8_t>(RpcStatus::kOverloaded)) {
    return Status::Corruption("bad rpc status byte");
  }
  return static_cast<RpcStatus>(v);
}

}  // namespace

size_t EncodedRecordSize(const LogRecord& record) {
  // lsn(8) + epoch(8) + present(1) + blob length(4) + data
  return 8 + 8 + 1 + 4 + record.data.size();
}

size_t RecordBatchOverhead() {
  // header + client(4) + epoch(8) + trace(8) + span(8) + count(4)
  return kHeaderBytes + 4 + 8 + 8 + 8 + 4;
}

Bytes EncodeRecordBatch(MessageType type, const RecordBatch& m,
                        uint64_t rpc_id) {
  assert(type == MessageType::kWriteLog || type == MessageType::kForceLog);
  Bytes out = MessageBuffer(RecordBatchOverhead() + RecordsSize(m.records));
  Encoder enc(&out);
  PutHeader(&enc, type, rpc_id);
  enc.PutU32(m.client);
  enc.PutU64(m.epoch);
  enc.PutU64(m.trace);
  enc.PutU64(m.span);
  PutRecords(&enc, m.records);
  return out;
}

Bytes EncodeNewInterval(const NewIntervalMsg& m) {
  Bytes out;
  Encoder enc(&out);
  PutHeader(&enc, MessageType::kNewInterval, 0);
  enc.PutU32(m.client);
  enc.PutU64(m.epoch);
  enc.PutU64(m.starting_lsn);
  return out;
}

Bytes EncodeNewHighLsn(const NewHighLsnMsg& m) {
  Bytes out = MessageBuffer(kHeaderBytes + 8);
  Encoder enc(&out);
  PutHeader(&enc, MessageType::kNewHighLsn, 0);
  enc.PutU64(m.new_high_lsn);
  return out;
}

Bytes EncodeOverloaded(const OverloadedMsg& m) {
  Bytes out;
  Encoder enc(&out);
  PutHeader(&enc, MessageType::kOverloaded, 0);
  enc.PutU32(m.client);
  enc.PutU8(m.shed_type);
  enc.PutU64(m.high_lsn);
  enc.PutU64(m.retry_after_us);
  return out;
}

Bytes EncodeMissingInterval(const MissingIntervalMsg& m) {
  Bytes out;
  Encoder enc(&out);
  PutHeader(&enc, MessageType::kMissingInterval, 0);
  enc.PutU64(m.low);
  enc.PutU64(m.high);
  return out;
}

Bytes EncodeIntervalListReq(const IntervalListReq& m, uint64_t rpc_id) {
  Bytes out;
  Encoder enc(&out);
  PutHeader(&enc, MessageType::kIntervalListReq, rpc_id);
  enc.PutU32(m.client);
  return out;
}

Bytes EncodeIntervalListResp(const IntervalListResp& m, uint64_t rpc_id) {
  Bytes out;
  Encoder enc(&out);
  PutHeader(&enc, MessageType::kIntervalListResp, rpc_id);
  enc.PutU8(static_cast<uint8_t>(m.status));
  enc.PutU32(static_cast<uint32_t>(m.intervals.size()));
  for (const Interval& iv : m.intervals) {
    enc.PutU64(iv.epoch);
    enc.PutU64(iv.low);
    enc.PutU64(iv.high);
  }
  return out;
}

Bytes EncodeReadLogReq(MessageType type, const ReadLogReq& m,
                       uint64_t rpc_id) {
  assert(type == MessageType::kReadLogForwardReq ||
         type == MessageType::kReadLogBackwardReq);
  Bytes out;
  Encoder enc(&out);
  PutHeader(&enc, type, rpc_id);
  enc.PutU32(m.client);
  enc.PutU64(m.lsn);
  return out;
}

Bytes EncodeReadLogResp(const ReadLogResp& m, uint64_t rpc_id) {
  Bytes out = MessageBuffer(kHeaderBytes + 1 + 4 + RecordsSize(m.records));
  Encoder enc(&out);
  PutHeader(&enc, MessageType::kReadLogResp, rpc_id);
  enc.PutU8(static_cast<uint8_t>(m.status));
  PutRecords(&enc, m.records);
  return out;
}

Bytes EncodeCopyLogReq(const CopyLogReq& m, uint64_t rpc_id) {
  Bytes out = MessageBuffer(kHeaderBytes + 4 + 8 + 4 + RecordsSize(m.records));
  Encoder enc(&out);
  PutHeader(&enc, MessageType::kCopyLogReq, rpc_id);
  enc.PutU32(m.client);
  enc.PutU64(m.epoch);
  PutRecords(&enc, m.records);
  return out;
}

Bytes EncodeCopyLogResp(const CopyLogResp& m, uint64_t rpc_id) {
  Bytes out;
  Encoder enc(&out);
  PutHeader(&enc, MessageType::kCopyLogResp, rpc_id);
  enc.PutU8(static_cast<uint8_t>(m.status));
  return out;
}

Bytes EncodeInstallCopiesReq(const InstallCopiesReq& m, uint64_t rpc_id) {
  Bytes out;
  Encoder enc(&out);
  PutHeader(&enc, MessageType::kInstallCopiesReq, rpc_id);
  enc.PutU32(m.client);
  enc.PutU64(m.epoch);
  return out;
}

Bytes EncodeInstallCopiesResp(const InstallCopiesResp& m, uint64_t rpc_id) {
  Bytes out;
  Encoder enc(&out);
  PutHeader(&enc, MessageType::kInstallCopiesResp, rpc_id);
  enc.PutU8(static_cast<uint8_t>(m.status));
  return out;
}

Bytes EncodeGenReadReq(const GenReadReq& m, uint64_t rpc_id) {
  Bytes out;
  Encoder enc(&out);
  PutHeader(&enc, MessageType::kGenReadReq, rpc_id);
  enc.PutU32(m.client);
  return out;
}

Bytes EncodeGenReadResp(const GenReadResp& m, uint64_t rpc_id) {
  Bytes out;
  Encoder enc(&out);
  PutHeader(&enc, MessageType::kGenReadResp, rpc_id);
  enc.PutU8(static_cast<uint8_t>(m.status));
  enc.PutU64(m.value);
  return out;
}

Bytes EncodeGenWriteReq(const GenWriteReq& m, uint64_t rpc_id) {
  Bytes out;
  Encoder enc(&out);
  PutHeader(&enc, MessageType::kGenWriteReq, rpc_id);
  enc.PutU32(m.client);
  enc.PutU64(m.value);
  return out;
}

Bytes EncodeGenWriteResp(const GenWriteResp& m, uint64_t rpc_id) {
  Bytes out;
  Encoder enc(&out);
  PutHeader(&enc, MessageType::kGenWriteResp, rpc_id);
  enc.PutU8(static_cast<uint8_t>(m.status));
  return out;
}

Result<GenReadReq> DecodeGenReadReq(const SharedBytes& body) {
  Decoder dec(body);
  GenReadReq m;
  DLOG_ASSIGN_OR_RETURN(m.client, dec.GetU32());
  return m;
}

Result<GenReadResp> DecodeGenReadResp(const SharedBytes& body) {
  Decoder dec(body);
  GenReadResp m;
  DLOG_ASSIGN_OR_RETURN(m.status, GetRpcStatus(&dec));
  DLOG_ASSIGN_OR_RETURN(m.value, dec.GetU64());
  return m;
}

Result<GenWriteReq> DecodeGenWriteReq(const SharedBytes& body) {
  Decoder dec(body);
  GenWriteReq m;
  DLOG_ASSIGN_OR_RETURN(m.client, dec.GetU32());
  DLOG_ASSIGN_OR_RETURN(m.value, dec.GetU64());
  return m;
}

Result<GenWriteResp> DecodeGenWriteResp(const SharedBytes& body) {
  Decoder dec(body);
  GenWriteResp m;
  DLOG_ASSIGN_OR_RETURN(m.status, GetRpcStatus(&dec));
  return m;
}

Bytes EncodeTruncateLog(const TruncateLogMsg& m) {
  Bytes out;
  Encoder enc(&out);
  PutHeader(&enc, MessageType::kTruncateLog, 0);
  enc.PutU32(m.client);
  enc.PutU64(m.below);
  return out;
}

Result<TruncateLogMsg> DecodeTruncateLog(const SharedBytes& body) {
  Decoder dec(body);
  TruncateLogMsg m;
  DLOG_ASSIGN_OR_RETURN(m.client, dec.GetU32());
  DLOG_ASSIGN_OR_RETURN(m.below, dec.GetU64());
  return m;
}

Result<Envelope> DecodeEnvelope(const SharedBytes& wire) {
  Decoder dec(wire);
  Envelope env;
  DLOG_ASSIGN_OR_RETURN(uint8_t type, dec.GetU8());
  if (type < static_cast<uint8_t>(MessageType::kWriteLog) ||
      type > static_cast<uint8_t>(MessageType::kOverloaded)) {
    return Status::Corruption("unknown message type");
  }
  env.type = static_cast<MessageType>(type);
  DLOG_ASSIGN_OR_RETURN(env.rpc_id, dec.GetU64());
  // Body is a slice of the arriving buffer — no copy.
  const size_t header = wire.size() - dec.remaining();
  env.body = wire.Slice(header, wire.size() - header);
  return env;
}

Result<Envelope> DecodeEnvelope(const Bytes& wire) {
  // Offline/test convenience: wrap the owned buffer first (one copy so
  // the envelope's body view cannot dangle past `wire`).
  return DecodeEnvelope(SharedBytes::Copy(wire.data(), wire.size()));
}

Result<RecordBatch> DecodeRecordBatch(const SharedBytes& body) {
  Decoder dec(body);
  RecordBatch m;
  DLOG_ASSIGN_OR_RETURN(m.client, dec.GetU32());
  DLOG_ASSIGN_OR_RETURN(m.epoch, dec.GetU64());
  DLOG_ASSIGN_OR_RETURN(m.trace, dec.GetU64());
  DLOG_ASSIGN_OR_RETURN(m.span, dec.GetU64());
  DLOG_ASSIGN_OR_RETURN(m.records, GetRecords(&dec));
  return m;
}

Result<NewIntervalMsg> DecodeNewInterval(const SharedBytes& body) {
  Decoder dec(body);
  NewIntervalMsg m;
  DLOG_ASSIGN_OR_RETURN(m.client, dec.GetU32());
  DLOG_ASSIGN_OR_RETURN(m.epoch, dec.GetU64());
  DLOG_ASSIGN_OR_RETURN(m.starting_lsn, dec.GetU64());
  return m;
}

Result<NewHighLsnMsg> DecodeNewHighLsn(const SharedBytes& body) {
  Decoder dec(body);
  NewHighLsnMsg m;
  DLOG_ASSIGN_OR_RETURN(m.new_high_lsn, dec.GetU64());
  return m;
}

Result<OverloadedMsg> DecodeOverloaded(const SharedBytes& body) {
  Decoder dec(body);
  OverloadedMsg m;
  DLOG_ASSIGN_OR_RETURN(m.client, dec.GetU32());
  DLOG_ASSIGN_OR_RETURN(m.shed_type, dec.GetU8());
  DLOG_ASSIGN_OR_RETURN(m.high_lsn, dec.GetU64());
  DLOG_ASSIGN_OR_RETURN(m.retry_after_us, dec.GetU64());
  return m;
}

Result<MissingIntervalMsg> DecodeMissingInterval(const SharedBytes& body) {
  Decoder dec(body);
  MissingIntervalMsg m;
  DLOG_ASSIGN_OR_RETURN(m.low, dec.GetU64());
  DLOG_ASSIGN_OR_RETURN(m.high, dec.GetU64());
  return m;
}

Result<IntervalListReq> DecodeIntervalListReq(const SharedBytes& body) {
  Decoder dec(body);
  IntervalListReq m;
  DLOG_ASSIGN_OR_RETURN(m.client, dec.GetU32());
  return m;
}

Result<IntervalListResp> DecodeIntervalListResp(const SharedBytes& body) {
  Decoder dec(body);
  IntervalListResp m;
  DLOG_ASSIGN_OR_RETURN(m.status, GetRpcStatus(&dec));
  DLOG_ASSIGN_OR_RETURN(uint32_t n, dec.GetU32());
  m.intervals.reserve(std::min<size_t>(n, dec.remaining() / (8 + 8 + 8)));
  for (uint32_t i = 0; i < n; ++i) {
    Interval iv;
    DLOG_ASSIGN_OR_RETURN(iv.epoch, dec.GetU64());
    DLOG_ASSIGN_OR_RETURN(iv.low, dec.GetU64());
    DLOG_ASSIGN_OR_RETURN(iv.high, dec.GetU64());
    m.intervals.push_back(iv);
  }
  return m;
}

Result<ReadLogReq> DecodeReadLogReq(const SharedBytes& body) {
  Decoder dec(body);
  ReadLogReq m;
  DLOG_ASSIGN_OR_RETURN(m.client, dec.GetU32());
  DLOG_ASSIGN_OR_RETURN(m.lsn, dec.GetU64());
  return m;
}

Result<ReadLogResp> DecodeReadLogResp(const SharedBytes& body) {
  Decoder dec(body);
  ReadLogResp m;
  DLOG_ASSIGN_OR_RETURN(m.status, GetRpcStatus(&dec));
  DLOG_ASSIGN_OR_RETURN(m.records, GetRecords(&dec));
  return m;
}

Result<CopyLogReq> DecodeCopyLogReq(const SharedBytes& body) {
  Decoder dec(body);
  CopyLogReq m;
  DLOG_ASSIGN_OR_RETURN(m.client, dec.GetU32());
  DLOG_ASSIGN_OR_RETURN(m.epoch, dec.GetU64());
  DLOG_ASSIGN_OR_RETURN(m.records, GetRecords(&dec));
  return m;
}

Result<CopyLogResp> DecodeCopyLogResp(const SharedBytes& body) {
  Decoder dec(body);
  CopyLogResp m;
  DLOG_ASSIGN_OR_RETURN(m.status, GetRpcStatus(&dec));
  return m;
}

Result<InstallCopiesReq> DecodeInstallCopiesReq(const SharedBytes& body) {
  Decoder dec(body);
  InstallCopiesReq m;
  DLOG_ASSIGN_OR_RETURN(m.client, dec.GetU32());
  DLOG_ASSIGN_OR_RETURN(m.epoch, dec.GetU64());
  return m;
}

Result<InstallCopiesResp> DecodeInstallCopiesResp(const SharedBytes& body) {
  Decoder dec(body);
  InstallCopiesResp m;
  DLOG_ASSIGN_OR_RETURN(m.status, GetRpcStatus(&dec));
  return m;
}

}  // namespace dlog::wire
