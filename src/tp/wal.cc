#include "tp/wal.h"

namespace dlog::tp {

Bytes EncodeWalRecord(const WalRecord& record) {
  Bytes out;
  // type(1) + txn(8) + page(4) + offset(4) + update_lsn(8) + two blobs.
  out.reserve(1 + 8 + 4 + 4 + 8 + 4 + record.redo.size() + 4 +
              record.undo.size());
  Encoder enc(&out);
  enc.PutU8(static_cast<uint8_t>(record.type));
  enc.PutU64(record.txn);
  enc.PutU32(record.page);
  enc.PutU32(record.offset);
  enc.PutU64(record.update_lsn);
  enc.PutBlob(record.redo);
  enc.PutBlob(record.undo);
  return out;
}

Result<WalRecord> DecodeWalRecord(const Bytes& bytes) {
  Decoder dec(bytes);
  WalRecord record;
  DLOG_ASSIGN_OR_RETURN(uint8_t type, dec.GetU8());
  if (type < static_cast<uint8_t>(WalType::kBegin) ||
      type > static_cast<uint8_t>(WalType::kCheckpoint)) {
    return Status::Corruption("bad WAL record type");
  }
  record.type = static_cast<WalType>(type);
  DLOG_ASSIGN_OR_RETURN(record.txn, dec.GetU64());
  DLOG_ASSIGN_OR_RETURN(record.page, dec.GetU32());
  DLOG_ASSIGN_OR_RETURN(record.offset, dec.GetU32());
  DLOG_ASSIGN_OR_RETURN(record.update_lsn, dec.GetU64());
  DLOG_ASSIGN_OR_RETURN(record.redo, dec.GetBlob());
  DLOG_ASSIGN_OR_RETURN(record.undo, dec.GetBlob());
  if (!dec.Done()) return Status::Corruption("trailing WAL bytes");
  return record;
}

}  // namespace dlog::tp
