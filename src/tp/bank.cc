#include "tp/bank.h"

#include <cassert>

namespace dlog::tp {
namespace {

constexpr size_t kSlotBytes = 8;
constexpr size_t kHistoryRowBytes = 64;

Bytes EncodeI64(int64_t v) {
  Bytes out;
  Encoder enc(&out);
  enc.PutU64(static_cast<uint64_t>(v));
  return out;
}

int64_t DecodeI64(const Bytes& page_data, uint32_t offset) {
  Decoder dec(page_data.data() + offset, kSlotBytes);
  return static_cast<int64_t>(*dec.GetU64());
}

}  // namespace

BankDb::BankDb(TransactionEngine* engine, const BankConfig& config)
    : engine_(engine), config_(config) {
  const uint32_t slots = SlotsPerPage();
  const PageId account_pages = (config_.accounts + slots - 1) / slots;
  const PageId teller_pages = (config_.tellers + slots - 1) / slots;
  const PageId branch_pages = (config_.branches + slots - 1) / slots;
  teller_base_ = account_pages;
  branch_base_ = teller_base_ + teller_pages;
  history_base_ = branch_base_ + branch_pages;
}

uint32_t BankDb::SlotsPerPage() const {
  return static_cast<uint32_t>(engine_->disk().page_bytes() / kSlotBytes);
}

PageId BankDb::AccountPage(int i) const { return i / SlotsPerPage(); }
uint32_t BankDb::AccountOffset(int i) const {
  return (i % SlotsPerPage()) * kSlotBytes;
}
PageId BankDb::TellerPage(int i) const {
  return teller_base_ + i / SlotsPerPage();
}
uint32_t BankDb::TellerOffset(int i) const {
  return (i % SlotsPerPage()) * kSlotBytes;
}
PageId BankDb::BranchPage(int i) const {
  return branch_base_ + i / SlotsPerPage();
}
uint32_t BankDb::BranchOffset(int i) const {
  return (i % SlotsPerPage()) * kSlotBytes;
}

int64_t BankDb::ReadSlot(PageId page, uint32_t offset) {
  return DecodeI64(engine_->buffer_pool().Get(page).data, offset);
}

Status BankDb::UpdateSlot(TxnId txn, PageId page, uint32_t offset,
                          int64_t value) {
  return engine_->Update(txn, page, offset, EncodeI64(value));
}

Result<TxnId> BankDb::Prepare(int account, int teller, int branch,
                              int64_t delta) {
  assert(account >= 0 && account < config_.accounts);
  assert(teller >= 0 && teller < config_.tellers);
  assert(branch >= 0 && branch < config_.branches);

  DLOG_ASSIGN_OR_RETURN(TxnId txn, engine_->Begin());

  // Three balance updates.
  DLOG_RETURN_IF_ERROR(UpdateSlot(
      txn, AccountPage(account), AccountOffset(account),
      ReadSlot(AccountPage(account), AccountOffset(account)) + delta));
  DLOG_RETURN_IF_ERROR(UpdateSlot(
      txn, TellerPage(teller), TellerOffset(teller),
      ReadSlot(TellerPage(teller), TellerOffset(teller)) + delta));
  DLOG_RETURN_IF_ERROR(UpdateSlot(
      txn, BranchPage(branch), BranchOffset(branch),
      ReadSlot(BranchPage(branch), BranchOffset(branch)) + delta));

  // History insert: a fixed-size row in a rotating region.
  const uint32_t rows_per_page =
      static_cast<uint32_t>(engine_->disk().page_bytes() / kHistoryRowBytes);
  const PageId history_page =
      history_base_ + static_cast<PageId>((history_seq_ / rows_per_page) %
                                          64);  // 64-page rotating region
  const uint32_t history_offset =
      static_cast<uint32_t>((history_seq_ % rows_per_page) *
                            kHistoryRowBytes);
  ++history_seq_;
  Bytes row;
  row.reserve(kHistoryRowBytes);
  Encoder enc(&row);
  enc.PutU64(txn);
  enc.PutU32(static_cast<uint32_t>(account));
  enc.PutU32(static_cast<uint32_t>(teller));
  enc.PutU32(static_cast<uint32_t>(branch));
  enc.PutU64(static_cast<uint64_t>(delta));
  row.resize(kHistoryRowBytes, 0);
  DLOG_RETURN_IF_ERROR(
      engine_->Update(txn, history_page, history_offset, std::move(row)));

  // Audit record padding the transaction to the ET1 log-volume profile,
  // in its own page past the history rotation region.
  Bytes audit(config_.audit_padding, 0xA5);
  DLOG_RETURN_IF_ERROR(
      engine_->Update(txn, history_base_ + 64, 0, std::move(audit)));

  return txn;
}

void BankDb::RunEt1(int account, int teller, int branch, int64_t delta,
                    std::function<void(Status)> done) {
  Result<TxnId> txn = Prepare(account, teller, branch, delta);
  if (!txn.ok()) {
    done(txn.status());
    return;
  }
  engine_->Commit(*txn, std::move(done));
}

Status BankDb::RunEt1Abort(int account, int teller, int branch,
                           int64_t delta) {
  DLOG_ASSIGN_OR_RETURN(TxnId txn, Prepare(account, teller, branch, delta));
  return engine_->Abort(txn);
}

int64_t BankDb::AccountBalance(int account) {
  return ReadSlot(AccountPage(account), AccountOffset(account));
}
int64_t BankDb::TellerBalance(int teller) {
  return ReadSlot(TellerPage(teller), TellerOffset(teller));
}
int64_t BankDb::BranchBalance(int branch) {
  return ReadSlot(BranchPage(branch), BranchOffset(branch));
}

int64_t BankDb::TotalAccounts() {
  int64_t total = 0;
  for (int i = 0; i < config_.accounts; ++i) total += AccountBalance(i);
  return total;
}
int64_t BankDb::TotalTellers() {
  int64_t total = 0;
  for (int i = 0; i < config_.tellers; ++i) total += TellerBalance(i);
  return total;
}
int64_t BankDb::TotalBranches() {
  int64_t total = 0;
  for (int i = 0; i < config_.branches; ++i) total += BranchBalance(i);
  return total;
}

}  // namespace dlog::tp
