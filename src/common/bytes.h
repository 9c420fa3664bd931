#ifndef DLOG_COMMON_BYTES_H_
#define DLOG_COMMON_BYTES_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace dlog {

/// A byte buffer used for message and disk-record encoding.
using Bytes = std::vector<uint8_t>;

/// Process-wide tally of payload bytes memcpy'd across ownership
/// boundaries after their initial serialization — the copies the
/// zero-copy wire path exists to eliminate. Counted: Decoder blob/string
/// materialization, SharedBytes materialization, and the explicit
/// persistence copy into stable storage. Not counted: the one
/// unavoidable serialization pass that first builds a message or disk
/// image (Encoder appends). Benchmarks reset and diff this around a
/// workload; the counter is atomic so concurrent TrialRunner threads can
/// share it without races.
uint64_t BytesCopied();
void AddBytesCopied(uint64_t n);
void ResetBytesCopied();

namespace internal {
inline std::atomic<uint64_t>& bytes_copied_counter() {
  static std::atomic<uint64_t> counter{0};
  return counter;
}
}  // namespace internal

inline uint64_t BytesCopied() {
  return internal::bytes_copied_counter().load(std::memory_order_relaxed);
}
inline void AddBytesCopied(uint64_t n) {
  internal::bytes_copied_counter().fetch_add(n, std::memory_order_relaxed);
}
inline void ResetBytesCopied() {
  internal::bytes_copied_counter().store(0, std::memory_order_relaxed);
}

/// A refcounted immutable byte buffer, plus a view (offset/length) into
/// it. Copying a SharedBytes — or slicing sub-ranges out of it — shares
/// the underlying storage instead of duplicating bytes, which is what
/// lets one encoded message flow from the sender through Network
/// fan-out, every receiver's NIC, and envelope/record decoding without a
/// single payload copy. The refcount is atomic (std::shared_ptr), so
/// buffers may be handed across TrialRunner threads.
class SharedBytes {
 public:
  SharedBytes() = default;

  /// Takes ownership of `b` (move in; no copy when called with an
  /// rvalue). Implicit so the many call sites that build a Bytes and
  /// hand it off keep reading naturally.
  SharedBytes(Bytes b)  // NOLINT: implicit by design
      : owner_(std::make_shared<const Bytes>(std::move(b))),
        data_(owner_->data()),
        size_(owner_->size()) {}

  /// Copies `n` bytes into a fresh buffer (counted as a payload copy).
  static SharedBytes Copy(const uint8_t* data, size_t n) {
    AddBytesCopied(n);
    return SharedBytes(Bytes(data, data + n));
  }
  static SharedBytes Copy(std::string_view s) {
    return Copy(reinterpret_cast<const uint8_t*>(s.data()), s.size());
  }

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  const uint8_t* begin() const { return data_; }
  const uint8_t* end() const { return data_ + size_; }
  uint8_t operator[](size_t i) const { return data_[i]; }

  /// A view of [offset, offset+length) sharing ownership of the buffer.
  SharedBytes Slice(size_t offset, size_t length) const {
    SharedBytes out;
    out.owner_ = owner_;
    out.data_ = data_ + offset;
    out.size_ = length;
    return out;
  }

  /// Materializes an owned mutable copy (counted as a payload copy).
  Bytes ToBytes() const {
    AddBytesCopied(size_);
    return Bytes(data_, data_ + size_);
  }

  std::string_view view() const {
    return {reinterpret_cast<const char*>(data_), size_};
  }

  /// Content equality (used by LogRecord comparison and tests).
  friend bool operator==(const SharedBytes& a, const SharedBytes& b) {
    return a.size_ == b.size_ &&
           (a.size_ == 0 || std::memcmp(a.data_, b.data_, a.size_) == 0);
  }
  friend bool operator!=(const SharedBytes& a, const SharedBytes& b) {
    return !(a == b);
  }

 private:
  std::shared_ptr<const Bytes> owner_;
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
};

/// Appends fixed-width little-endian integers and length-prefixed blobs to
/// a Bytes buffer. All dlog on-wire and on-disk encodings go through this.
class Encoder {
 public:
  explicit Encoder(Bytes* out) : out_(out) {}

  void PutU8(uint8_t v) { out_->push_back(v); }
  void PutU16(uint16_t v) { PutLE(v, 2); }
  void PutU32(uint32_t v) { PutLE(v, 4); }
  void PutU64(uint64_t v) { PutLE(v, 8); }
  void PutBool(bool v) { PutU8(v ? 1 : 0); }

  /// Length-prefixed (u32) byte string.
  void PutBlob(const uint8_t* data, size_t n) {
    PutU32(static_cast<uint32_t>(n));
    out_->insert(out_->end(), data, data + n);
  }
  void PutBlob(const Bytes& b) { PutBlob(b.data(), b.size()); }
  void PutBlob(const SharedBytes& b) { PutBlob(b.data(), b.size()); }
  void PutString(std::string_view s) {
    PutBlob(reinterpret_cast<const uint8_t*>(s.data()), s.size());
  }

 private:
  // One resize per integer, not one push_back per byte: a buffer the
  // caller reserved to its encoded size is written without regrowth.
  void PutLE(uint64_t v, int width) {
    const size_t at = out_->size();
    out_->resize(at + width);
    uint8_t* p = out_->data() + at;
    for (int i = 0; i < width; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
  }

  Bytes* out_;
};

/// Consumes values previously written by Encoder. All getters return a
/// Status error (never crash) on truncated input so that corrupt packets
/// and disk blocks are survivable.
class Decoder {
 public:
  Decoder(const uint8_t* data, size_t size)
      : data_(data), size_(size), pos_(0) {}
  explicit Decoder(const Bytes& b) : Decoder(b.data(), b.size()) {}
  /// Decoding a SharedBytes remembers the owning buffer, so GetBlobView()
  /// can return zero-copy views that share its ownership.
  explicit Decoder(const SharedBytes& b)
      : owner_(b), data_(b.data()), size_(b.size()), pos_(0) {}

  size_t remaining() const { return size_ - pos_; }
  bool Done() const { return pos_ == size_; }

  Result<uint8_t> GetU8() {
    if (remaining() < 1) return Truncated();
    return data_[pos_++];
  }
  Result<uint16_t> GetU16() { return GetLE<uint16_t>(2); }
  Result<uint32_t> GetU32() { return GetLE<uint32_t>(4); }
  Result<uint64_t> GetU64() { return GetLE<uint64_t>(8); }
  Result<bool> GetBool() {
    DLOG_ASSIGN_OR_RETURN(uint8_t v, GetU8());
    return v != 0;
  }

  /// Materializes a length-prefixed blob into an owned buffer (a counted
  /// payload copy — prefer GetBlobView() on hot paths).
  Result<Bytes> GetBlob() {
    DLOG_ASSIGN_OR_RETURN(uint32_t n, GetU32());
    if (remaining() < n) return Truncated();
    AddBytesCopied(n);
    Bytes out(data_ + pos_, data_ + pos_ + n);
    pos_ += n;
    return out;
  }

  /// Zero-copy blob access: when the Decoder was constructed from a
  /// SharedBytes the result is a view sharing that buffer; otherwise the
  /// bytes are copied (the input's lifetime is unknown).
  Result<SharedBytes> GetBlobView() {
    DLOG_ASSIGN_OR_RETURN(uint32_t n, GetU32());
    if (remaining() < n) return Truncated();
    SharedBytes out;
    if (n > 0) {
      out = owner_.data() != nullptr ? owner_.Slice(pos_, n)
                                     : SharedBytes::Copy(data_ + pos_, n);
    }
    pos_ += n;
    return out;
  }

  Result<std::string> GetString() {
    DLOG_ASSIGN_OR_RETURN(uint32_t n, GetU32());
    if (remaining() < n) return Truncated();
    AddBytesCopied(n);
    std::string out(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return out;
  }

 private:
  static Status Truncated() {
    return Status::Corruption("decode past end of buffer");
  }

  template <typename T>
  Result<T> GetLE(int width) {
    if (remaining() < static_cast<size_t>(width)) return Truncated();
    uint64_t v = 0;
    for (int i = 0; i < width; ++i) {
      v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += width;
    return static_cast<T>(v);
  }

  SharedBytes owner_;  // set only for the SharedBytes constructor
  const uint8_t* data_;
  size_t size_;
  size_t pos_;
};

/// Convenience: builds a Bytes from a string literal/payload.
inline Bytes ToBytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}
inline std::string ToString(const Bytes& b) {
  return std::string(b.begin(), b.end());
}
inline std::string ToString(const SharedBytes& b) {
  return std::string(b.view());
}

}  // namespace dlog

#endif  // DLOG_COMMON_BYTES_H_
