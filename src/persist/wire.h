#ifndef RECNET_PERSIST_WIRE_H_
#define RECNET_PERSIST_WIRE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/status.h"

namespace recnet {
namespace persist {

// Snapshot file container: a fixed header followed by an opaque payload.
//
//   u64 magic | u32 format version | u32 endianness tag |
//   u64 payload size | u64 FNV-1a checksum of payload | payload bytes
//
// All integers are stored in native byte order; the endianness tag rejects a
// snapshot written on a machine with different endianness (the paper's
// engine state is a memory image, not an interchange format).
inline constexpr uint64_t kSnapshotMagic = 0x706B63'74656E6372ULL;  // "rcnetckp"
// Version 2: NetworkStats/RunMetrics gained the lossy-link and recovery
// counters (link_dropped / link_duplicated / link_retried / recoveries).
// Version 3: the BDD node table and every stored root are complement-edge
// tagged refs — (remapped node id << 1) | complement bit, with id 0 the
// single TRUE terminal — instead of version 2's plain node ids with two
// terminal ids. Writers emit version 3 and readers accept only version 3.
inline constexpr uint32_t kSnapshotVersion = 3;
inline constexpr uint32_t kMinSnapshotVersion = 3;
inline constexpr uint32_t kEndianTag = 0x01020304;
inline constexpr size_t kSnapshotHeaderBytes = 8 + 4 + 4 + 8 + 8;

inline constexpr uint64_t kFnv1aBasis = 0xcbf29ce484222325ULL;

// FNV-1a over `data`, continuing from `h`: folding a payload span by span
// with each result fed to the next call equals one call over the
// concatenation.
uint64_t Fnv1a(const uint8_t* data, size_t n, uint64_t h = kFnv1aBasis);

// Append-only byte buffer with fixed-width little-endian-native encodings.
class Writer {
 public:
  void U8(uint8_t v) { buf_.push_back(v); }
  void U16(uint16_t v) { PutRaw(&v, sizeof v); }
  void U32(uint32_t v) { PutRaw(&v, sizeof v); }
  void U64(uint64_t v) { PutRaw(&v, sizeof v); }
  void I32(int32_t v) { PutRaw(&v, sizeof v); }
  void I64(int64_t v) { PutRaw(&v, sizeof v); }
  // Doubles round-trip as their raw 8-byte bit pattern (bit-identical
  // restore is the whole point; no text formatting).
  void F64(double v) { PutRaw(&v, sizeof v); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    PutRaw(s.data(), s.size());
  }
  void Bytes(const void* data, size_t n) { PutRaw(data, n); }

  const std::vector<uint8_t>& bytes() const { return buf_; }

 private:
  void PutRaw(const void* data, size_t n) {
    const uint8_t* p = static_cast<const uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }

  std::vector<uint8_t> buf_;
};

// Bounds-checked sequential reader with a sticky error flag: once a read
// runs past the end, every subsequent read returns a zero value and ok()
// stays false, so decode loops can check status once per section instead of
// per field. The payload checksum is verified before parsing, so a sticky
// error indicates a logic/version mismatch rather than bit rot.
class Reader {
 public:
  Reader(const uint8_t* data, size_t size) : p_(data), end_(data + size) {}
  explicit Reader(const std::vector<uint8_t>& buf)
      : Reader(buf.data(), buf.size()) {}

  uint8_t U8() { return GetRaw<uint8_t>(); }
  uint16_t U16() { return GetRaw<uint16_t>(); }
  uint32_t U32() { return GetRaw<uint32_t>(); }
  uint64_t U64() { return GetRaw<uint64_t>(); }
  int32_t I32() { return GetRaw<int32_t>(); }
  int64_t I64() { return GetRaw<int64_t>(); }
  double F64() { return GetRaw<double>(); }
  bool Bool() { return U8() != 0; }
  std::string Str() {
    uint32_t n = U32();
    if (!CanRead(n)) return std::string();
    std::string s(reinterpret_cast<const char*>(p_), n);
    p_ += n;
    return s;
  }

  // Reads an element count for a loop whose elements occupy at least
  // `min_bytes_per_item` bytes each; an implausible count (corrupt data)
  // trips the error flag instead of driving a huge allocation.
  uint64_t Count(size_t min_bytes_per_item = 1) {
    uint64_t n = U64();
    if (min_bytes_per_item > 0 &&
        n > remaining() / static_cast<uint64_t>(min_bytes_per_item)) {
      ok_ = false;
      return 0;
    }
    return n;
  }

  bool ok() const { return ok_; }
  // Trips the error flag from a semantic validation failure (bad enum tag,
  // dangling node id) so it surfaces through the same Check() path.
  void Invalidate() { ok_ = false; }
  size_t remaining() const { return static_cast<size_t>(end_ - p_); }
  bool CanRead(size_t n) {
    if (remaining() < n) ok_ = false;
    return ok_;
  }
  // Section checkpoint: DataLoss once any read overran.
  Status Check(const char* what) const {
    if (ok_) return Status::OK();
    return Status::DataLoss(std::string("snapshot payload ended inside ") +
                            what);
  }

 private:
  template <typename T>
  T GetRaw() {
    T v{};
    if (!CanRead(sizeof v)) return v;
    std::memcpy(&v, p_, sizeof v);
    p_ += sizeof v;
    return v;
  }

  const uint8_t* p_;
  const uint8_t* end_;
  bool ok_ = true;
};

struct SnapshotHeader {
  uint32_t version = 0;
  uint64_t payload_size = 0;
  uint64_t checksum = 0;
};

// A borrowed run of payload bytes.
struct ByteSpan {
  const void* data;
  size_t size;
};

// Crash-atomic write: header + payload go to `path + ".tmp"`, which is
// flushed, closed, and renamed over `path` only once complete — so a crash
// (or injected fault) mid-write never leaves a partial file at `path`; at
// worst a torn `.tmp` remains, which the next successful write replaces.
//
// The payload is the concatenation of `payload`'s spans, written in order
// straight from the caller's buffers; the header's size and checksum cover
// all of them, so the file is the one a single contiguous buffer would give.
//
// `tear_after_bytes` is the fault-injection hook: when set to less than the
// full container size, exactly that many bytes (counted across the header
// and every span) are written to the temporary, the rename is skipped, and
// Unavailable is returned — modeling a process death mid-checkpoint.
// Production callers leave it at the default (no tear).
Status WriteSnapshotFile(const std::string& path,
                         const std::vector<ByteSpan>& payload,
                         size_t tear_after_bytes = SIZE_MAX);

// Reads and validates the container. Typed failures:
//   InvalidArgument  — wrong magic, unsupported version, endianness mismatch
//   DataLoss         — truncated file or checksum mismatch
//   NotFound         — file missing/unreadable
// `verify_checksum` is on for every engine restore; the inspector turns it
// off to describe a file whose corruption it is about to report.
Status ReadSnapshotPayload(const std::string& path,
                           std::vector<uint8_t>* payload,
                           SnapshotHeader* header = nullptr,
                           bool verify_checksum = true);

// Header-only probe for tooling; performs the same validation except the
// checksum, which is reported (and separately recomputable) so an inspector
// can distinguish "unreadable" from "corrupt".
Status ReadSnapshotHeader(const std::string& path, SnapshotHeader* header);

}  // namespace persist
}  // namespace recnet

#endif  // RECNET_PERSIST_WIRE_H_
