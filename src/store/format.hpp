// The framed binary record format of the persistent result store.
//
// CSV shards carry a million-die lot poorly: text formatting dominates the
// serialization wall clock, NaN payloads and limit names are lost, and a
// torn write is indistinguishable from a short lot.  This format is the
// compact alternative (and the wire format a shard runner streams):
//
//   file   := file_header frame*
//   file_header (16 bytes) :=
//       magic   u32  "BSTR" (0x52545342 little-endian)
//       version u16  format_version
//       endian  u16  0x0102 written natively -- a byte-swapped reader
//                    sees 0x0201 and rejects the file instead of silently
//                    mis-decoding every payload
//       reserved u32 0
//       crc     u32  CRC-32 of the 12 bytes above
//   frame := type u16, flags u16 (0), length u32, payload[length],
//            crc u32  -- CRC-32 over the 8 frame-header bytes AND the
//            payload, so a bit flip in type/length is caught exactly like
//            one in the data
//
// All integers are little-endian; doubles travel as their IEEE-754 bit
// patterns (NaN payloads and signed zeros survive exactly, unlike text).
// Malformed input throws bistna::serialization_error carrying the byte
// offset of the first offending byte.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace bistna::store {

inline constexpr std::uint32_t store_magic = 0x52545342u; // "BSTR"
inline constexpr std::uint16_t format_version = 1;
inline constexpr std::uint16_t endian_tag = 0x0102;
inline constexpr std::size_t file_header_size = 16;
inline constexpr std::size_t frame_header_size = 8;
inline constexpr std::size_t frame_trailer_size = 4;
/// Frames longer than this are rejected as corrupt before any allocation
/// happens (a flipped length byte must not ask for gigabytes).
inline constexpr std::uint32_t max_frame_payload = 1u << 30;

/// Typed records the store understands.  Values are part of the on-disk
/// format: never renumber, only append.
enum class record_type : std::uint16_t {
    screening_report = 1,  ///< one die's core::screening_report (+ die id)
    acquisition_result = 2, ///< one core::sweep_engine::acquisition_result
    trajectory_point = 3,  ///< one diag dictionary severity-grid point
    dictionary_header = 4, ///< fault-dictionary metadata (space, shape)
    dictionary_matrix = 5, ///< contiguous f64 block of all dictionary rows
    telemetry_snapshot = 6, ///< one process's telemetry snapshot (sidecar)

    // Service control records (src/svc): the screening service speaks the
    // same CRC-checked frame layout over its sockets that the store writes
    // to disk, so one decoder serves both.  Control payloads are strict
    // JSON (svc/protocol.hpp); svc_result wraps a data record above
    // byte-for-byte, which is what makes a client-written store file
    // bit-identical to the offline path's.
    svc_hello = 7,    ///< server greeting: {"protocol", "server"}
    svc_submit = 8,   ///< client job submission: {"request", "manifest"}
    svc_progress = 9, ///< per-request progress: {"request", "completed", "total"}
    svc_result = 10,  ///< one unit's result: ids + a wrapped data record
    svc_error = 11,   ///< typed error: {"request", "code", "message", ["offset"]}
    svc_cancel = 12,  ///< client cancel: {"request"}
    svc_done = 13,    ///< terminal success: {"request", "units"}
};

/// One decoded frame: the type tag plus its raw payload bytes.
struct record {
    record_type type{};
    std::vector<std::uint8_t> payload;

    bool operator==(const record&) const = default;
};

/// Append-only payload builder.  All writes are native little-endian;
/// doubles are stored as bit patterns (bit-exact round trips by
/// construction).
class byte_writer {
public:
    void u8(std::uint8_t v) { buf_.push_back(v); }
    void u16(std::uint16_t v) { raw(&v, sizeof v); }
    void u32(std::uint32_t v) { raw(&v, sizeof v); }
    void u64(std::uint64_t v) { raw(&v, sizeof v); }
    void i32(std::int32_t v) { raw(&v, sizeof v); }
    void f64(double v) { raw(&v, sizeof v); }
    void boolean(bool v) { u8(v ? 1 : 0); }

    /// u32 byte count + raw bytes (no terminator).
    void str(const std::string& s);

    /// u32 element count + the doubles' bit patterns.
    void f64_span(std::span<const double> values);

    /// Zero padding (alignment of a following frame's payload).
    void pad(std::size_t bytes) { buf_.insert(buf_.end(), bytes, 0); }

    /// Raw bytes, no length prefix (bulk blocks whose size the format
    /// derives elsewhere, e.g. the dictionary matrix).
    void bytes(const void* p, std::size_t n) { raw(p, n); }

    std::size_t size() const noexcept { return buf_.size(); }
    std::vector<std::uint8_t> take() { return std::move(buf_); }

private:
    // GCC 12 false positive: inlined into a fresh writer's first write, it
    // sizes the empty vector as a 0-byte region and misses the reallocation.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wstringop-overflow"
    void raw(const void* p, std::size_t n) {
        if (n == 0) {
            return; // p may be null (empty vector/span), and null + 0 is UB
        }
        const auto* bytes = static_cast<const std::uint8_t*>(p);
        buf_.insert(buf_.end(), bytes, bytes + n);
    }
#pragma GCC diagnostic pop

    std::vector<std::uint8_t> buf_;
};

/// Bounds-checked payload cursor.  Every underrun throws
/// serialization_error at base_offset + cursor, so a decoder error names
/// the absolute file position of the bad byte.  Trailing unconsumed bytes
/// are legal (alignment padding).
class byte_reader {
public:
    explicit byte_reader(std::span<const std::uint8_t> bytes, std::uint64_t base_offset = 0)
        : bytes_(bytes), base_(base_offset) {}

    std::uint8_t u8() { return take<std::uint8_t>(); }
    std::uint16_t u16() { return take<std::uint16_t>(); }
    std::uint32_t u32() { return take<std::uint32_t>(); }
    std::uint64_t u64() { return take<std::uint64_t>(); }
    std::int32_t i32() { return take<std::int32_t>(); }
    double f64() { return take<double>(); }
    bool boolean() { return u8() != 0; }

    std::string str();
    std::vector<double> f64_vector();

    std::size_t remaining() const noexcept { return bytes_.size() - pos_; }
    /// Absolute offset of the next unread byte.
    std::uint64_t offset() const noexcept { return base_ + pos_; }

    /// Throws unless at least `bytes` more payload bytes exist -- decoders
    /// use it to validate an element count before looping.
    void require(std::size_t bytes, const char* what) const;

private:
    template <typename T> T take() {
        require(sizeof(T), "value");
        T v;
        std::memcpy(&v, bytes_.data() + pos_, sizeof(T));
        pos_ += sizeof(T);
        return v;
    }

    std::span<const std::uint8_t> bytes_;
    std::size_t pos_ = 0;
    std::uint64_t base_ = 0;
};

/// The 16 header bytes every store file starts with.
std::array<std::uint8_t, file_header_size> encode_file_header();

/// Validate a file header; throws serialization_error (offset of the bad
/// field) on anything but a well-formed native-endian current-version
/// header.  `file_size` lets a zero-length or truncated file fail with a
/// dedicated message.
void validate_file_header(std::span<const std::uint8_t> header, std::uint64_t file_size);

} // namespace bistna::store
