// Wire protocol of the screening service: the store's CRC-checked frame
// layout (store/format.hpp) spoken over a socket.
//
//   frame := type u16, flags u16 (0), length u32, payload[length],
//            crc32 over header + payload
//
// There is no file header on the wire -- a connection starts with the
// server's svc_hello frame instead (protocol version negotiation).  Frame
// types are the svc_* values of store::record_type, so the service's
// control records and the store's data records share one numbering space
// and one decoder.  Control payloads (hello/submit/progress/error/cancel/
// done) are strict JSON read and written through one schema table per
// frame, the submit frame nesting the lot manifest's own; result payloads are
// binary -- they wrap the exact data record the offline store path would
// have appended, so a client writing received records to a lot_store
// reproduces the offline file byte for byte.
//
// Robustness contract: a CRC-valid frame with a malformed payload is a
// request-level error (the session survives); a torn, bit-flipped or
// oversized frame is a framing error carrying the absolute byte offset of
// the first offending byte (the stream cannot resync, so the session is
// closed after a typed error frame).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "shard/manifest.hpp"
#include "store/format.hpp"

namespace bistna::svc {

/// Bumped on any incompatible frame-layout or schema change; the server
/// states its version in svc_hello and clients refuse a mismatch.
inline constexpr std::uint32_t protocol_version = 1;

/// Frames larger than this are rejected before any allocation happens (a
/// malicious or bit-flipped length must not ask the daemon for gigabytes).
/// Generous for real traffic: submits are small JSON, results are a few
/// KiB per die.
inline constexpr std::uint32_t max_frame_payload = 8u << 20;

/// Typed error taxonomy of svc_error frames.  Stable names travel on the
/// wire; values are free to reorder.
enum class error_code {
    bad_frame,    ///< framing broken (CRC, truncation, oversized length)
    bad_request,  ///< CRC-valid frame the server cannot honor (bad JSON,
                  ///< unknown type, duplicate request id, bad manifest)
    overloaded,   ///< admission queue full or session quota exceeded; the
                  ///< request was shed, resubmit later
    slow_reader,  ///< session shed: the client stopped draining its socket
                  ///< while results backed up past the send-queue bound
    cancelled,    ///< request ended early (client cancel or disconnect)
    idle_timeout, ///< session closed after sitting idle past the limit
    shutdown,     ///< server stopping; outstanding requests are cancelled
    internal,     ///< a worker exception failed the job (message has what())
};

const char* error_code_name(error_code code) noexcept;
/// Throws configuration_error on an unknown name.
error_code error_code_from_name(std::string_view name);

// --- control frames (strict JSON payloads) ---------------------------------
// Each declares its record type and JSON schema: every key required but
// error.offset, no unknown keys, integers range-checked to their type.

struct hello_frame {
    static constexpr store::record_type type = store::record_type::svc_hello;
    static const json_schema<hello_frame>& schema();
    std::uint32_t protocol = protocol_version;
    std::string server = "bistna_serverd";
};

struct submit_frame {
    static constexpr store::record_type type = store::record_type::svc_submit;
    static const json_schema<submit_frame>& schema(); ///< nests lot_manifest's
    std::uint64_t request = 0; ///< client-assigned id, nonzero, session-unique
    shard::lot_manifest manifest;
};

struct progress_frame {
    static constexpr store::record_type type = store::record_type::svc_progress;
    static const json_schema<progress_frame>& schema();
    std::uint64_t request = 0;
    std::uint64_t completed = 0; ///< units computed so far (0 = just admitted)
    std::uint64_t total = 0;
};

struct error_frame {
    static constexpr store::record_type type = store::record_type::svc_error;
    static const json_schema<error_frame>& schema();
    std::uint64_t request = 0; ///< 0 = session-scope
    error_code code = error_code::internal;
    std::string message;
    /// Absolute session byte offset for bad_frame errors.
    std::optional<std::uint64_t> offset;
};

struct cancel_frame {
    static constexpr store::record_type type = store::record_type::svc_cancel;
    static const json_schema<cancel_frame>& schema();
    std::uint64_t request = 0;
};

struct done_frame {
    static constexpr store::record_type type = store::record_type::svc_done;
    static const json_schema<done_frame>& schema();
    std::uint64_t request = 0;
    std::uint64_t units = 0; ///< results streamed (== manifest units)
};

// --- result frames (binary payload wrapping a data record) -----------------

struct result_frame {
    std::uint64_t request = 0;
    std::uint64_t unit = 0; ///< global unit index within the job's manifest
    store::record record;   ///< exactly what the offline store path appends
};

/// Encode each frame kind as a typed record (the payload of one wire
/// frame); wire_bytes() adds the frame header + CRC.
store::record encode(const hello_frame& f);
store::record encode(const submit_frame& f);
store::record encode(const progress_frame& f);
store::record encode(const error_frame& f);
store::record encode(const cancel_frame& f);
store::record encode(const done_frame& f);
store::record encode(const result_frame& f);

/// The bytes actually written to the socket for a record.
std::vector<std::uint8_t> wire_bytes(const store::record& r);

/// Decoders throw serialization_error (binary payload underrun) or
/// configuration_error (malformed control JSON) naming the problem; each
/// checks the record's type tag first.
hello_frame decode_hello(const store::record& r);
submit_frame decode_submit(const store::record& r);
progress_frame decode_progress(const store::record& r);
error_frame decode_error(const store::record& r);
cancel_frame decode_cancel(const store::record& r);
done_frame decode_done(const store::record& r);
result_frame decode_result(const store::record& r);

/// Incremental frame decoder over a byte stream.  feed() raw socket
/// bytes, then pull complete frames with next(); framing damage throws
/// serialization_error carrying the ABSOLUTE stream offset (bytes since
/// the connection opened) of the first offending byte, mirroring the
/// store reader's corrupt-file errors.
class frame_decoder {
public:
    explicit frame_decoder(std::uint32_t max_payload = max_frame_payload)
        : max_payload_(max_payload) {}

    void feed(std::span<const std::uint8_t> bytes);

    /// The next complete frame, or nullopt until more bytes arrive.
    /// Throws serialization_error on an oversized length (offset of the
    /// length field) or a CRC mismatch (offset of the frame start).
    std::optional<store::record> next();

    /// Absolute stream offset of the next undecoded byte.
    std::uint64_t offset() const noexcept { return consumed_; }
    std::size_t buffered() const noexcept { return buffer_.size() - head_; }

private:
    std::uint32_t max_payload_;
    std::vector<std::uint8_t> buffer_;
    std::size_t head_ = 0;        ///< first unparsed byte within buffer_
    std::uint64_t consumed_ = 0;  ///< absolute offset of buffer_[head_]
};

} // namespace bistna::svc
