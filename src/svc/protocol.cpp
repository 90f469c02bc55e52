#include "svc/protocol.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/json_schema.hpp"
#include "store/crc32.hpp"
#include "store/record_io.hpp"
#include "store/records.hpp"

namespace bistna::svc {

namespace {

constexpr json_name<error_code> error_code_names[] = {
    {error_code::bad_frame, "bad_frame"},     {error_code::bad_request, "bad_request"},
    {error_code::overloaded, "overloaded"},   {error_code::slow_reader, "slow_reader"},
    {error_code::cancelled, "cancelled"},     {error_code::idle_timeout, "idle_timeout"},
    {error_code::shutdown, "shutdown"},       {error_code::internal, "internal"},
};

void expect(const store::record& r, store::record_type type, const std::string& what) {
    if (r.type != type) {
        throw configuration_error("service frame: expected " + what + " (type " +
                                  std::to_string(static_cast<unsigned>(r.type)) + ")");
    }
}

template <class Frame> store::record encode_control(const Frame& f) {
    const std::string text = to_json(Frame::schema().write(f));
    return store::record{Frame::type, std::vector<std::uint8_t>(text.begin(), text.end())};
}

template <class Frame> Frame decode_control(const store::record& r) {
    const json_schema<Frame>& schema = Frame::schema();
    expect(r, Frame::type, schema.name());
    Frame f;
    schema.read(parse_json(std::string_view(reinterpret_cast<const char*>(r.payload.data()),
                                            r.payload.size()),
                           schema.name() + " JSON"),
                f);
    return f;
}

} // namespace

const char* error_code_name(error_code code) noexcept {
    return json_name_of(error_code_names, code).data();
}

error_code error_code_from_name(std::string_view name) {
    const auto it = std::ranges::find(error_code_names, name, &json_name<error_code>::name);
    if (it == std::end(error_code_names)) {
        throw configuration_error("service frame: unknown error code \"" + std::string(name) +
                                  "\"");
    }
    return it->value;
}

// --- control-frame schemas --------------------------------------------------

const json_schema<hello_frame>& hello_frame::schema() {
    static const auto schema = json_schema<hello_frame>("hello", json_keys::required)
                                   .add("protocol", &hello_frame::protocol)
                                   .add("server", &hello_frame::server);
    return schema;
}

const json_schema<submit_frame>& submit_frame::schema() {
    static const auto schema =
        json_schema<submit_frame>("submit", json_keys::required)
            .add("request", &submit_frame::request)
            .add("manifest", &submit_frame::manifest, shard::lot_manifest::schema());
    return schema;
}

const json_schema<progress_frame>& progress_frame::schema() {
    static const auto schema = json_schema<progress_frame>("progress", json_keys::required)
                                   .add("request", &progress_frame::request)
                                   .add("completed", &progress_frame::completed)
                                   .add("total", &progress_frame::total);
    return schema;
}

const json_schema<error_frame>& error_frame::schema() {
    static const auto schema = json_schema<error_frame>("error", json_keys::required)
                                   .add("request", &error_frame::request)
                                   .add("code", &error_frame::code, error_code_names)
                                   .add("message", &error_frame::message)
                                   .add("offset", &error_frame::offset);
    return schema;
}

const json_schema<cancel_frame>& cancel_frame::schema() {
    static const auto schema = json_schema<cancel_frame>("cancel", json_keys::required)
                                   .add("request", &cancel_frame::request);
    return schema;
}

const json_schema<done_frame>& done_frame::schema() {
    static const auto schema = json_schema<done_frame>("done", json_keys::required)
                                   .add("request", &done_frame::request)
                                   .add("units", &done_frame::units);
    return schema;
}

// --- encoders --------------------------------------------------------------

store::record encode(const hello_frame& f) { return encode_control(f); }
store::record encode(const submit_frame& f) { return encode_control(f); }
store::record encode(const progress_frame& f) { return encode_control(f); }
store::record encode(const error_frame& f) { return encode_control(f); }
store::record encode(const cancel_frame& f) { return encode_control(f); }
store::record encode(const done_frame& f) { return encode_control(f); }

store::record encode(const result_frame& f) {
    store::byte_writer w;
    w.u64(f.request);
    w.u64(f.unit);
    w.u16(static_cast<std::uint16_t>(f.record.type));
    w.u16(0); // reserved
    w.bytes(f.record.payload.data(), f.record.payload.size());
    return store::record{store::record_type::svc_result, w.take()};
}

std::vector<std::uint8_t> wire_bytes(const store::record& r) {
    return store::encode_frame(r.type, r.payload);
}

// --- decoders --------------------------------------------------------------

hello_frame decode_hello(const store::record& r) { return decode_control<hello_frame>(r); }
submit_frame decode_submit(const store::record& r) { return decode_control<submit_frame>(r); }
progress_frame decode_progress(const store::record& r) {
    return decode_control<progress_frame>(r);
}
error_frame decode_error(const store::record& r) { return decode_control<error_frame>(r); }
cancel_frame decode_cancel(const store::record& r) { return decode_control<cancel_frame>(r); }
done_frame decode_done(const store::record& r) { return decode_control<done_frame>(r); }

result_frame decode_result(const store::record& r) {
    expect(r, store::record_type::svc_result, "result");
    store::byte_reader reader(r.payload);
    result_frame f;
    f.request = reader.u64();
    f.unit = reader.u64();
    f.record.type = static_cast<store::record_type>(reader.u16());
    reader.u16(); // reserved
    f.record.payload.assign(r.payload.begin() + 20, r.payload.end());
    return f;
}

// --- incremental frame decoder ---------------------------------------------

void frame_decoder::feed(std::span<const std::uint8_t> bytes) {
    // Compact lazily: once the parsed prefix dominates the buffer, slide
    // the unparsed tail down so memory stays bounded by one frame.
    if (head_ > 4096 && head_ > buffer_.size() / 2) {
        buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<std::ptrdiff_t>(head_));
        head_ = 0;
    }
    buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

std::optional<store::record> frame_decoder::next() {
    const std::size_t available = buffer_.size() - head_;
    if (available < store::frame_header_size) {
        return std::nullopt;
    }
    const std::uint8_t* frame = buffer_.data() + head_;
    std::uint16_t type_raw = 0;
    std::uint32_t length = 0;
    std::memcpy(&type_raw, frame + 0, 2);
    std::memcpy(&length, frame + 4, 4);
    if (length > max_payload_) {
        throw serialization_error("service frame: implausible payload length " +
                                      std::to_string(length) + " (cap " +
                                      std::to_string(max_payload_) + ")",
                                  consumed_ + 4);
    }
    const std::size_t total =
        store::frame_header_size + length + store::frame_trailer_size;
    if (available < total) {
        return std::nullopt;
    }
    std::uint32_t stated_crc = 0;
    std::memcpy(&stated_crc, frame + store::frame_header_size + length, 4);
    const std::uint32_t actual_crc =
        store::crc32(frame, store::frame_header_size + length);
    if (stated_crc != actual_crc) {
        throw serialization_error("service frame: CRC mismatch", consumed_);
    }
    store::record r;
    r.type = static_cast<store::record_type>(type_raw);
    r.payload.assign(frame + store::frame_header_size,
                     frame + store::frame_header_size + length);
    head_ += total;
    consumed_ += total;
    return r;
}

} // namespace bistna::svc
