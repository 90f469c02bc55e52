// svc::client -- the blocking client side of the screening service.
//
// Connects to a bistna_serverd endpoint, checks the server's hello,
// submits lot manifests and pulls the typed event stream (progress /
// result / error / done) back.  Result frames wrap the exact data record
// the offline `screening_lot --store` path appends, in global unit order,
// so collecting them into a store file reproduces the offline run byte
// for byte.
//
// The client is deliberately synchronous -- one socket, one reader; tests
// and tools that want concurrency open several clients (sessions are
// cheap on the server, that is the point of the daemon).
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "shard/manifest.hpp"
#include "store/format.hpp"
#include "svc/protocol.hpp"
#include "svc/socket.hpp"

namespace bistna::svc {

/// A terminal svc_error frame surfaced as an exception (run() and
/// collect() throw it; next_event() reports error frames as data).
class service_error : public std::runtime_error {
public:
    explicit service_error(error_frame frame)
        : std::runtime_error(std::string(error_code_name(frame.code)) + ": " +
                             frame.message),
          frame_(std::move(frame)) {}

    const error_frame& frame() const noexcept { return frame_; }
    error_code code() const noexcept { return frame_.code; }

private:
    error_frame frame_;
};

class client {
public:
    /// One server-to-client event, decoded and typed.
    struct event {
        enum class kind { progress, result, error, done };
        kind type = kind::progress;
        progress_frame progress; ///< type == progress
        result_frame result;     ///< type == result
        error_frame error;       ///< type == error
        done_frame done;         ///< type == done
    };

    /// Connect ("tcp:PORT" or a unix socket path) and read the server's
    /// hello; throws configuration_error on a refused connection or a
    /// protocol version mismatch.
    explicit client(const std::string& endpoint_text);
    ~client();

    client(const client&) = delete;
    client& operator=(const client&) = delete;

    const hello_frame& hello() const noexcept { return hello_; }

    /// Submit a manifest under a client-chosen nonzero request id
    /// (session-unique).  Returns immediately; results arrive via
    /// next_event().
    void submit(std::uint64_t request, const shard::lot_manifest& manifest);

    /// Ask the server to cancel a request (cooperative; a `cancelled`
    /// error frame follows unless the request already finished).
    void cancel(std::uint64_t request);

    /// Block for the next server frame; nullopt on a clean EOF.  Throws
    /// serialization_error on framing damage and configuration_error on a
    /// frame the client cannot decode.
    std::optional<event> next_event();

    /// Drive next_event() until `request` finishes: returns its records
    /// in unit order on done, throws service_error on a terminal error
    /// frame (session-scoped errors included), configuration_error on a
    /// server that hangs up mid-request.  Events for other in-flight
    /// requests are ignored -- collect one request at a time per client.
    std::vector<store::record> collect(std::uint64_t request);

    /// submit + collect under one fresh request id.
    std::vector<store::record> run(const shard::lot_manifest& manifest);

    /// The raw socket fd -- tests use it to stop reading (slow-reader
    /// shedding) or to slam the connection shut mid-job.
    int fd() const noexcept { return fd_.get(); }

private:
    void send_record(const store::record& r);
    std::optional<store::record> read_frame();

    socket_fd fd_;
    frame_decoder decoder_;
    hello_frame hello_;
    std::uint64_t next_request_ = 1;
};

/// The screening_client example's main (`--help` lists its flags).
/// Returns the process exit code.
int client_main(int argc, char** argv);

} // namespace bistna::svc
