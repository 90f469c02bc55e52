#include "svc/server.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <deque>
#include <iostream>
#include <thread>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "core/job_queue.hpp"
#include "shard/unit_stream.hpp"
#include "svc/protocol.hpp"
#include "svc/socket.hpp"
#include "telemetry/front_end.hpp"
#include "telemetry/metrics.hpp"

namespace bistna::svc {

namespace {

/// Interned once; recording is a no-op branch unless a registry is
/// attached, so the daemon pays nothing for telemetry it was not asked
/// for.
struct svc_metrics {
    telemetry::metric_id sessions_accepted = telemetry::counter_id("svc.sessions.accepted");
    telemetry::metric_id sessions_closed = telemetry::counter_id("svc.sessions.closed");
    telemetry::metric_id sessions_shed = telemetry::counter_id("svc.sessions.shed");
    telemetry::metric_id jobs_admitted = telemetry::counter_id("svc.jobs.admitted");
    telemetry::metric_id jobs_completed = telemetry::counter_id("svc.jobs.completed");
    telemetry::metric_id jobs_cancelled = telemetry::counter_id("svc.jobs.cancelled");
    telemetry::metric_id jobs_rejected = telemetry::counter_id("svc.jobs.rejected");
    telemetry::metric_id jobs_failed = telemetry::counter_id("svc.jobs.failed");
    telemetry::metric_id frames_in = telemetry::counter_id("svc.frames.in");
    telemetry::metric_id frames_out = telemetry::counter_id("svc.frames.out");
    telemetry::metric_id bytes_in = telemetry::counter_id("svc.bytes.in");
    telemetry::metric_id bytes_out = telemetry::counter_id("svc.bytes.out");
    telemetry::metric_id admission_depth = telemetry::histogram_id("svc.admission.depth");
    telemetry::metric_id admission_wait = telemetry::histogram_id("svc.admission.wait_ns");
    telemetry::metric_id request_latency = telemetry::histogram_id("svc.request.latency_ns");
    telemetry::metric_id send_queue_bytes = telemetry::histogram_id("svc.send_queue.bytes");
};

const svc_metrics& metrics() {
    static const svc_metrics m;
    return m;
}

} // namespace

struct service_server::impl {
    explicit impl(server_options o) : opts(std::move(o)) {}

    server_options opts;

    std::shared_ptr<core::job_queue> queue;
    socket_fd unix_listener;
    socket_fd tcp_listener;
    std::uint16_t bound_tcp_port = 0;
    int wake_read = -1;
    int wake_write = -1;
    std::thread loop;
    std::atomic<bool> stop_flag{false};
    std::atomic<bool> running{false};
    bool started = false;

    // Introspection counters: written by the loop thread, read by anyone.
    std::atomic<std::uint64_t> c_accepted{0}, c_closed{0}, c_shed{0};
    std::atomic<std::uint64_t> c_admitted{0}, c_completed{0}, c_cancelled{0};
    std::atomic<std::uint64_t> c_rejected{0}, c_failed{0};

    // ----- loop-thread state (never touched from outside the loop) --------

    struct pending_request {
        std::uint64_t id = 0;
        shard::lot_manifest manifest;
        std::uint64_t submitted_ns = 0;
    };

    struct active_request {
        std::uint64_t id = 0;
        std::uint64_t total = 0;
        std::uint64_t sent = 0; ///< result frames queued so far
        std::uint64_t submitted_ns = 0;
        std::unique_ptr<shard::unit_stream> stream;
    };

    struct session {
        socket_fd fd;
        std::uint64_t id = 0;
        frame_decoder decoder;

        std::deque<std::vector<std::uint8_t>> send_queue;
        std::size_t send_head = 0; ///< sent bytes of send_queue.front()
        std::size_t queued_bytes = 0;

        std::deque<pending_request> pending;
        std::vector<active_request> active;

        std::uint64_t last_activity_ns = 0;
        std::uint64_t stall_since_ns = 0;
        bool close_after_flush = false;
        bool input_dead = false; ///< stop reading (framing error / shed)
        bool dead = false;       ///< removed by reap() at the next loop top
    };

    std::vector<std::unique_ptr<session>> sessions;
    std::size_t rr_cursor = 0;      ///< fair dispatch position
    std::size_t total_pending = 0;  ///< admitted-not-dispatched, all sessions
    std::size_t active_jobs = 0;
    std::uint64_t next_session_id = 1;
    /// Cancelled streams ride here until finished() so their destructors
    /// never block the event loop.
    std::vector<std::unique_ptr<shard::unit_stream>> draining;

    // ----- lifecycle -------------------------------------------------------

    void start() {
        if (started) {
            throw configuration_error("service server: already started");
        }
        if (opts.listen_path.empty() && opts.tcp_port < 0) {
            throw configuration_error(
                "service server: no listener (set listen_path or tcp_port)");
        }
        queue = std::make_shared<core::job_queue>(opts.worker_threads,
                                                  core::job_schedule::round_robin);
        if (!opts.listen_path.empty()) {
            unix_listener = listen_unix(opts.listen_path);
        }
        if (opts.tcp_port >= 0) {
            tcp_listener = listen_tcp_loopback(static_cast<std::uint16_t>(opts.tcp_port),
                                               &bound_tcp_port);
        }
        int pipe_fds[2] = {-1, -1};
        if (::pipe(pipe_fds) != 0) {
            throw configuration_error("service server: pipe() failed");
        }
        wake_read = pipe_fds[0];
        wake_write = pipe_fds[1];
        set_nonblocking(wake_read);
        set_nonblocking(wake_write);
        started = true;
        stop_flag.store(false, std::memory_order_relaxed);
        running.store(true, std::memory_order_release);
        loop = std::thread([this] { loop_main(); });
    }

    void stop() {
        if (!started) {
            return;
        }
        stop_flag.store(true, std::memory_order_release);
        wake();
        loop.join();
        // The loop's teardown cancelled and drained every stream, but a
        // worker can still be INSIDE the post-publish notifier: it fires
        // after the channel lock is released, so a drained handle does
        // not cover it.  The streams are gone, so this is the pool's last
        // reference -- dropping it joins the workers, and only then is it
        // safe to tear the wake pipe out from under wake().
        queue.reset();
        ::close(wake_read);
        ::close(wake_write);
        wake_read = wake_write = -1;
        unix_listener.reset();
        tcp_listener.reset();
        if (!opts.listen_path.empty()) {
            ::unlink(opts.listen_path.c_str());
        }
        started = false;
        running.store(false, std::memory_order_release);
    }

    /// Wake the poll loop.  Called from worker threads (unit_stream item
    /// callbacks) and stop(); a full pipe means a wake is already pending,
    /// so EAGAIN is success.
    void wake() noexcept {
        const std::uint8_t byte = 1;
        (void)::write(wake_write, &byte, 1);
    }

    // ----- the event loop --------------------------------------------------

    void loop_main() {
        telemetry::set_thread_name("svc-loop");
        std::vector<pollfd> fds;
        while (!stop_flag.load(std::memory_order_acquire)) {
            reap();
            dispatch();
            pump_all();
            check_stalls_and_idle();

            fds.clear();
            fds.push_back({wake_read, POLLIN, 0});
            if (unix_listener.valid()) {
                fds.push_back({unix_listener.get(), POLLIN, 0});
            }
            if (tcp_listener.valid()) {
                fds.push_back({tcp_listener.get(), POLLIN, 0});
            }
            const std::size_t session_base = fds.size();
            for (const auto& s : sessions) {
                short events = 0;
                if (!s->input_dead && !s->dead) {
                    events |= POLLIN;
                }
                if (s->queued_bytes > 0 && !s->dead) {
                    events |= POLLOUT;
                }
                fds.push_back({s->fd.get(), events, 0});
            }

            ::poll(fds.data(), static_cast<nfds_t>(fds.size()), poll_timeout_ms());

            if ((fds[0].revents & POLLIN) != 0) {
                std::uint8_t sink[256];
                while (::read(wake_read, sink, sizeof sink) > 0) {
                }
            }
            std::size_t idx = 1;
            if (unix_listener.valid()) {
                if ((fds[idx].revents & POLLIN) != 0) {
                    accept_all(unix_listener.get());
                }
                ++idx;
            }
            if (tcp_listener.valid()) {
                if ((fds[idx].revents & POLLIN) != 0) {
                    accept_all(tcp_listener.get());
                }
                ++idx;
            }
            // accept_all() appended to `sessions`, so only the first
            // `fds.size() - session_base` entries have poll results.
            const std::size_t polled = fds.size() - session_base;
            for (std::size_t i = 0; i < polled; ++i) {
                session& s = *sessions[i];
                const short revents = fds[session_base + i].revents;
                if (s.dead || revents == 0) {
                    continue;
                }
                if ((revents & POLLIN) != 0) {
                    read_session(s);
                }
                if (!s.dead && (revents & POLLOUT) != 0) {
                    write_session(s);
                }
                if (!s.dead && (revents & (POLLERR | POLLNVAL)) != 0) {
                    kill_session(s);
                }
                if (!s.dead && (revents & POLLHUP) != 0 && (revents & POLLIN) == 0) {
                    kill_session(s);
                }
            }
        }
        shutdown_all();
    }

    int poll_timeout_ms() const {
        const std::uint64_t now = telemetry::now_ns();
        std::uint64_t deadline = UINT64_MAX;
        for (const auto& s : sessions) {
            if (s->dead) {
                continue;
            }
            if (opts.stall_timeout_ms != 0 && s->stall_since_ns != 0) {
                deadline = std::min(deadline,
                                    s->stall_since_ns + opts.stall_timeout_ms * 1000000);
            }
            if (opts.idle_timeout_ms != 0 && !s->close_after_flush &&
                s->pending.empty() && s->active.empty() && s->queued_bytes == 0) {
                deadline = std::min(deadline,
                                    s->last_activity_ns + opts.idle_timeout_ms * 1000000);
            }
        }
        if (!draining.empty()) {
            // Cancelled streams stop firing item callbacks; poll their
            // finished() state instead of waiting on a wake that may never
            // come.
            deadline = std::min(deadline, now + 50u * 1000000);
        }
        if (deadline == UINT64_MAX) {
            return 500;
        }
        if (deadline <= now) {
            return 0;
        }
        return static_cast<int>(std::min<std::uint64_t>((deadline - now) / 1000000 + 1, 500));
    }

    void reap() {
        draining.erase(std::remove_if(draining.begin(), draining.end(),
                                      [](const std::unique_ptr<shard::unit_stream>& d) {
                                          return d->finished();
                                      }),
                       draining.end());
        sessions.erase(std::remove_if(sessions.begin(), sessions.end(),
                                      [](const std::unique_ptr<session>& s) {
                                          return s->dead;
                                      }),
                       sessions.end());
    }

    void accept_all(int listener) {
        for (;;) {
            socket_fd fd = accept_nonblocking(listener);
            if (!fd.valid()) {
                return;
            }
            if (opts.socket_send_buffer != 0) {
                const int size = static_cast<int>(opts.socket_send_buffer);
                ::setsockopt(fd.get(), SOL_SOCKET, SO_SNDBUF, &size, sizeof(size));
            }
            auto s = std::make_unique<session>();
            s->fd = std::move(fd);
            s->id = next_session_id++;
            s->last_activity_ns = telemetry::now_ns();
            c_accepted.fetch_add(1, std::memory_order_relaxed);
            telemetry::counter_add(metrics().sessions_accepted);
            enqueue(*s, encode(hello_frame{}));
            sessions.push_back(std::move(s));
        }
    }

    // ----- sending ---------------------------------------------------------

    /// Queue one frame; actual writes happen on POLLOUT so a kill can
    /// never fire while callers still hold references into the session.
    void enqueue(session& s, const store::record& r) {
        std::vector<std::uint8_t> bytes = wire_bytes(r);
        s.queued_bytes += bytes.size();
        telemetry::counter_add(metrics().frames_out);
        telemetry::counter_add(metrics().bytes_out, bytes.size());
        telemetry::histogram_record(metrics().send_queue_bytes, s.queued_bytes);
        s.send_queue.push_back(std::move(bytes));
    }

    void write_session(session& s) {
        while (!s.send_queue.empty()) {
            const std::vector<std::uint8_t>& front = s.send_queue.front();
            const long n = send_some(s.fd.get(), front.data() + s.send_head,
                                     front.size() - s.send_head);
            if (n < 0) {
                kill_session(s);
                return;
            }
            if (n == 0) {
                return; // kernel buffer full; POLLOUT will fire again
            }
            s.send_head += static_cast<std::size_t>(n);
            s.queued_bytes -= static_cast<std::size_t>(n);
            if (s.send_head == front.size()) {
                s.send_queue.pop_front();
                s.send_head = 0;
            }
        }
        if (s.close_after_flush) {
            finish_close(s);
        }
    }

    // ----- receiving -------------------------------------------------------

    void read_session(session& s) {
        std::uint8_t buf[65536];
        for (;;) {
            const long n = recv_some(s.fd.get(), buf, sizeof buf);
            if (n < 0) {
                // Disconnect: cooperative-cancel everything the session
                // owned -- a vanished client must not keep burning workers.
                kill_session(s);
                return;
            }
            if (n == 0) {
                return; // drained
            }
            s.last_activity_ns = telemetry::now_ns();
            telemetry::counter_add(metrics().bytes_in,
                                   static_cast<std::uint64_t>(n));
            s.decoder.feed(std::span<const std::uint8_t>(buf, static_cast<std::size_t>(n)));
            try {
                while (auto record = s.decoder.next()) {
                    telemetry::counter_add(metrics().frames_in);
                    handle_frame(s, *record);
                    if (s.dead || s.input_dead) {
                        return;
                    }
                }
            } catch (const serialization_error& e) {
                // Framing damage: the byte stream cannot resync, so name
                // the offending offset and close (after flushing the
                // verdict).  CRC-valid-but-malformed payloads never land
                // here -- handle_frame answers those per request.
                cancel_requests(s);
                enqueue(s,
                        encode(error_frame{0, error_code::bad_frame, e.what(), e.byte_offset()}));
                s.input_dead = true;
                s.close_after_flush = true;
                return;
            }
        }
    }

    void handle_frame(session& s, const store::record& r) {
        switch (r.type) {
        case store::record_type::svc_submit:
            handle_submit(s, r);
            return;
        case store::record_type::svc_cancel:
            handle_cancel(s, r);
            return;
        default:
            send_error(s, 0, error_code::bad_request,
                       "unexpected frame type " + std::to_string(static_cast<unsigned>(r.type)) +
                           " (clients send submit/cancel only)");
            return;
        }
    }

    void send_error(session& s, std::uint64_t request, error_code code, std::string message) {
        enqueue(s, encode(error_frame{request, code, std::move(message), std::nullopt}));
    }

    void reject(session& s, std::uint64_t request, error_code code,
                std::string message) {
        c_rejected.fetch_add(1, std::memory_order_relaxed);
        telemetry::counter_add(metrics().jobs_rejected);
        send_error(s, request, code, std::move(message));
    }

    void handle_submit(session& s, const store::record& r) {
        submit_frame f;
        try {
            f = decode_submit(r);
        } catch (const std::exception& e) {
            // CRC-valid but semantically broken: a request-level error,
            // the session survives.  The request id may itself be the
            // broken part, so this one is session-scoped.
            reject(s, 0, error_code::bad_request, e.what());
            return;
        }
        if (f.request == 0) {
            reject(s, 0, error_code::bad_request, "request id must be nonzero");
            return;
        }
        const auto duplicate = [&](std::uint64_t id) {
            for (const auto& p : s.pending) {
                if (p.id == id) {
                    return true;
                }
            }
            for (const auto& a : s.active) {
                if (a.id == id) {
                    return true;
                }
            }
            return false;
        };
        if (duplicate(f.request)) {
            reject(s, f.request, error_code::bad_request,
                   "duplicate request id " + std::to_string(f.request));
            return;
        }
        if (s.pending.size() + s.active.size() >= opts.session_quota) {
            reject(s, f.request, error_code::overloaded,
                   "session quota exceeded (" + std::to_string(opts.session_quota) +
                       " requests in flight)");
            return;
        }
        if (total_pending >= opts.admission_capacity) {
            reject(s, f.request, error_code::overloaded,
                   "admission queue full (" + std::to_string(opts.admission_capacity) +
                       " requests waiting)");
            return;
        }
        telemetry::histogram_record(metrics().admission_depth, total_pending);
        pending_request p;
        p.id = f.request;
        p.manifest = std::move(f.manifest);
        p.submitted_ns = telemetry::now_ns();
        s.pending.push_back(std::move(p));
        ++total_pending;
    }

    void handle_cancel(session& s, const store::record& r) {
        cancel_frame f;
        try {
            f = decode_cancel(r);
        } catch (const std::exception& e) {
            reject(s, 0, error_code::bad_request, e.what());
            return;
        }
        for (auto it = s.pending.begin(); it != s.pending.end(); ++it) {
            if (it->id == f.request) {
                s.pending.erase(it);
                --total_pending;
                c_cancelled.fetch_add(1, std::memory_order_relaxed);
                telemetry::counter_add(metrics().jobs_cancelled);
                send_error(s, f.request, error_code::cancelled,
                           "request cancelled before dispatch");
                return;
            }
        }
        for (auto& a : s.active) {
            if (a.id == f.request) {
                // Cooperative: in-flight groups finish and are discarded;
                // the pump reports the request `cancelled` once the stream
                // goes terminal.
                a.stream->cancel();
                return;
            }
        }
        // Unknown id: almost always a cancel racing the request's own done
        // frame -- benign, answering would only confuse the client.
    }

    // ----- admission + dispatch --------------------------------------------

    void dispatch() {
        while (active_jobs < opts.max_active_jobs && total_pending > 0) {
            session* chosen = nullptr;
            const std::size_t n = sessions.size();
            for (std::size_t k = 0; k < n; ++k) {
                session& s = *sessions[(rr_cursor + k) % n];
                if (!s.dead && !s.close_after_flush && !s.pending.empty()) {
                    chosen = &s;
                    rr_cursor = (rr_cursor + k + 1) % n;
                    break;
                }
            }
            if (chosen == nullptr) {
                return;
            }
            pending_request req = std::move(chosen->pending.front());
            chosen->pending.pop_front();
            --total_pending;
            admit(*chosen, std::move(req));
        }
    }

    void admit(session& s, pending_request req) {
        active_request a;
        a.id = req.id;
        a.total = req.manifest.total_units();
        a.submitted_ns = req.submitted_ns;
        try {
            a.stream = std::make_unique<shard::unit_stream>(
                req.manifest, 0, a.total, queue, [this] { wake(); });
        } catch (const std::exception& e) {
            c_failed.fetch_add(1, std::memory_order_relaxed);
            telemetry::counter_add(metrics().jobs_failed);
            send_error(s, req.id, error_code::internal, e.what());
            return;
        }
        ++active_jobs;
        c_admitted.fetch_add(1, std::memory_order_relaxed);
        telemetry::counter_add(metrics().jobs_admitted);
        telemetry::histogram_record(metrics().admission_wait,
                                    telemetry::now_ns() - req.submitted_ns);
        enqueue(s, encode(progress_frame{req.id, 0, a.total}));
        s.active.push_back(std::move(a));
    }

    // ----- result streaming ------------------------------------------------

    void pump_all() {
        for (const auto& sp : sessions) {
            session& s = *sp;
            if (s.dead || s.close_after_flush) {
                continue;
            }
            for (std::size_t i = 0; i < s.active.size();) {
                if (pump_request(s, s.active[i])) {
                    s.active.erase(s.active.begin() + static_cast<std::ptrdiff_t>(i));
                } else {
                    ++i;
                }
            }
        }
    }

    /// Stream completed in-order units into the send queue while there is
    /// headroom.  Returns true once the request finalized (done or error
    /// frame queued).
    bool pump_request(session& s, active_request& a) {
        for (;;) {
            if (s.queued_bytes >= opts.send_queue_limit) {
                return false; // backpressure: the job keeps computing
            }
            std::optional<shard::unit_record> item = a.stream->try_next();
            if (!item) {
                if (!a.stream->finished()) {
                    return false; // next in-order unit still computing
                }
                // Terminal was observed after the nullopt; one more pull
                // closes the publish/flip race before declaring the
                // stream dry.
                item = a.stream->try_next();
                if (!item) {
                    finalize(s, a);
                    return true;
                }
            }
            enqueue(s, encode(result_frame{a.id, item->unit, std::move(item->record)}));
            ++a.sent;
            if (opts.progress_every != 0 && a.sent % opts.progress_every == 0 &&
                a.sent < a.total) {
                enqueue(s, encode(progress_frame{a.id, a.sent, a.total}));
            }
        }
    }

    void finalize(session& s, active_request& a) {
        --active_jobs;
        const std::uint64_t now = telemetry::now_ns();
        const std::exception_ptr error = a.stream->error();
        if (a.sent == a.total && error == nullptr) {
            enqueue(s, encode(done_frame{a.id, a.sent}));
            c_completed.fetch_add(1, std::memory_order_relaxed);
            telemetry::counter_add(metrics().jobs_completed);
            telemetry::histogram_record(metrics().request_latency, now - a.submitted_ns);
            telemetry::emit_span("svc.request", a.submitted_ns, now - a.submitted_ns,
                                 "units", static_cast<double>(a.total));
        } else if (error != nullptr) {
            c_failed.fetch_add(1, std::memory_order_relaxed);
            telemetry::counter_add(metrics().jobs_failed);
            std::string message = "worker failed";
            try {
                std::rethrow_exception(error);
            } catch (const std::exception& e) {
                message = e.what();
            } catch (...) {
            }
            send_error(s, a.id, error_code::internal, std::move(message));
        } else {
            c_cancelled.fetch_add(1, std::memory_order_relaxed);
            telemetry::counter_add(metrics().jobs_cancelled);
            send_error(s, a.id, error_code::cancelled,
                       "request cancelled after " + std::to_string(a.sent) + " of " +
                           std::to_string(a.total) + " units");
        }
        a.stream.reset(); // finished -> the destructor cannot block
    }

    // ----- overload + lifecycle policing -----------------------------------

    void check_stalls_and_idle() {
        const std::uint64_t now = telemetry::now_ns();
        for (const auto& sp : sessions) {
            session& s = *sp;
            if (s.dead || s.close_after_flush) {
                continue;
            }
            if (opts.stall_timeout_ms != 0 &&
                s.queued_bytes >= opts.send_queue_limit) {
                // The queue can only sit at the limit while the reader
                // drains nothing: the pump stops adding at the bound, so
                // any drain progress drops below it and resets the clock.
                if (s.stall_since_ns == 0) {
                    s.stall_since_ns = now;
                } else if (now - s.stall_since_ns >= opts.stall_timeout_ms * 1000000) {
                    shed_session(s);
                    continue;
                }
            } else {
                s.stall_since_ns = 0;
            }
            if (opts.idle_timeout_ms != 0 && s.pending.empty() && s.active.empty() &&
                s.queued_bytes == 0 &&
                now - s.last_activity_ns >= opts.idle_timeout_ms * 1000000) {
                send_error(s, 0, error_code::idle_timeout,
                           "session idle for " + std::to_string(opts.idle_timeout_ms) + " ms");
                s.input_dead = true;
                s.close_after_flush = true;
            }
        }
    }

    void shed_session(session& s) {
        cancel_requests(s);
        // Drop the queued backlog -- but never a partially-sent frame:
        // truncating mid-frame would turn the typed verdict below into CRC
        // garbage on the client's decoder.
        if (s.send_head > 0 && !s.send_queue.empty()) {
            std::vector<std::uint8_t> front = std::move(s.send_queue.front());
            s.queued_bytes = front.size() - s.send_head;
            s.send_queue.clear();
            s.send_queue.push_back(std::move(front));
        } else {
            s.send_queue.clear();
            s.send_head = 0;
            s.queued_bytes = 0;
        }
        s.stall_since_ns = 0;
        send_error(s, 0, error_code::slow_reader,
                   "session shed: send queue stalled at " +
                       std::to_string(opts.send_queue_limit) + " bytes for " +
                       std::to_string(opts.stall_timeout_ms) + " ms");
        s.input_dead = true;
        s.close_after_flush = true;
        c_shed.fetch_add(1, std::memory_order_relaxed);
        telemetry::counter_add(metrics().sessions_shed);
    }

    /// Cancel every request the session owns; active streams retire into
    /// `draining` so the loop never blocks on their teardown.
    void cancel_requests(session& s) {
        total_pending -= s.pending.size();
        const std::uint64_t dropped = s.pending.size() + s.active.size();
        s.pending.clear();
        for (auto& a : s.active) {
            a.stream->cancel();
            draining.push_back(std::move(a.stream));
            --active_jobs;
        }
        s.active.clear();
        if (dropped != 0) {
            c_cancelled.fetch_add(dropped, std::memory_order_relaxed);
            telemetry::counter_add(metrics().jobs_cancelled, dropped);
        }
    }

    /// Hard removal: peer vanished or the socket errored.
    void kill_session(session& s) {
        if (s.dead) {
            return;
        }
        cancel_requests(s);
        s.dead = true;
        c_closed.fetch_add(1, std::memory_order_relaxed);
        telemetry::counter_add(metrics().sessions_closed);
    }

    /// Orderly removal after the goodbye frame flushed.
    void finish_close(session& s) {
        if (s.dead) {
            return;
        }
        s.dead = true;
        c_closed.fetch_add(1, std::memory_order_relaxed);
        telemetry::counter_add(metrics().sessions_closed);
    }

    void shutdown_all() {
        for (const auto& sp : sessions) {
            session& s = *sp;
            if (s.dead) {
                continue;
            }
            cancel_requests(s);
            send_error(s, 0, error_code::shutdown, "server stopping");
            // Best effort: one synchronous flush attempt; whatever the
            // kernel will not take right now is dropped with the socket.
            write_session(s);
        }
        sessions.clear();
        draining.clear(); // destructors cancel + drain their jobs
    }
};

service_server::service_server(server_options options)
    : impl_(std::make_unique<impl>(std::move(options))) {}

service_server::~service_server() {
    stop();
}

void service_server::start() {
    impl_->start();
}

void service_server::stop() {
    impl_->stop();
}

bool service_server::running() const noexcept {
    return impl_->running.load(std::memory_order_acquire);
}

std::uint16_t service_server::tcp_port() const noexcept {
    return impl_->bound_tcp_port;
}

const server_options& service_server::options() const noexcept {
    return impl_->opts;
}

server_counters service_server::counters() const noexcept {
    const impl& i = *impl_;
    server_counters c;
    c.sessions_accepted = i.c_accepted.load(std::memory_order_relaxed);
    c.sessions_closed = i.c_closed.load(std::memory_order_relaxed);
    c.sessions_shed = i.c_shed.load(std::memory_order_relaxed);
    c.jobs_admitted = i.c_admitted.load(std::memory_order_relaxed);
    c.jobs_completed = i.c_completed.load(std::memory_order_relaxed);
    c.jobs_cancelled = i.c_cancelled.load(std::memory_order_relaxed);
    c.jobs_rejected = i.c_rejected.load(std::memory_order_relaxed);
    c.jobs_failed = i.c_failed.load(std::memory_order_relaxed);
    return c;
}

// --- daemon front end -------------------------------------------------------

namespace {

std::atomic<bool> g_stop_signal{false};

void on_stop_signal(int) {
    g_stop_signal.store(true, std::memory_order_relaxed);
}

} // namespace

int server_main(int argc, char** argv) {
    server_options o;
    o.listen_path = "/tmp/bistna_serverd.sock";
    std::uint16_t tcp_port = 0;
    flag_table flags("bistna_serverd");
    flags.add("listen", o.listen_path, "unix socket path, or tcp:PORT for loopback TCP")
        .add("tcp", tcp_port, "also listen on 127.0.0.1:PORT (0 picks a free port)")
        .add("threads", o.worker_threads, "pool worker threads; 0 = hardware threads")
        .add("active-jobs", o.max_active_jobs, "jobs dispatched onto the pool at once")
        .add("admission", o.admission_capacity, "admitted jobs waiting, across sessions")
        .add("quota", o.session_quota, "in-flight jobs per session")
        .add("send-queue-bytes", o.send_queue_limit, "bytes buffered per session")
        .add("stall-timeout-ms", o.stall_timeout_ms, "shed a stalled full session; 0 never")
        .add("idle-timeout-ms", o.idle_timeout_ms, "close idle sessions; 0 never")
        .add("progress-every", o.progress_every, "progress every N results; 0 at admission");
    telemetry::front_end_telemetry telemetry(flags);
    if (const auto exit_code = flags.parse_main(argc, argv)) {
        return *exit_code;
    }
    try {
        // --listen also takes the client endpoint grammar: "tcp:PORT"
        // moves the listener to loopback TCP.
        const endpoint ep = parse_endpoint(o.listen_path);
        if (ep.tcp) {
            o.listen_path.clear();
            o.tcp_port = ep.port;
        }
        if (flags.given("tcp")) {
            o.tcp_port = tcp_port;
        }
        telemetry.start("bistna_serverd");

        service_server server(std::move(o));
        server.start();
        if (!server.options().listen_path.empty()) {
            std::cout << "bistna_serverd listening on '" << server.options().listen_path
                      << "'\n";
        }
        if (server.options().tcp_port >= 0) {
            std::cout << "bistna_serverd listening on tcp:" << server.tcp_port() << "\n";
        }
        std::cout.flush();

        std::signal(SIGINT, on_stop_signal);
        std::signal(SIGTERM, on_stop_signal);
        while (!g_stop_signal.load(std::memory_order_relaxed)) {
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
        }
        std::cout << "bistna_serverd: stopping\n";
        server.stop();

        const server_counters c = server.counters();
        std::cout << "sessions: " << c.sessions_accepted << " accepted, "
                  << c.sessions_closed << " closed, " << c.sessions_shed
                  << " shed\njobs: " << c.jobs_admitted << " admitted, "
                  << c.jobs_completed << " completed, " << c.jobs_cancelled
                  << " cancelled, " << c.jobs_rejected << " rejected, "
                  << c.jobs_failed << " failed\n";

        telemetry.finish(std::cout);
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "bistna_serverd: " << e.what() << "\n";
        return 2;
    }
}

} // namespace bistna::svc
