#include "shard/supervisor.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <thread>
#include <utility>

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/error.hpp"
#include "shard/event_log.hpp"
#include "telemetry/metrics.hpp"

extern char** environ;

namespace bistna::shard {

namespace {

using clock_type = std::chrono::steady_clock;

struct running_worker {
    pid_t pid = -1;
    std::size_t shard = 0;
    std::size_t attempt = 1;
    std::string store_path;
    std::string log_path;
    std::string telemetry_path;
    clock_type::time_point started;
    std::uint64_t started_ns = 0; ///< telemetry clock, for the attempt span
};

std::string attempt_file(const std::string& dir, std::size_t shard,
                         std::size_t attempt, const char* suffix) {
    return dir + "/shard-" + std::to_string(shard) + "-attempt-" +
           std::to_string(attempt) + suffix;
}

/// posix_spawn the worker with stdout+stderr redirected to its log file.
pid_t spawn_worker(const std::vector<std::string>& argv_strings,
                   const std::string& log_path) {
    std::vector<char*> argv;
    argv.reserve(argv_strings.size() + 1);
    for (const auto& arg : argv_strings) {
        argv.push_back(const_cast<char*>(arg.c_str()));
    }
    argv.push_back(nullptr);

    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log_path.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);

    pid_t pid = -1;
    const int rc = posix_spawn(&pid, argv_strings.front().c_str(), &actions,
                               nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
        throw configuration_error("shard supervisor: cannot spawn worker '" +
                                  argv_strings.front() +
                                  "': " + std::strerror(rc));
    }
    return pid;
}

/// Last bytes of a worker's log, newline-flattened, for inlining into a
/// shard-exhausted diagnostic.  Unreadable logs degrade to an empty tail.
std::string log_tail(const std::string& path, std::size_t max_bytes = 480) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        return {};
    }
    in.seekg(0, std::ios::end);
    const auto size = static_cast<std::uint64_t>(in.tellg());
    const std::uint64_t want = std::min<std::uint64_t>(size, max_bytes);
    in.seekg(static_cast<std::streamoff>(size - want));
    std::string tail(static_cast<std::size_t>(want), '\0');
    in.read(tail.data(), static_cast<std::streamsize>(want));
    if (!in) {
        return {};
    }
    std::replace_if(
        tail.begin(), tail.end(),
        [](char c) { return c == '\n' || c == '\r'; }, ' ');
    return tail;
}

std::string describe_status(int status) {
    if (WIFEXITED(status)) {
        return "exit " + std::to_string(WEXITSTATUS(status));
    }
    if (WIFSIGNALED(status)) {
        return std::string("signal ") + std::to_string(WTERMSIG(status));
    }
    return "status " + std::to_string(status);
}

} // namespace

supervisor_result run_shards(const lot_manifest& manifest,
                             const supervisor_options& options) {
    BISTNA_EXPECTS(!options.worker_command.empty(),
                   "shard supervisor needs a worker command");
    BISTNA_EXPECTS(options.shards > 0, "shard supervisor needs at least one shard");
    BISTNA_EXPECTS(options.max_attempts > 0,
                   "shard supervisor needs at least one attempt per shard");
    BISTNA_EXPECTS(!options.shard_dir.empty(),
                   "shard supervisor needs a shard directory");

    std::filesystem::create_directories(options.shard_dir);

    supervisor_result result;
    result.plan = plan_shards(manifest.total_units(), options.shards);
    result.manifest_path = options.shard_dir + "/manifest.json";
    manifest.save(result.manifest_path);

    const auto emit = [&](const std::string& line) {
        if (options.on_event) {
            options.on_event(line);
        }
    };

    const std::size_t max_processes =
        options.max_processes == 0 ? options.shards : options.max_processes;

    std::deque<std::pair<std::size_t, std::size_t>> pending; // {shard, attempt}
    for (const auto& range : result.plan) {
        pending.emplace_back(range.index, 1);
    }
    std::vector<running_worker> running;
    std::vector<bool> shard_done(result.plan.size(), false);

    const auto launch = [&](std::size_t shard, std::size_t attempt) {
        const shard_range& range = result.plan[shard];
        running_worker worker;
        worker.shard = shard;
        worker.attempt = attempt;
        worker.store_path =
            attempt_file(options.shard_dir, shard, attempt, ".store");
        worker.log_path = attempt_file(options.shard_dir, shard, attempt, ".log");

        std::vector<std::string> argv = options.worker_command;
        argv.push_back("--manifest=" + result.manifest_path);
        argv.push_back("--out=" + worker.store_path);
        argv.push_back("--first=" + std::to_string(range.first));
        argv.push_back("--count=" + std::to_string(range.units));
        argv.push_back("--flush-interval=" + std::to_string(options.flush_interval));
        argv.push_back("--attempt=" + std::to_string(attempt));
        // The shard identity only labels the worker's event-log lines.
        argv.push_back("--shard=" + std::to_string(shard));
        if (options.telemetry_sidecars) {
            worker.telemetry_path =
                attempt_file(options.shard_dir, shard, attempt, ".telemetry");
            argv.push_back("--telemetry=" + worker.telemetry_path);
        }
        for (const auto& extra : options.extra_worker_args) {
            argv.push_back(extra);
        }

        worker.started = clock_type::now();
        worker.started_ns = telemetry::now_ns();
        worker.pid = spawn_worker(argv, worker.log_path);
        emit(event_line("spawned", shard, attempt)
                 .field("pid", static_cast<std::uint64_t>(worker.pid))
                 .field("first", range.first)
                 .field("count", range.units)
                 .str());
        result.shard_files.push_back(worker.store_path);
        running.push_back(std::move(worker));
    };

    const auto finish = [&](const running_worker& worker, int status,
                            bool timed_out) {
        shard_attempt attempt;
        attempt.shard = worker.shard;
        attempt.attempt = worker.attempt;
        attempt.store_path = worker.store_path;
        attempt.log_path = worker.log_path;
        attempt.telemetry_path = worker.telemetry_path;
        attempt.wait_status = status;
        attempt.timed_out = timed_out;
        attempt.succeeded =
            !timed_out && WIFEXITED(status) && WEXITSTATUS(status) == 0;
        result.attempts.push_back(attempt);

        // The attempt span lands in the coordinator's own trace lane; no-op
        // when the coordinator process isn't metered.
        telemetry::emit_span("shard.attempt", worker.started_ns,
                             telemetry::now_ns() - worker.started_ns, "shard",
                             static_cast<double>(worker.shard), "attempt",
                             static_cast<double>(worker.attempt));

        if (attempt.succeeded) {
            shard_done[worker.shard] = true;
            emit(event_line("completed", worker.shard, worker.attempt).str());
            return;
        }
        emit(event_line(timed_out ? "straggler_killed" : "worker_failed",
                        worker.shard, worker.attempt)
                 .field("status", describe_status(status))
                 .str());
        if (worker.attempt >= options.max_attempts) {
            const std::string tail = log_tail(worker.log_path);
            throw configuration_error(
                "shard supervisor: shard " + std::to_string(worker.shard) +
                " failed after " + std::to_string(worker.attempt) +
                " attempts (last: " +
                (timed_out ? std::string("straggler timeout")
                           : describe_status(status)) +
                "; see " + worker.log_path +
                (tail.empty() ? std::string()
                              : "; log tail: " + tail) +
                ")");
        }
        ++result.retries;
        pending.emplace_back(worker.shard, worker.attempt + 1);
    };

    try {
    while (!pending.empty() || !running.empty()) {
        while (!pending.empty() && running.size() < max_processes) {
            const auto [shard, attempt] = pending.front();
            pending.pop_front();
            launch(shard, attempt);
        }

        bool progressed = false;
        for (std::size_t i = 0; i < running.size();) {
            running_worker& worker = running[i];
            int status = 0;
            const pid_t waited = waitpid(worker.pid, &status, WNOHANG);
            if (waited == worker.pid) {
                const running_worker finished_worker = std::move(worker);
                running.erase(running.begin() + static_cast<std::ptrdiff_t>(i));
                finish(finished_worker, status, /*timed_out=*/false);
                progressed = true;
                continue;
            }

            if (options.straggler_timeout_seconds > 0.0) {
                const double elapsed =
                    std::chrono::duration<double>(clock_type::now() -
                                                  worker.started)
                        .count();
                if (elapsed > options.straggler_timeout_seconds) {
                    kill(worker.pid, SIGKILL);
                    waitpid(worker.pid, &status, 0);
                    const running_worker killed_worker = std::move(worker);
                    running.erase(running.begin() +
                                  static_cast<std::ptrdiff_t>(i));
                    finish(killed_worker, status, /*timed_out=*/true);
                    progressed = true;
                    continue;
                }
            }
            ++i;
        }

        if (!progressed && !running.empty()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
    }
    } catch (...) {
        // A fatal shard (or spawn failure) must not leak the rest of the
        // fleet: kill and reap every worker still running, then rethrow.
        for (const auto& worker : running) {
            kill(worker.pid, SIGKILL);
            waitpid(worker.pid, nullptr, 0);
        }
        throw;
    }

    for (bool done : shard_done) {
        BISTNA_EXPECTS(done, "shard supervisor: drained with an unfinished shard");
    }
    return result;
}

} // namespace bistna::shard
