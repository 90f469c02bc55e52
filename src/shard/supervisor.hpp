// Shard supervisor: spawn one worker process per shard of a lot plan,
// babysit the fleet, and hand every surviving output file to the merger.
//
// Failure handling is the whole job:
//   * a worker that EXITS NONZERO or DIES ON A SIGNAL is retried (fresh
//     attempt number, fresh output file) up to max_attempts;
//   * a STRAGGLER -- still running past straggler_timeout_seconds -- is
//     SIGKILLed and retried the same way;
//   * every attempt's output file (including the torn partials of killed
//     attempts) is kept and reported, because the merger dedupes by
//     record id and verifies payload equality -- retry + dedupe is what
//     makes at-least-once process scheduling safe under the repo's
//     bit-identity contract.
// A shard that exhausts max_attempts fails the run with
// configuration_error: a lot with holes must not ship.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "shard/manifest.hpp"
#include "shard/plan.hpp"

namespace bistna::shard {

struct supervisor_options {
    /// argv prefix of the worker process, e.g. {"./shard_worker"} or
    /// {"/proc/self/exe", "--bistna-shard-worker"}.  The supervisor
    /// appends --manifest=/--out=/--first=/--count=/--flush-interval=/
    /// --attempt=/--shard= (and --telemetry= with sidecars) for each spawn.
    std::vector<std::string> worker_command;
    /// Extra flags appended verbatim to every spawn (tests inject worker
    /// faults through these).
    std::vector<std::string> extra_worker_args;

    std::size_t shards = 4;
    /// Worker processes running at once; 0 runs all shards concurrently.
    std::size_t max_processes = 0;
    /// Kill + retry a worker still running after this long; 0 disables
    /// straggler detection.
    double straggler_timeout_seconds = 0.0;
    /// Total tries per shard (first attempt included).
    std::size_t max_attempts = 3;
    /// Directory for the manifest, the per-attempt shard stores and the
    /// per-attempt worker logs.  Created if missing.
    std::string shard_dir;
    /// Worker-side store flush cadence (forwarded as --flush-interval=).
    std::size_t flush_interval = 32;
    /// Ask every worker to write a telemetry-snapshot sidecar store next to
    /// its shard store (forwarded as --telemetry=).  The coordinator reads
    /// the sidecars of successful attempts to merge fleet-wide metrics and
    /// build one cross-process trace.
    bool telemetry_sidecars = false;
    /// Optional progress observer: structured one-line-per-event logs
    /// (`ts_us=... shard=... attempt=... event=...`).
    std::function<void(const std::string&)> on_event;
};

/// One spawned worker process, as observed at its end.
struct shard_attempt {
    std::size_t shard = 0;
    std::size_t attempt = 1;      ///< 1-based
    std::string store_path;
    std::string log_path;
    std::string telemetry_path;   ///< empty unless telemetry_sidecars was set
    int wait_status = 0;          ///< raw waitpid status
    bool timed_out = false;       ///< supervisor killed it as a straggler
    bool succeeded = false;       ///< exited 0
};

struct supervisor_result {
    std::vector<shard_range> plan;
    std::vector<shard_attempt> attempts; ///< every attempt, completion order
    /// Every attempt's store path, successful or not -- the merger's input
    /// (torn partials included on purpose; dedupe handles them).
    std::vector<std::string> shard_files;
    std::string manifest_path;
    std::size_t retries = 0; ///< attempts beyond each shard's first
};

/// Split manifest.total_units() into options.shards ranges, write the
/// manifest into shard_dir, run the fleet to completion.  Throws
/// configuration_error when any shard exhausts max_attempts (or the
/// worker binary cannot be spawned at all).
supervisor_result run_shards(const lot_manifest& manifest,
                             const supervisor_options& options);

} // namespace bistna::shard
