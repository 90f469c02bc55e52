// Multi-process lot runner: split a lot manifest into shards, fan them
// across N worker processes, survive dead and straggler workers by retry,
// and merge the shard stores into one lot store that is bit-identical to
// a single-process run -- at any shard count, worker count and completion
// order.
//
//   ./shard_coordinator --manifest=lot.json --out=lot.store [flags]
//
// `--help` lists every flag.  --trace writes one merged Chrome trace
// (chrome://tracing / ui.perfetto.dev) with the coordinator and every
// worker as its own process lane; --metrics prints the fleet-wide merged
// counters and histograms.  Either flag turns on worker telemetry sidecars.
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>

#include "common/cli.hpp"
#include "shard/coordinator.hpp"
#include "telemetry/front_end.hpp"

int main(int argc, char** argv) {
    using namespace bistna;

    std::string manifest_path;
    std::string out_path;
    shard::supervisor_options options;
    std::string worker =
        (std::filesystem::path(argc > 0 ? argv[0] : "").parent_path() / "shard_worker")
            .string();
    flag_table flags("shard_coordinator");
    flags.add("manifest", manifest_path, "lot manifest JSON", flag_use::required)
        .add("out", out_path, "merged lot store to write", flag_use::required)
        .add("shards", options.shards, "shards to split the lot into")
        .add("workers", options.max_processes, "worker processes at once; 0 = all shards")
        .add("shard-dir", options.shard_dir, "shard stores and logs (default OUT.shards)")
        .add("worker", worker, "worker binary")
        .add("timeout-s", options.straggler_timeout_seconds, "straggler kill + retry; 0 off")
        .add("retries", options.max_attempts, "attempts allowed per shard")
        .add("flush-interval", options.flush_interval, "worker records per store flush");
    telemetry::front_end_telemetry telemetry(flags);
    if (const auto exit_code = flags.parse_main(argc, argv)) {
        return *exit_code;
    }

    try {
        const shard::lot_manifest manifest = shard::lot_manifest::load(manifest_path);
        telemetry.start("coordinator", "coordinator-main");

        if (options.shard_dir.empty()) {
            options.shard_dir = out_path + ".shards";
        }
        options.worker_command = {worker};
        options.telemetry_sidecars = telemetry.enabled();
        options.on_event = [](const std::string& line) {
            std::printf("  %s\n", line.c_str());
        };

        std::printf("=== shard coordinator: %s lot, %llu units, %zu shards ===\n",
                    shard::workload_name(manifest.workload),
                    static_cast<unsigned long long>(manifest.total_units()),
                    options.shards);

        const shard::coordinator_report report =
            shard::run_lot(manifest, out_path, options);

        std::printf("merged %llu records (%llu seen, %llu duplicates dropped, "
                    "%zu torn files) from %zu attempts (%zu retries) -> %s "
                    "(%llu bytes)\n",
                    static_cast<unsigned long long>(report.merge.records_merged),
                    static_cast<unsigned long long>(report.merge.records_seen),
                    static_cast<unsigned long long>(report.merge.duplicates_dropped),
                    report.merge.torn_files, report.shards.attempts.size(),
                    report.shards.retries, out_path.c_str(),
                    static_cast<unsigned long long>(report.merge.bytes_written));
        telemetry.finish(std::cout, report.worker_snapshots);
        return 0;
    } catch (const std::exception& error) {
        std::fprintf(stderr, "shard coordinator: %s\n", error.what());
        return 1;
    }
}
