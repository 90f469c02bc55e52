#include "shard/worker.hpp"

#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "shard/event_log.hpp"
#include "shard/unit_stream.hpp"
#include "store/lot_store.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/snapshot_record.hpp"
#include "telemetry/span.hpp"

namespace bistna::shard {

namespace {

/// Die like a worker killed mid-write: flush the valid prefix, append a
/// deliberately torn partial frame, and SIGKILL ourselves -- no unwinding,
/// no destructor flush, exactly the crash the store's tail recovery and
/// the supervisor's retry path exist for.
[[noreturn]] void die_mid_frame(store::lot_store& out) {
    out.flush();
    {
        std::ofstream torn(out.path(), std::ios::binary | std::ios::app);
        const char partial[] = "\x01\x00\x34\x12torn";
        torn.write(partial, sizeof(partial) - 1);
        torn.flush();
    }
    std::raise(SIGKILL);
    std::abort(); // unreachable; raise(SIGKILL) does not return
}

} // namespace

worker_shard_report run_worker_shard(const lot_manifest& manifest,
                                     const std::string& out_path,
                                     const worker_shard_options& options) {
    const std::uint64_t total = manifest.total_units();
    BISTNA_EXPECTS(options.first_unit <= total &&
                       options.units <= total - options.first_unit,
                   "shard range exceeds the manifest's unit count");

    if (options.stall_ms > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(options.stall_ms));
    }

    store::lot_store out =
        store::lot_store::create(out_path, {options.flush_interval});
    if (options.units == 0) {
        // A valid empty store: header only.  Happens legitimately when the
        // lot has fewer units than shards.
        out.flush();
        return worker_shard_report{0, out.bytes()};
    }

    const auto maybe_die = [&] {
        if (options.kill_after_records > 0 &&
            out.records_appended() >= options.kill_after_records) {
            die_mid_frame(out);
        }
    };

    telemetry::trace_span stream_span("shard.stream");
    stream_span.arg("first", static_cast<double>(options.first_unit));
    stream_span.arg("units", static_cast<double>(options.units));

    // The same manifest -> in-order-record pipeline the screening service
    // streams over its sockets (shard/unit_stream.hpp): one submission
    // seam means the merge contract and the service's bit-identity
    // guarantee are literally the same code.
    unit_stream stream(manifest, options.first_unit, options.units);
    while (auto item = stream.next()) {
        out.append(item->record);
        maybe_die();
    }
    if (auto error = stream.error()) {
        std::rethrow_exception(error);
    }

    out.flush();
    BISTNA_EXPECTS(out.records_appended() == options.units,
                   "shard worker lost records (job cancelled or failed)");
    return worker_shard_report{out.records_appended(), out.bytes()};
}

int worker_main(int argc, char** argv) {
    std::string manifest_path;
    std::string out_path;
    std::size_t shard_id = 0;
    std::uint64_t attempt = 1;
    std::string telemetry_path;
    worker_shard_options options;
    std::uint64_t kill_attempt = 1;
    std::uint64_t stall_attempt = 1;
    flag_table flags("shard_worker");
    flags.add("manifest", manifest_path, "lot manifest JSON", flag_use::required)
        .add("out", out_path, "shard store to create", flag_use::required)
        .add("first", options.first_unit, "first global unit of the shard")
        .add("count", options.units, "units in the shard (default: the rest of the lot)")
        .add("flush-interval", options.flush_interval, "records between forced flushes")
        .add("shard", shard_id, "shard index, for the event log")
        .add("attempt", attempt, "1-based attempt number, for the event log")
        .add("telemetry", telemetry_path, "write a telemetry snapshot store here")
        .add("kill-after-records", options.kill_after_records, "test fault: die after N")
        .add("kill-attempt", kill_attempt, "the attempt --kill-after-records fires on")
        .add("stall-ms", options.stall_ms, "test fault: sleep this long before any work")
        .add("stall-attempt", stall_attempt, "the attempt --stall-ms fires on")
        // Dispatch sentinels: a test binary or benchmark that doubles as
        // the worker leaves its sentinel in argv when it hands over.
        .ignore("bistna-shard-worker", "gtest binary's worker sentinel (tests/main.cpp)")
        .ignore("perfbench-shard-worker", "perfbench's worker sentinel (perfbench/)");
    if (const auto exit_code = flags.parse_main(argc, argv)) {
        return *exit_code;
    }
    try {
        const lot_manifest manifest = lot_manifest::load(manifest_path);
        const std::uint64_t total = manifest.total_units();
        if (!flags.given("count")) {
            options.units = options.first_unit <= total ? total - options.first_unit : 0;
        }

        // A telemetry sidecar path turns this worker into a metered process:
        // attach for the run, then serialize the snapshot next to the shard
        // store so the coordinator can merge fleet-wide metrics and lanes.
        std::optional<telemetry::metric_registry> registry;
        if (!telemetry_path.empty()) {
            registry.emplace();
            registry->set_process_name("shard-" + std::to_string(shard_id));
            registry->attach();
            telemetry::set_thread_name("shard-main");
        }

        // Injected faults fire only on the attempt they target, so a
        // retried shard succeeds -- the shape every supervisor test needs.
        if (attempt != kill_attempt) {
            options.kill_after_records = 0;
        }
        if (attempt != stall_attempt) {
            options.stall_ms = 0;
        }

        std::printf("%s\n", event_line("start", shard_id, attempt)
                                .field("first", options.first_unit)
                                .field("count", options.units)
                                .str()
                                .c_str());
        std::fflush(stdout);

        const worker_shard_report report =
            run_worker_shard(manifest, out_path, options);

        if (registry) {
            registry->detach();
            telemetry::write_snapshot_store(telemetry_path,
                                            registry->snapshot());
        }
        std::printf("%s\n", event_line("done", shard_id, attempt)
                                .field("records", report.records)
                                .field("bytes", report.bytes)
                                .field("out", out_path)
                                .str()
                                .c_str());
        return 0;
    } catch (const std::exception& error) {
        std::fprintf(stderr, "%s\n",
                     event_line("error", shard_id, attempt)
                         .field("what", std::string(error.what()))
                         .str()
                         .c_str());
        return 1;
    }
}

} // namespace bistna::shard
