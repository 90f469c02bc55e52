// Screening as a service: 4 concurrent client sessions multiplexed onto
// one bistna_serverd worker pool vs the same 4 lots run back-to-back
// through the offline unit_stream pipeline on an equally wide pool.
// Gates:
//
//   * concurrent service wall clock <= 1.15x the offline back-to-back
//     wall clock (the daemon multiplexes, it must not serialize or add
//     more than protocol overhead);
//   * every session's streamed records are BYTE-IDENTICAL to the offline
//     records for its lot.
//
// Writes the measurement to BENCH_service.json (or argv[1]) so the
// per-PR perf trajectory has a service-path series.
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <future>
#include <iostream>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench_util.hpp"
#include "shard/manifest.hpp"
#include "shard/unit_stream.hpp"
#include "store/format.hpp"
#include "svc/client.hpp"
#include "svc/server.hpp"

namespace {

using namespace bistna;

constexpr std::size_t kSessions = 4;
constexpr std::uint64_t kDicePerLot = 700;
constexpr std::size_t kPoolThreads = 4;

/// Lot-scale settings (the roofline bench's regime), one lot per session
/// with its own seed series.
shard::lot_manifest lot_for_session(std::size_t session) {
    shard::lot_manifest manifest;
    manifest.sigma = 0.02;
    manifest.periods = 48;
    manifest.settle_periods = 8;
    manifest.calibration_periods = 1024;
    manifest.dice = kDicePerLot;
    manifest.first_seed = 1 + 100000 * static_cast<std::uint64_t>(session);
    manifest.threads = kPoolThreads;
    manifest.batch_lanes = 8;
    return manifest;
}

std::vector<store::record> offline_records(const shard::lot_manifest& manifest) {
    shard::unit_stream stream(manifest, 0, manifest.total_units());
    std::vector<store::record> records;
    while (auto item = stream.next()) {
        records.push_back(std::move(item->record));
    }
    return records;
}

} // namespace

int main(int argc, char** argv) {
    bench::banner("screening service vs offline",
                  "4 concurrent sessions on one shared serverd pool vs the "
                  "same lots back-to-back offline, records checked "
                  "byte-identical");

    std::vector<shard::lot_manifest> lots;
    for (std::size_t i = 0; i < kSessions; ++i) {
        lots.push_back(lot_for_session(i));
    }

    // Offline reference: each lot on its own kPoolThreads-wide private
    // pool, strictly back-to-back.
    const auto offline_start = std::chrono::steady_clock::now();
    std::vector<std::vector<store::record>> offline;
    for (const auto& lot : lots) {
        offline.push_back(offline_records(lot));
    }
    const double offline_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      offline_start)
            .count();

    // Service: one daemon, one kPoolThreads-wide shared pool, all
    // sessions submitted concurrently.
    const std::string socket =
        "/tmp/bistna_bench_service_" + std::to_string(::getpid()) + ".sock";
    svc::server_options options;
    options.listen_path = socket;
    options.worker_threads = kPoolThreads;
    options.max_active_jobs = kSessions;
    options.admission_capacity = kSessions;
    options.session_quota = 1;
    svc::service_server server(std::move(options));
    server.start();

    const auto service_start = std::chrono::steady_clock::now();
    std::vector<std::future<std::vector<store::record>>> futures;
    for (const auto& lot : lots) {
        futures.push_back(std::async(std::launch::async, [&socket, lot] {
            svc::client c(socket);
            return c.run(lot);
        }));
    }
    std::vector<std::vector<store::record>> streamed;
    for (auto& f : futures) {
        streamed.push_back(f.get());
    }
    const double service_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      service_start)
            .count();
    server.stop();

    bool identical = true;
    for (std::size_t i = 0; i < kSessions; ++i) {
        if (streamed[i] != offline[i]) {
            identical = false;
            std::cerr << "FAILURE: session " << i
                      << " diverged from the offline records\n";
        }
    }
    const double ratio =
        offline_seconds > 0.0 ? service_seconds / offline_seconds : 0.0;

    std::cout << "\n" << kSessions << " sessions x " << kDicePerLot
              << " dice, " << kPoolThreads << " pool threads:\n"
              << "  offline back-to-back: " << offline_seconds << " s\n"
              << "  concurrent service:   " << service_seconds << " s\n"
              << "  service/offline: " << ratio << "x\n"
              << "  records byte-identical: " << (identical ? "YES" : "NO")
              << "\n";

    const double total_dice = static_cast<double>(kSessions * kDicePerLot);
    bench::write_perf_record(argc > 1 ? argv[1] : "BENCH_service.json", "service",
                             {{"sessions", kSessions}, {"dice_per_lot", kDicePerLot},
                              {"pool_threads", kPoolThreads},
                              {"offline_seconds", offline_seconds},
                              {"offline_dice_per_second", total_dice / offline_seconds},
                              {"service_seconds", service_seconds},
                              {"service_dice_per_second", total_dice / service_seconds},
                              {"service_over_offline", ratio},
                              {"byte_identical", identical}});

    bench::footnote("Both sides run the identical shard::unit_stream "
                    "pipeline; the daemon adds only framing, CRCs and a "
                    "loopback socket hop, so concurrent multiplexing onto "
                    "one pool should cost at most protocol overhead.");

    bool failed = false;
    if (!identical) {
        failed = true;
    }
    if (ratio > 1.15) {
        std::cerr << "FAILURE: expected <= 1.15x offline wall clock, got "
                  << ratio << "x\n";
        failed = true;
    }
    return failed ? 1 : 0;
}
