// End-to-end: the screening service against the offline store path.
//
// One in-process bistna_serverd, several concurrent svc::client sessions
// with mixed workloads (screening + dictionary), each writing its
// streamed records to a lot store file -- which must match the file the
// single-process offline worker writes for the same manifest BYTE FOR
// BYTE.  Plus the two ways a session ends early: a client that vanishes
// mid-job (disconnect-cancel frees the pool) and an induced overload
// (typed shed, the surviving sessions' bytes still identical).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <future>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "shard/manifest.hpp"
#include "shard/worker.hpp"
#include "store/lot_store.hpp"
#include "svc/client.hpp"
#include "svc/server.hpp"

namespace {

using namespace bistna;
using svc::client;
using svc::server_options;
using svc::service_server;

class temp_dir {
public:
    explicit temp_dir(const char* name)
        : path_(std::string("/tmp/") + name + "_" + std::to_string(::getpid())) {
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }
    ~temp_dir() { std::filesystem::remove_all(path_); }
    std::string file(const std::string& name) const { return path_ + "/" + name; }

private:
    std::string path_;
};

std::string read_bytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

shard::lot_manifest fast_screening(std::uint64_t dice, std::uint64_t first_seed) {
    shard::lot_manifest manifest;
    manifest.periods = 20;
    manifest.settle_periods = 4;
    manifest.distortion_periods = 40;
    manifest.calibration_periods = 256;
    manifest.dice = dice;
    manifest.first_seed = first_seed;
    manifest.threads = 1;
    manifest.batch_lanes = 4;
    return manifest;
}

shard::lot_manifest fast_dictionary() {
    auto manifest = fast_screening(0, 1);
    manifest.workload = shard::workload_kind::dictionary;
    manifest.grid_points = 2;
    return manifest;
}

/// The single-process offline reference: run the whole lot through the
/// shard worker and return the store file's raw bytes.
std::string offline_store_bytes(const temp_dir& dir, const shard::lot_manifest& manifest,
                                const std::string& name) {
    const std::string path = dir.file(name);
    shard::worker_shard_options options;
    options.first_unit = 0;
    options.units = manifest.total_units();
    run_worker_shard(manifest, path, options);
    return read_bytes(path);
}

/// Append `records` to a fresh store file and return its raw bytes.
std::string store_bytes(const temp_dir& dir, const std::vector<store::record>& records,
                        const std::string& name) {
    const std::string path = dir.file(name);
    auto out = store::lot_store::open_append(path);
    for (const auto& r : records) {
        out.append(r);
    }
    out.flush();
    return read_bytes(path);
}

/// One service session: submit, stream, append every record to a fresh
/// store file, return its raw bytes.
std::string service_store_bytes(const std::string& endpoint, const temp_dir& dir,
                                const shard::lot_manifest& manifest,
                                const std::string& name) {
    client c(endpoint);
    return store_bytes(dir, c.run(manifest), name);
}

TEST(ServiceEndToEnd, ConcurrentMixedSessionsMatchTheOfflineStoreByteForByte) {
    temp_dir dir("bistna_svc_e2e");
    const std::string socket = dir.file("serverd.sock");

    server_options options;
    options.listen_path = socket;
    options.worker_threads = 3;
    options.max_active_jobs = 4;
    service_server server(std::move(options));
    server.start();

    // Three concurrent sessions, mixed workloads, all on one shared pool.
    const std::vector<shard::lot_manifest> lots = {
        fast_screening(8, 100),
        fast_screening(5, 4242),
        fast_dictionary(),
    };
    std::vector<std::future<std::string>> streamed;
    for (std::size_t i = 0; i < lots.size(); ++i) {
        streamed.push_back(std::async(std::launch::async, [&, i] {
            return service_store_bytes(socket, dir, lots[i],
                                       "svc_" + std::to_string(i) + ".store");
        }));
    }
    for (std::size_t i = 0; i < lots.size(); ++i) {
        const std::string via_service = streamed[i].get();
        const std::string offline =
            offline_store_bytes(dir, lots[i], "off_" + std::to_string(i) + ".store");
        ASSERT_FALSE(via_service.empty());
        EXPECT_EQ(via_service, offline)
            << "lot " << i << ": service stream diverged from the offline store";
    }

    server.stop();
    const auto counters = server.counters();
    EXPECT_EQ(counters.jobs_completed, 3u);
    EXPECT_EQ(counters.jobs_failed, 0u);
    EXPECT_EQ(counters.sessions_shed, 0u);
}

TEST(ServiceEndToEnd, DisconnectAndOverloadLeaveSurvivorsBitIdentical) {
    temp_dir dir("bistna_svc_chaos");
    const std::string socket = dir.file("serverd.sock");

    server_options options;
    options.listen_path = socket;
    options.worker_threads = 2;
    options.max_active_jobs = 1;    // one job runs at a time
    options.admission_capacity = 2; // two may wait
    // Tiny socket and send-queue budgets with stall shedding off: a session
    // that stops reading backpressures its job, which then holds the active
    // slot for as long as the session lives -- at any machine speed.
    options.socket_send_buffer = 4096;
    options.send_queue_limit = 4096;
    options.stall_timeout_ms = 0;
    service_server server(std::move(options));
    server.start();

    // A job whose records far exceed those budgets hogs the active slot:
    // its client reads the admission frame and then nothing more (and
    // vanishes below, so this stays fast)...
    auto hog = std::make_unique<client>(socket);
    hog->submit(1, fast_screening(5000, 7000));
    ASSERT_TRUE(hog->next_event().has_value()); // admitted

    // ...a well-behaved session queues behind it, then a third.  Every
    // submit below is written only after the previous session's, and the
    // server reads sessions in connection order, so the admission queue
    // fills in exactly this order: the next submit is shed with the typed
    // overloaded error.
    client survivor(socket);
    survivor.submit(1, fast_screening(6, 123));
    std::future<std::vector<store::record>> survivor_records =
        std::async(std::launch::async, [&] { return survivor.collect(1); });

    client queued(socket);
    queued.submit(1, fast_dictionary());

    client shed(socket);
    shed.submit(1, fast_screening(2, 1));
    try {
        (void)shed.collect(1);
        FAIL() << "expected overloaded";
    } catch (const svc::service_error& e) {
        EXPECT_EQ(e.code(), svc::error_code::overloaded);
    }

    // The hog vanishes mid-job: disconnect-cancel must free the slot.
    hog.reset();

    // Both queued jobs now run to completion, bit-identical to offline.
    EXPECT_EQ(store_bytes(dir, survivor_records.get(), "survivor.store"),
              offline_store_bytes(dir, fast_screening(6, 123), "survivor_off.store"));

    const auto dict_records = queued.collect(1);
    const auto dict = fast_dictionary();
    EXPECT_EQ(dict_records.size(), dict.total_units());
    EXPECT_EQ(store_bytes(dir, dict_records, "dict.store"),
              offline_store_bytes(dir, dict, "dict_off.store"));

    server.stop();
    const auto counters = server.counters();
    EXPECT_GE(counters.jobs_cancelled, 1u); // the hog's job
    EXPECT_GE(counters.jobs_rejected, 1u);  // the shed submit
    EXPECT_EQ(counters.jobs_failed, 0u);
}

} // namespace
