// End-to-end shard runner: the full coordinator path -- manifest on disk,
// real worker processes under the supervisor, merge -- checked against the
// single-process store byte for byte, with and without an injected worker
// kill.  Workers are this test binary re-executed behind the
// --bistna-shard-worker dispatch flag (tests/main.cpp); when the
// screening_lot example binary happens to be built alongside, its --store
// output is cross-checked against the coordinator's too.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "shard/coordinator.hpp"
#include "shard/worker.hpp"
#include "store/lot_store.hpp"
#include "store/records.hpp"

namespace {

using namespace bistna;

class temp_dir {
public:
    explicit temp_dir(const char* name) : path_(std::string("/tmp/") + name) {
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }
    ~temp_dir() { std::filesystem::remove_all(path_); }
    std::string file(const std::string& name) const { return path_ + "/" + name; }

private:
    std::string path_;
};

shard::lot_manifest fast_manifest(std::uint64_t dice) {
    shard::lot_manifest manifest;
    manifest.periods = 20;
    manifest.settle_periods = 4;
    manifest.distortion_periods = 40;
    manifest.calibration_periods = 256;
    manifest.dice = dice;
    manifest.first_seed = 1;
    manifest.threads = 1;
    manifest.batch_lanes = 4;
    return manifest;
}

std::string read_bytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

std::string single_process_bytes(const temp_dir& dir,
                                 const shard::lot_manifest& manifest) {
    shard::worker_shard_options whole;
    whole.units = manifest.total_units();
    shard::run_worker_shard(manifest, dir.file("oracle"), whole);
    return read_bytes(dir.file("oracle"));
}

shard::supervisor_options fleet_options(const temp_dir& dir, std::size_t shards,
                                        std::size_t workers) {
    shard::supervisor_options options;
    options.worker_command = {"/proc/self/exe", "--bistna-shard-worker"};
    options.shards = shards;
    options.max_processes = workers;
    options.shard_dir = dir.file("shards");
    return options;
}

TEST(ShardIntegration, CoordinatorMatchesSingleProcessByteForByte) {
    temp_dir dir("bistna_integration_shard");
    const auto manifest = fast_manifest(9);

    const auto report = shard::run_lot(manifest, dir.file("merged"),
                                       fleet_options(dir, 4, 2));
    EXPECT_EQ(report.merge.records_merged, 9u);
    EXPECT_EQ(report.shards.retries, 0u);
    EXPECT_EQ(read_bytes(dir.file("merged")), single_process_bytes(dir, manifest));

    // The merged store scans back as the full lot in die-seed order.
    const auto records = store::lot_store::scan(dir.file("merged"));
    ASSERT_EQ(records.size(), 9u);
    for (std::size_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(store::report_from_record(records[i]).die,
                  manifest.first_seed + i);
    }
}

TEST(ShardIntegration, SurvivesAnInjectedWorkerKill) {
    temp_dir dir("bistna_integration_kill");
    const auto manifest = fast_manifest(8);

    auto options = fleet_options(dir, 4, 4);
    options.max_attempts = 2;
    // Every shard's first attempt dies by SIGKILL mid-write after one
    // record; the retries complete, and the merge must still be exact.
    options.extra_worker_args = {"--kill-after-records=1", "--kill-attempt=1"};
    const auto report =
        shard::run_lot(manifest, dir.file("merged"), options);

    EXPECT_GE(report.shards.retries, 1u);
    EXPECT_GE(report.merge.torn_files, 1u);
    EXPECT_EQ(report.merge.records_merged, 8u);
    EXPECT_EQ(read_bytes(dir.file("merged")), single_process_bytes(dir, manifest));
}

TEST(ShardIntegration, DictionaryLotShardsEndToEnd) {
    temp_dir dir("bistna_integration_dict");
    auto manifest = fast_manifest(1);
    manifest.workload = shard::workload_kind::dictionary;
    manifest.grid_points = 2;
    manifest.thd_max_harmonic = 0;

    const auto report = shard::run_lot(manifest, dir.file("merged"),
                                       fleet_options(dir, 3, 3));
    EXPECT_EQ(report.merge.records_merged, manifest.total_units());
    EXPECT_EQ(read_bytes(dir.file("merged")), single_process_bytes(dir, manifest));
}

TEST(ShardIntegration, ScreeningLotExampleStoreMatchesCoordinator) {
    // The example streams its --store file with production-default
    // settings; a manifest with the same defaults run through the shard
    // fleet must produce the identical file.  Skipped when the example
    // binary is not part of this build (BISTNA_BUILD_EXAMPLES=OFF).
    const auto example = std::filesystem::read_symlink("/proc/self/exe")
                             .parent_path() /
                         "screening_lot";
    if (!std::filesystem::exists(example)) {
        GTEST_SKIP() << "screening_lot example not built";
    }

    temp_dir dir("bistna_integration_example");
    const std::uint64_t dice = 4;
    const std::string command = example.string() + " --dice=" +
                                std::to_string(dice) +
                                " --sigma=0.03 --threads=1 --lanes=4 --store=" +
                                dir.file("example.store") + " > " +
                                dir.file("example.log") + " 2>&1";
    ASSERT_EQ(std::system(command.c_str()), 0) << "example run failed";

    shard::lot_manifest manifest; // defaults mirror the example's settings
    manifest.dice = dice;
    manifest.threads = 1;
    manifest.batch_lanes = 4;
    const auto report = shard::run_lot(manifest, dir.file("merged"),
                                       fleet_options(dir, 2, 2));
    EXPECT_EQ(report.merge.records_merged, dice);
    EXPECT_EQ(read_bytes(dir.file("merged")), read_bytes(dir.file("example.store")))
        << "shard fleet and example --store diverged on the same lot";
}

} // namespace
