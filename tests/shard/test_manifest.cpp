// Lot manifest: the JSON contract every worker process loads.  Round
// trips must be exact (a retried worker re-reading the manifest must run
// the identical lot) and parsing must be strict (a typo in a hand-written
// manifest fails loudly, never silently runs the defaults).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/error.hpp"
#include "diag/fault_model.hpp"
#include "shard/manifest.hpp"

namespace {

using namespace bistna;

class temp_file {
public:
    explicit temp_file(const char* name) : path_(std::string("/tmp/") + name) {
        std::remove(path_.c_str());
    }
    ~temp_file() { std::remove(path_.c_str()); }
    const std::string& path() const { return path_; }

private:
    std::string path_;
};

TEST(ShardManifest, DefaultsRoundTripThroughJson) {
    const shard::lot_manifest manifest;
    const std::string json = manifest.to_json();
    const shard::lot_manifest parsed = shard::lot_manifest::from_json(json);
    // to_json is deterministic, so string equality is full field equality.
    EXPECT_EQ(parsed.to_json(), json);
    EXPECT_EQ(parsed.workload, shard::workload_kind::screening);
    EXPECT_EQ(parsed.dice, manifest.dice);
    EXPECT_EQ(parsed.first_seed, manifest.first_seed);
}

TEST(ShardManifest, NonDefaultFieldsRoundTrip) {
    shard::lot_manifest manifest;
    manifest.workload = shard::workload_kind::dictionary;
    manifest.sigma = 0.05;
    manifest.amplitude_mv = 120.5;
    manifest.ideal_generator = false;
    manifest.ideal_modulator = false;
    manifest.offset = eval::offset_mode::chopped;
    manifest.evaluator_seed = 99;
    manifest.periods = 64;
    manifest.settle_periods = 8;
    manifest.calibration_periods = 512;
    manifest.custom_limits.push_back(
        core::gain_limit{1000.0, -2.25, 0.5, "pass band"});
    manifest.stimulus_volts_nominal = 0.31;
    manifest.stimulus_tolerance = 0.07;
    manifest.measure_distortion = true;
    manifest.continue_after_self_test_failure = true;
    manifest.dice = 4096;
    manifest.first_seed = 1000;
    manifest.grid_points = 5;
    manifest.thd_max_harmonic = 4;
    manifest.nominal_seed = 3;
    manifest.eval_seed_base = 0xABCDEF;
    manifest.threads = 2;
    manifest.batch_lanes = 16;

    const shard::lot_manifest parsed =
        shard::lot_manifest::from_json(manifest.to_json());
    EXPECT_EQ(parsed.to_json(), manifest.to_json());
    EXPECT_EQ(parsed.workload, shard::workload_kind::dictionary);
    ASSERT_EQ(parsed.custom_limits.size(), 1u);
    EXPECT_EQ(parsed.custom_limits[0].name, "pass band");
    EXPECT_EQ(parsed.custom_limits[0].gain_db_min, -2.25);
    ASSERT_TRUE(parsed.stimulus_tolerance.has_value());
    EXPECT_EQ(*parsed.stimulus_tolerance, 0.07);
    EXPECT_EQ(parsed.batch_lanes, 16u);
}

TEST(ShardManifest, SaveLoadRoundTrip) {
    temp_file file("bistna_manifest_roundtrip.json");
    shard::lot_manifest manifest;
    manifest.dice = 123;
    manifest.first_seed = 7;
    manifest.save(file.path());
    const shard::lot_manifest loaded = shard::lot_manifest::load(file.path());
    EXPECT_EQ(loaded.to_json(), manifest.to_json());
}

TEST(ShardManifest, RejectsMalformedJson) {
    EXPECT_THROW((void)shard::lot_manifest::from_json(""), configuration_error);
    EXPECT_THROW((void)shard::lot_manifest::from_json("{"), configuration_error);
    EXPECT_THROW((void)shard::lot_manifest::from_json("{} trailing"),
                 configuration_error);
    EXPECT_THROW((void)shard::lot_manifest::from_json("{\"dice\": }"),
                 configuration_error);
    EXPECT_THROW((void)shard::lot_manifest::from_json("{\"dice\": \"many\"}"),
                 configuration_error);
    EXPECT_THROW((void)shard::lot_manifest::from_json("{\"dice\": -3}"),
                 configuration_error);
    EXPECT_THROW((void)shard::lot_manifest::from_json("{\"dice\": 1.5}"),
                 configuration_error);
    // One integer bound: 2^53 and anything that would round to it.
    EXPECT_THROW((void)shard::lot_manifest::from_json("{\"dice\": 9007199254740992}"),
                 configuration_error);
    EXPECT_THROW((void)shard::lot_manifest::from_json("{\"dice\": 9007199254740993}"),
                 configuration_error);
    // Out-of-domain values fail here, not on an engine precondition in
    // every worker attempt.
    for (const char* json :
         {"{\"periods\": 0}", "{\"sigma\": -1}", "{\"calibration_periods\": 0}",
          "{\"dictionary\": {\"grid_points\": 0}}",
          "{\"measure_distortion\": true, \"distortion_periods\": 0}",
          "{\"measure_distortion\": true, \"distortion_max_harmonic\": 0}"}) {
        EXPECT_THROW((void)shard::lot_manifest::from_json(json), configuration_error) << json;
    }
}

// The domain checks reject nothing that runs: each of these lots runs to
// completion, so each must parse.
TEST(ShardManifest, AcceptsEveryValueThatRuns) {
    for (const char* json :
         {"{\"engine\": {\"threads\": 0, \"lanes\": 0}}", "{\"sigma\": 0}",
          "{\"amplitude_mv\": -150}", "{\"dictionary\": {\"thd_max_harmonic\": 0}}",
          "{\"dictionary\": {\"thd_max_harmonic\": 1}}",
          "{\"offset\": \"none\", \"calibration_periods\": 0}",
          "{\"offset\": \"chopped\", \"calibration_periods\": 0}",
          "{\"measure_distortion\": false, \"distortion_periods\": 0, "
          "\"distortion_max_harmonic\": 0}"}) {
        EXPECT_NO_THROW((void)shard::lot_manifest::from_json(json)) << json;
    }
}

TEST(ShardManifest, RejectsUnknownAndDuplicateKeys) {
    EXPECT_THROW((void)shard::lot_manifest::from_json("{\"dyce\": 8}"),
                 configuration_error);
    EXPECT_THROW(
        (void)shard::lot_manifest::from_json("{\"engine\": {\"cores\": 4}}"),
        configuration_error);
    EXPECT_THROW((void)shard::lot_manifest::from_json("{\"dice\": 8, \"dice\": 9}"),
                 configuration_error);
    EXPECT_THROW((void)shard::lot_manifest::from_json("{\"workload\": \"sharding\"}"),
                 configuration_error);
}

// "engine.pipeline" selected between two lane-group implementations; with
// one stage runner left it is an unknown key like any other.
TEST(ShardManifest, RejectsRemovedPipelineKey) {
    const auto parsed =
        shard::lot_manifest::from_json("{\"engine\": {\"threads\": 1, \"lanes\": 4}}");
    EXPECT_EQ(parsed.batch_lanes, 4u);
    for (const char* value : {"lane_major", "reference"}) {
        const std::string json = std::string("{\"engine\": {\"lanes\": 4, \"pipeline\": \"") +
                                 value + "\"}}";
        EXPECT_THROW((void)shard::lot_manifest::from_json(json), configuration_error)
            << value;
    }
}

TEST(ShardManifest, UnitAndRecordIdAccounting) {
    shard::lot_manifest screening;
    screening.dice = 100;
    screening.first_seed = 17;
    EXPECT_EQ(screening.total_units(), 100u);
    EXPECT_EQ(screening.record_id(0), 17u);
    EXPECT_EQ(screening.record_id(99), 116u);

    shard::lot_manifest dictionary;
    dictionary.workload = shard::workload_kind::dictionary;
    dictionary.grid_points = 3;
    // 1 healthy reference + one item per (catalog fault, grid point).
    EXPECT_EQ(dictionary.total_units(), 1 + diag::default_catalog().size() * 3);
    EXPECT_EQ(dictionary.record_id(0), 0u);
    EXPECT_EQ(dictionary.record_id(7), 7u);
}

TEST(ShardManifest, MissingManifestFileThrows) {
    EXPECT_THROW((void)shard::lot_manifest::load("/nonexistent/lot.json"),
                 configuration_error);
}

} // namespace
