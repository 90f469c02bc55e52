#include "shard/manifest.hpp"

#include <cmath>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "common/json.hpp"
#include "diag/fault_model.hpp"
#include "dut/filters.hpp"
#include "gen/generator.hpp"
#include "sd/modulator.hpp"

namespace bistna::shard {

namespace {

// The strict JSON parser itself lives in common/json.hpp (shared with the
// telemetry trace tests); this file keeps only the manifest's typed field
// access on top of it.

// --- typed field access ----------------------------------------------------

[[noreturn]] void field_error(const std::string& key, const std::string& what) {
    throw configuration_error("manifest field \"" + key + "\": " + what);
}

double get_number(const json_value& v, const std::string& key) {
    if (v.type != json_value::kind::number) {
        field_error(key, "expected a number");
    }
    return v.num;
}

std::uint64_t get_u64(const json_value& v, const std::string& key) {
    const double num = get_number(v, key);
    if (!(num >= 0.0) || num != std::floor(num) || num > 9.007199254740992e15) {
        field_error(key, "expected a non-negative integer below 2^53");
    }
    return static_cast<std::uint64_t>(num);
}

bool get_bool(const json_value& v, const std::string& key) {
    if (v.type != json_value::kind::boolean) {
        field_error(key, "expected true/false");
    }
    return v.b;
}

std::string get_string(const json_value& v, const std::string& key) {
    if (v.type != json_value::kind::string) {
        field_error(key, "expected a string");
    }
    return v.str;
}

/// Walk an object with a per-key handler; unknown keys are rejected so a
/// typo in a hand-written manifest fails loudly instead of silently
/// running the defaults.
template <typename Handler>
void walk_object(const json_value& v, const std::string& what, Handler&& handler) {
    if (v.type != json_value::kind::object) {
        field_error(what, "expected an object");
    }
    for (const auto& [key, value] : v.members) {
        if (!handler(key, value)) {
            field_error(what + "." + key, "unknown key");
        }
    }
}

// Number formatting goes through the shared locale-safe writer
// (bistna::json_number, common/json.hpp): the former ostringstream
// formatting here emitted "0,03" under a comma-decimal global locale --
// invalid JSON that the strict parser then rejected on reload.

const char* offset_name(eval::offset_mode mode) {
    switch (mode) {
    case eval::offset_mode::none: return "none";
    case eval::offset_mode::calibrated: return "calibrated";
    case eval::offset_mode::chopped: return "chopped";
    }
    return "calibrated";
}

eval::offset_mode offset_from_name(const std::string& name) {
    if (name == "none") {
        return eval::offset_mode::none;
    }
    if (name == "calibrated") {
        return eval::offset_mode::calibrated;
    }
    if (name == "chopped") {
        return eval::offset_mode::chopped;
    }
    field_error("offset", "expected none|calibrated|chopped, got \"" + name + "\"");
}

} // namespace

const char* workload_name(workload_kind kind) noexcept {
    return kind == workload_kind::screening ? "screening" : "dictionary";
}

std::uint64_t lot_manifest::total_units() const {
    if (workload == workload_kind::screening) {
        return dice;
    }
    return 1 + static_cast<std::uint64_t>(diag::default_catalog().size()) *
                   static_cast<std::uint64_t>(grid_points);
}

core::spec_mask lot_manifest::make_mask() const {
    core::spec_mask mask = core::spec_mask::paper_lowpass();
    if (!custom_limits.empty()) {
        mask.limits = custom_limits;
    }
    if (stimulus_volts_nominal) {
        mask.stimulus_volts_nominal = *stimulus_volts_nominal;
    }
    if (stimulus_tolerance) {
        mask.stimulus_tolerance = *stimulus_tolerance;
    }
    return mask;
}

core::analyzer_settings lot_manifest::make_settings() const {
    core::analyzer_settings settings;
    settings.periods = periods;
    settings.settle_periods = settle_periods;
    settings.distortion_periods = distortion_periods;
    settings.evaluator.calibration_periods = calibration_periods;
    settings.evaluator.offset = offset;
    settings.evaluator.seed = evaluator_seed;
    settings.evaluator.modulator = ideal_modulator ? sd::modulator_params::ideal()
                                                   : sd::modulator_params::cmos035();
    return settings;
}

core::screening_options lot_manifest::make_screening_options() const {
    core::screening_options screening;
    screening.measure_distortion = measure_distortion;
    screening.continue_after_self_test_failure = continue_after_self_test_failure;
    screening.distortion_max_harmonic = distortion_max_harmonic;
    screening.distortion_f_hz = distortion_f_hz;
    return screening;
}

core::board_factory lot_manifest::make_factory() const {
    const auto generator =
        ideal_generator ? gen::generator_params::ideal() : gen::generator_params{};
    const double sigma_copy = sigma;
    const double amplitude = amplitude_mv;
    return [generator, sigma_copy, amplitude](std::uint64_t seed) {
        core::demonstrator_board board(generator, dut::make_paper_dut(sigma_copy, seed));
        board.set_amplitude(millivolt(amplitude));
        return board;
    };
}

diag::die_design lot_manifest::make_die_design() const {
    diag::die_design design;
    if (ideal_generator) {
        design.generator = gen::generator_params::ideal();
    }
    design.dut_tolerance_sigma = sigma;
    design.amplitude_volts = amplitude_mv * 1e-3;
    return design;
}

core::sweep_engine_options lot_manifest::make_engine_options() const {
    core::sweep_engine_options options;
    options.threads = threads;
    options.batch_lanes = batch_lanes;
    return options;
}

std::string lot_manifest::to_json() const {
    std::ostringstream out;
    out << "{\n"
        << "  \"workload\": \"" << workload_name(workload) << "\",\n"
        << "  \"sigma\": " << json_number(sigma) << ",\n"
        << "  \"amplitude_mv\": " << json_number(amplitude_mv) << ",\n"
        << "  \"generator\": \"" << (ideal_generator ? "ideal" : "cmos035") << "\",\n"
        << "  \"modulator\": \"" << (ideal_modulator ? "ideal" : "cmos035") << "\",\n"
        << "  \"offset\": \"" << offset_name(offset) << "\",\n"
        << "  \"evaluator_seed\": " << evaluator_seed << ",\n"
        << "  \"periods\": " << periods << ",\n"
        << "  \"settle_periods\": " << settle_periods << ",\n"
        << "  \"distortion_periods\": " << distortion_periods << ",\n"
        << "  \"calibration_periods\": " << calibration_periods << ",\n";
    if (!custom_limits.empty()) {
        out << "  \"limits\": [";
        for (std::size_t i = 0; i < custom_limits.size(); ++i) {
            const auto& limit = custom_limits[i];
            out << (i == 0 ? "" : ", ") << "{\"f_hz\": " << json_number(limit.f_hz)
                << ", \"gain_db_min\": " << json_number(limit.gain_db_min)
                << ", \"gain_db_max\": " << json_number(limit.gain_db_max)
                << ", \"name\": \"" << json_escape(limit.name) << "\"}";
        }
        out << "],\n";
    }
    if (stimulus_volts_nominal) {
        out << "  \"stimulus_volts_nominal\": " << json_number(*stimulus_volts_nominal)
            << ",\n";
    }
    if (stimulus_tolerance) {
        out << "  \"stimulus_tolerance\": " << json_number(*stimulus_tolerance) << ",\n";
    }
    out << "  \"measure_distortion\": " << (measure_distortion ? "true" : "false")
        << ",\n"
        << "  \"continue_after_self_test_failure\": "
        << (continue_after_self_test_failure ? "true" : "false") << ",\n"
        << "  \"distortion_max_harmonic\": " << distortion_max_harmonic << ",\n"
        << "  \"distortion_f_hz\": " << json_number(distortion_f_hz) << ",\n"
        << "  \"dice\": " << dice << ",\n"
        << "  \"first_seed\": " << first_seed << ",\n"
        << "  \"dictionary\": {\"grid_points\": " << grid_points
        << ", \"thd_max_harmonic\": " << thd_max_harmonic
        << ", \"nominal_seed\": " << nominal_seed
        << ", \"eval_seed_base\": " << eval_seed_base << "},\n"
        << "  \"engine\": {\"threads\": " << threads << ", \"lanes\": " << batch_lanes
        << "}\n"
        << "}\n";
    return out.str();
}

lot_manifest lot_manifest::from_json(std::string_view text) {
    return from_value(parse_json(text, "manifest JSON"));
}

lot_manifest lot_manifest::from_value(const json_value& root) {
    lot_manifest manifest;

    walk_object(root, "manifest", [&](const std::string& key, const json_value& v) {
        if (key == "workload") {
            const std::string name = get_string(v, key);
            if (name == "screening") {
                manifest.workload = workload_kind::screening;
            } else if (name == "dictionary") {
                manifest.workload = workload_kind::dictionary;
            } else {
                field_error(key, "expected screening|dictionary, got \"" + name + "\"");
            }
        } else if (key == "sigma") {
            manifest.sigma = get_number(v, key);
        } else if (key == "amplitude_mv") {
            manifest.amplitude_mv = get_number(v, key);
        } else if (key == "generator" || key == "modulator") {
            const std::string name = get_string(v, key);
            if (name != "ideal" && name != "cmos035") {
                field_error(key, "expected ideal|cmos035, got \"" + name + "\"");
            }
            (key == "generator" ? manifest.ideal_generator : manifest.ideal_modulator) =
                name == "ideal";
        } else if (key == "offset") {
            manifest.offset = offset_from_name(get_string(v, key));
        } else if (key == "evaluator_seed") {
            manifest.evaluator_seed = get_u64(v, key);
        } else if (key == "periods") {
            manifest.periods = get_u64(v, key);
        } else if (key == "settle_periods") {
            manifest.settle_periods = get_u64(v, key);
        } else if (key == "distortion_periods") {
            manifest.distortion_periods = get_u64(v, key);
        } else if (key == "calibration_periods") {
            manifest.calibration_periods = get_u64(v, key);
        } else if (key == "limits") {
            if (v.type != json_value::kind::array) {
                field_error(key, "expected an array");
            }
            for (const auto& element : v.elements) {
                core::gain_limit limit;
                walk_object(element, "limits[]",
                            [&](const std::string& k, const json_value& field) {
                                if (k == "f_hz") {
                                    limit.f_hz = get_number(field, k);
                                } else if (k == "gain_db_min") {
                                    limit.gain_db_min = get_number(field, k);
                                } else if (k == "gain_db_max") {
                                    limit.gain_db_max = get_number(field, k);
                                } else if (k == "name") {
                                    limit.name = get_string(field, k);
                                } else {
                                    return false;
                                }
                                return true;
                            });
                manifest.custom_limits.push_back(std::move(limit));
            }
        } else if (key == "stimulus_volts_nominal") {
            manifest.stimulus_volts_nominal = get_number(v, key);
        } else if (key == "stimulus_tolerance") {
            manifest.stimulus_tolerance = get_number(v, key);
        } else if (key == "measure_distortion") {
            manifest.measure_distortion = get_bool(v, key);
        } else if (key == "continue_after_self_test_failure") {
            manifest.continue_after_self_test_failure = get_bool(v, key);
        } else if (key == "distortion_max_harmonic") {
            manifest.distortion_max_harmonic = get_u64(v, key);
        } else if (key == "distortion_f_hz") {
            manifest.distortion_f_hz = get_number(v, key);
        } else if (key == "dice") {
            manifest.dice = get_u64(v, key);
        } else if (key == "first_seed") {
            manifest.first_seed = get_u64(v, key);
        } else if (key == "dictionary") {
            walk_object(v, key, [&](const std::string& k, const json_value& field) {
                if (k == "grid_points") {
                    manifest.grid_points = get_u64(field, k);
                } else if (k == "thd_max_harmonic") {
                    manifest.thd_max_harmonic = get_u64(field, k);
                } else if (k == "nominal_seed") {
                    manifest.nominal_seed = get_u64(field, k);
                } else if (k == "eval_seed_base") {
                    manifest.eval_seed_base = get_u64(field, k);
                } else {
                    return false;
                }
                return true;
            });
        } else if (key == "engine") {
            walk_object(v, key, [&](const std::string& k, const json_value& field) {
                if (k == "threads") {
                    manifest.threads = get_u64(field, k);
                } else if (k == "lanes") {
                    manifest.batch_lanes = get_u64(field, k);
                } else {
                    return false;
                }
                return true;
            });
        } else {
            return false;
        }
        return true;
    });

    if (manifest.grid_points == 0) {
        field_error("dictionary.grid_points", "must be >= 1");
    }
    return manifest;
}

lot_manifest lot_manifest::load(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        throw configuration_error("cannot open manifest '" + path + "'");
    }
    std::ostringstream text;
    text << in.rdbuf();
    return from_json(text.str());
}

void lot_manifest::save(const std::string& path) const {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) {
        throw configuration_error("cannot write manifest '" + path + "'");
    }
    out << to_json();
    if (!out.flush()) {
        throw configuration_error("failed writing manifest '" + path + "'");
    }
}

} // namespace bistna::shard
