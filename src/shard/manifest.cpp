#include "shard/manifest.hpp"

#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/json_schema.hpp"
#include "diag/fault_model.hpp"
#include "dut/filters.hpp"
#include "gen/generator.hpp"
#include "sd/modulator.hpp"

namespace bistna::shard {

namespace {

constexpr json_name<workload_kind> workload_names[] = {
    {workload_kind::screening, "screening"},
    {workload_kind::dictionary, "dictionary"},
};

/// generator / modulator: the ideal model or the realistic 0.35 um draw.
constexpr json_name<bool> design_names[] = {{true, "ideal"}, {false, "cmos035"}};

constexpr json_name<eval::offset_mode> offset_names[] = {
    {eval::offset_mode::none, "none"},
    {eval::offset_mode::calibrated, "calibrated"},
    {eval::offset_mode::chopped, "chopped"},
};

} // namespace

const char* workload_name(workload_kind kind) noexcept {
    return json_name_of(workload_names, kind).data();
}

const json_schema<lot_manifest>& lot_manifest::schema() {
    static const json_schema<lot_manifest> schema = [] {
        json_schema<core::gain_limit> limit("limit");
        limit.add("f_hz", &core::gain_limit::f_hz)
            .add("gain_db_min", &core::gain_limit::gain_db_min)
            .add("gain_db_max", &core::gain_limit::gain_db_max)
            .add("name", &core::gain_limit::name);

        json_schema<lot_manifest> dictionary("dictionary");
        dictionary.add("grid_points", &lot_manifest::grid_points, 1)
            .add("thd_max_harmonic", &lot_manifest::thd_max_harmonic)
            .add("nominal_seed", &lot_manifest::nominal_seed)
            .add("eval_seed_base", &lot_manifest::eval_seed_base);

        json_schema<lot_manifest> engine("engine");
        engine.add("threads", &lot_manifest::threads).add("lanes", &lot_manifest::batch_lanes);

        json_schema<lot_manifest> m("manifest");
        m.add("workload", &lot_manifest::workload, workload_names)
            .add("sigma", &lot_manifest::sigma, 0.0)
            .add("amplitude_mv", &lot_manifest::amplitude_mv)
            .add("generator", &lot_manifest::ideal_generator, design_names)
            .add("modulator", &lot_manifest::ideal_modulator, design_names)
            .add("offset", &lot_manifest::offset, offset_names)
            .add("evaluator_seed", &lot_manifest::evaluator_seed)
            .add("periods", &lot_manifest::periods, 1)
            .add("settle_periods", &lot_manifest::settle_periods)
            .add("distortion_periods", &lot_manifest::distortion_periods)
            .add("calibration_periods", &lot_manifest::calibration_periods)
            .add("limits", &lot_manifest::custom_limits, limit)
            .add("stimulus_volts_nominal", &lot_manifest::stimulus_volts_nominal)
            .add("stimulus_tolerance", &lot_manifest::stimulus_tolerance)
            .add("measure_distortion", &lot_manifest::measure_distortion)
            .add("continue_after_self_test_failure",
                 &lot_manifest::continue_after_self_test_failure)
            .add("distortion_max_harmonic", &lot_manifest::distortion_max_harmonic)
            .add("distortion_f_hz", &lot_manifest::distortion_f_hz)
            .add("dice", &lot_manifest::dice)
            .add("first_seed", &lot_manifest::first_seed)
            .add("dictionary", dictionary)
            .add("engine", engine)
            // Settings that only matter in combination: a lot that would
            // die on an engine precondition in every worker is refused here.
            .check([](const lot_manifest& lot, const json_where& where) {
                if (lot.measure_distortion && lot.distortion_periods == 0) {
                    where.at("distortion_periods").fail("must be >= 1 with measure_distortion");
                }
                if (lot.measure_distortion && lot.distortion_max_harmonic < 2) {
                    where.at("distortion_max_harmonic")
                        .fail("must be >= 2 with measure_distortion");
                }
                if (lot.offset == eval::offset_mode::calibrated && lot.calibration_periods == 0) {
                    where.at("calibration_periods").fail("must be >= 1 with offset calibrated");
                }
            });
        return m;
    }();
    return schema;
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

std::string lot_manifest::to_json() const { return bistna::to_json(schema().write(*this)); }

lot_manifest lot_manifest::from_json(std::string_view text) {
    return from_value(parse_json(text, "manifest JSON"));
}

lot_manifest lot_manifest::from_value(const json_value& root) {
    lot_manifest manifest;
    schema().read(root, manifest);
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
    out << to_json() << '\n';
    if (!out.flush()) {
        throw configuration_error("failed writing manifest '" + path + "'");
    }
}

} // namespace bistna::shard
