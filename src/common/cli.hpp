// One declarative flag table per command-line front end.
//
// Each front end declares every flag it takes exactly once -- name, typed
// target, help line -- and parse() walks argv once against that table.
// Parsing is strict: an unknown flag, a positional argument, a repeated
// flag, an empty or malformed value, or "=value" on a switch throws
// configuration_error naming the flag, so a typo can never run a lot with
// defaults.  "--help" prints a usage text generated from the same table.
//
// Flags are "--name=value" for value flags and a bare "--name" for
// switches; nothing else is accepted.  The table holds its targets by
// reference: they must outlive parse().
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <functional>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace bistna {

/// Whether a front end may run without the flag.
enum class flag_use {
    optional, ///< may be omitted; the target keeps its initial value
    required, ///< parse() throws configuration_error when it is missing
};

class flag_table {
public:
    /// `program` heads the generated usage text and every error message.
    explicit flag_table(std::string program) : program_(std::move(program)) {}

    /// "--name=N" into an unsigned integer target (decimal digits only,
    /// range-checked against the target type) or "--name=X" into a double
    /// (finite, no trailing text).  The target's initial value is the
    /// default; the usage text shows it unless it is zero.
    template <class Number>
        requires(std::is_same_v<Number, double> ||
                 (std::is_unsigned_v<Number> && !std::is_same_v<Number, bool>))
    flag_table& add(const std::string& name, Number& target, const std::string& help,
                    flag_use use = flag_use::optional) {
        constexpr bool real = std::is_same_v<Number, double>;
        char buf[32];
        const std::string initial(buf, std::to_chars(buf, buf + sizeof buf, target).ptr);
        return declare(name, real ? "X" : "N", target == 0 ? "" : initial, help, use,
                       [&target, name](std::string_view text) {
                           Number value{};
                           const char* end = text.data() + text.size();
                           const auto [ptr, ec] = std::from_chars(text.data(), end, value);
                           if (ec != std::errc() || ptr != end ||
                               !std::isfinite(static_cast<double>(value))) {
                               throw configuration_error(
                                   "flag --" + name + "=" + std::string(text) +
                                   (real ? ": expected a finite number"
                                         : ": expected a non-negative integer in range"));
                           }
                           target = value;
                       });
    }

    /// "--name=TEXT": a non-empty string.
    flag_table& add(const std::string& name, std::string& target, const std::string& help,
                    flag_use use = flag_use::optional) {
        return declare(name, "TEXT", target, help, use,
                       [&target](std::string_view text) { target = text; });
    }

    /// Bare switch "--name": sets the target to true.
    flag_table& add(const std::string& name, bool& target, const std::string& help) {
        return declare(name, "", "", help, flag_use::optional,
                       [&target](std::string_view) { target = true; });
    }

    /// A bare switch that is accepted and otherwise ignored -- a dispatch
    /// sentinel some host main left in argv before handing it over.
    flag_table& ignore(const std::string& name, const std::string& help) {
        return declare(name, "", "", help, flag_use::optional, [](std::string_view) {});
    }

    /// Walk argv once and assign every given flag's target.  Returns false
    /// when "--help" appears: the usage text goes to `help_out` and no
    /// target is touched.  Throws configuration_error naming the flag on
    /// anything the table does not accept, or when a required flag is
    /// missing.
    [[nodiscard]] bool parse(int argc, char** argv, std::ostream& help_out = std::cout) {
        for (int i = 1; i < argc; ++i) {
            if (std::string_view(argv[i]) == "--help") {
                help_out << usage();
                return false;
            }
        }
        for (int i = 1; i < argc; ++i) {
            const std::string_view arg(argv[i]);
            if (arg.size() < 3 || arg.substr(0, 2) != "--") {
                throw configuration_error("unexpected argument '" + std::string(arg) +
                                          "' (flags are --name=value or --switch)");
            }
            const std::size_t eq = arg.find('=');
            const std::string name(arg.substr(2, eq == arg.npos ? arg.npos : eq - 2));
            const auto e = std::find_if(entries_.begin(), entries_.end(),
                                        [&](const entry& x) { return x.name == name; });
            if (e == entries_.end()) {
                throw configuration_error("unknown flag --" + name + " (see --help)");
            }
            if (e->given) {
                throw configuration_error("flag --" + name + " given more than once");
            }
            e->given = true;
            // A switch must come bare; a value flag needs "=" and a value.
            if (e->metavar.empty() != (eq == arg.npos) || eq + 1 == arg.size()) {
                throw configuration_error(
                    e->metavar.empty() ? "switch --" + name + " takes no value"
                                       : "flag --" + name + " needs a non-empty value (--" +
                                             name + "=" + e->metavar + ")");
            }
            e->assign(eq == arg.npos ? std::string_view() : arg.substr(eq + 1));
        }
        for (const entry& e : entries_) {
            if (e.use == flag_use::required && !e.given) {
                throw configuration_error("missing required flag " + e.spelling());
            }
        }
        return true;
    }

    /// The front-end form of parse(): std::nullopt when the program should
    /// run, otherwise its exit code -- 0 after "--help", 2 after printing
    /// the flag error and the usage text to stderr.
    [[nodiscard]] std::optional<int> parse_main(int argc, char** argv) {
        try {
            return parse(argc, argv) ? std::nullopt : std::optional<int>(0);
        } catch (const configuration_error& error) {
            std::cerr << program_ << ": " << error.what() << "\n\n" << usage();
            return 2;
        }
    }

    /// True when the flag appeared in the argv parse() walked.
    bool given(std::string_view name) const {
        return std::any_of(entries_.begin(), entries_.end(),
                           [&](const entry& e) { return e.name == name && e.given; });
    }

    /// The usage text generated from the table.
    std::string usage() const {
        std::ostringstream out;
        out << "usage: " << program_;
        std::size_t width = std::string_view("--help").size();
        for (const entry& e : entries_) {
            if (e.use == flag_use::required) {
                out << " " << e.spelling();
            }
            width = std::max(width, e.spelling().size());
        }
        out << " [flags]\n";
        const auto line = [&](const std::string& flag, const std::string& help) {
            out << "  " << flag << std::string(width + 2 - flag.size(), ' ') << help << "\n";
        };
        for (const entry& e : entries_) {
            line(e.spelling(), e.help);
        }
        line("--help", "print this usage text and exit");
        return out.str();
    }

private:
    struct entry {
        std::string name;
        std::string metavar; ///< empty for switches
        std::string help;
        flag_use use = flag_use::optional;
        std::function<void(std::string_view)> assign;
        bool given = false;

        std::string spelling() const {
            return "--" + name + (metavar.empty() ? "" : "=" + metavar);
        }
    };

    flag_table& declare(const std::string& name, std::string metavar,
                        const std::string& initial, const std::string& help, flag_use use,
                        std::function<void(std::string_view)> assign) {
        BISTNA_EXPECTS(!name.empty() && name != "help" &&
                           std::none_of(entries_.begin(), entries_.end(),
                                        [&](const entry& e) { return e.name == name; }),
                       "flag names must be non-empty, unique and not 'help'");
        const std::string note = use == flag_use::required ? " (required)"
                                 : initial.empty()          ? ""
                                                            : " (default " + initial + ")";
        entries_.push_back({name, std::move(metavar), help + note, use, std::move(assign)});
        return *this;
    }

    std::string program_;
    std::vector<entry> entries_;
};

} // namespace bistna
