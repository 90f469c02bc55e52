// The declarative flag table behind every example/daemon front end:
// strict typed values, defaulted targets, and rejection -- naming the
// flag -- of anything the table does not declare, so a typo can never
// run a lot with defaults.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/error.hpp"

namespace {

using namespace bistna;

/// Builds a stable argv from string literals for one test.
class argv_fixture {
public:
    explicit argv_fixture(std::vector<std::string> args) : storage_(std::move(args)) {
        pointers_.push_back(const_cast<char*>("test"));
        for (auto& s : storage_) {
            pointers_.push_back(s.data());
        }
    }

    int argc() const { return static_cast<int>(pointers_.size()); }
    char** argv() { return pointers_.data(); }

private:
    std::vector<std::string> storage_;
    std::vector<char*> pointers_;
};

/// parse() must throw configuration_error whose message names `flag`.
void expect_rejected(flag_table& flags, std::vector<std::string> args,
                     const std::string& flag) {
    argv_fixture argv(args);
    try {
        (void)flags.parse(argv.argc(), argv.argv());
        ADD_FAILURE() << "expected configuration_error for " << args.back();
    } catch (const configuration_error& e) {
        EXPECT_NE(std::string(e.what()).find(flag), std::string::npos)
            << "'" << e.what() << "' does not name " << flag;
    }
}

/// A table with one flag of each target type.
struct sample_flags {
    std::uint64_t n = 1;
    double x = 0.5;
    std::string path = "/tmp/default.sock";
    bool sw = false;
    flag_table table{"sample"};

    sample_flags() {
        table.add("n", n, "a count")
            .add("x", x, "a number")
            .add("path", path, "a path")
            .add("sw", sw, "a switch");
    }

    bool parse(std::vector<std::string> args) {
        argv_fixture argv(std::move(args));
        return table.parse(argv.argc(), argv.argv());
    }
};

TEST(Cli, FlagStringReturnsValueWhenPresent) {
    sample_flags flags;
    ASSERT_TRUE(flags.parse({"--path=/run/bistna.sock", "--n=3"}));
    EXPECT_EQ(flags.path, "/run/bistna.sock");
}

TEST(Cli, FlagStringFallsBackWhenAbsent) {
    sample_flags flags;
    ASSERT_TRUE(flags.parse({"--n=3"}));
    EXPECT_EQ(flags.path, "/tmp/default.sock");
    EXPECT_FALSE(flags.table.given("path"));
    EXPECT_TRUE(flags.table.given("n"));
}

TEST(Cli, FlagStringRejectsExplicitEmptyValue) {
    // "--path=" is a typo, not a request for the default: silently
    // substituting the fallback would hide it.
    sample_flags flags;
    expect_rejected(flags.table, {"--path="}, "--path");
}

TEST(Cli, FlagStringValueMayContainEqualsSigns) {
    sample_flags flags;
    ASSERT_TRUE(flags.parse({"--path=tcp:9042=x"}));
    EXPECT_EQ(flags.path, "tcp:9042=x");
}

TEST(Cli, FlagU64ParsesAndDefaults) {
    sample_flags absent;
    ASSERT_TRUE(absent.parse({}));
    EXPECT_EQ(absent.n, 1u);
    sample_flags twelve;
    ASSERT_TRUE(twelve.parse({"--n=12"}));
    EXPECT_EQ(twelve.n, 12u);
    sample_flags zero;
    ASSERT_TRUE(zero.parse({"--n=0"}));
    EXPECT_EQ(zero.n, 0u);
}

TEST(Cli, FlagU64RejectsMalformedValues) {
    for (const char* bad : {"--n=", "--n", "--n=8x", "--n=-1", "--n=0.5", "--n= 8",
                            "--n=+8", "--n=99999999999999999999999"}) {
        sample_flags flags;
        expect_rejected(flags.table, {bad}, "--n");
    }
}

TEST(Cli, FlagU64ErrorNamesTheFlag) {
    std::uint64_t timeout = 0;
    flag_table flags("sample");
    flags.add("stall-timeout-ms", timeout, "a timeout");
    expect_rejected(flags, {"--stall-timeout-ms=fast"}, "--stall-timeout-ms");
}

TEST(Cli, FlagU64AcceptsUint64Max) {
    sample_flags flags;
    ASSERT_TRUE(flags.parse({"--n=18446744073709551615"}));
    EXPECT_EQ(flags.n, UINT64_MAX);
}

TEST(Cli, UnsignedTargetsAreRangeChecked) {
    std::uint16_t port = 0;
    flag_table flags("sample");
    flags.add("tcp", port, "a port");
    argv_fixture ok({"--tcp=65535"});
    ASSERT_TRUE(flags.parse(ok.argc(), ok.argv()));
    EXPECT_EQ(port, 65535u);

    std::uint16_t narrow = 0;
    flag_table overflow("sample");
    overflow.add("tcp", narrow, "a port");
    expect_rejected(overflow, {"--tcp=65536"}, "--tcp");
}

TEST(Cli, DoubleParsesFiniteValues) {
    sample_flags flags;
    ASSERT_TRUE(flags.parse({"--x=-2.5e-3"}));
    EXPECT_EQ(flags.x, -2.5e-3);
}

TEST(Cli, DoubleRejectsMalformedValues) {
    for (const char* bad : {"--x=abc", "--x=0.5x", "--x=nan", "--x=inf", "--x=", "--x= 1",
                            "--x=1e999"}) {
        sample_flags flags;
        expect_rejected(flags.table, {bad}, "--x");
        EXPECT_EQ(flags.x, 0.5) << bad;
    }
}

TEST(Cli, SwitchIsBareOnly) {
    sample_flags on;
    ASSERT_TRUE(on.parse({"--sw"}));
    EXPECT_TRUE(on.sw);
    // "--metrics=0" used to turn metrics ON; a switch now takes no value.
    for (const char* bad : {"--sw=0", "--sw=1", "--sw="}) {
        sample_flags flags;
        expect_rejected(flags.table, {bad}, "--sw");
    }
}

TEST(Cli, RejectsUnknownFlag) {
    sample_flags flags;
    expect_rejected(flags.table, {"--n=2", "--bogus=1"}, "--bogus");
    sample_flags bare;
    expect_rejected(bare.table, {"--bogus"}, "--bogus");
}

TEST(Cli, RejectsDuplicateFlag) {
    sample_flags flags;
    expect_rejected(flags.table, {"--n=2", "--n=3"}, "--n");
    sample_flags switches;
    expect_rejected(switches.table, {"--sw", "--sw"}, "--sw");
}

TEST(Cli, RejectsPositionalArgument) {
    for (const char* bad : {"lot.json", "-n", "--", "-"}) {
        sample_flags flags;
        expect_rejected(flags.table, {bad}, bad);
    }
}

TEST(Cli, MissingRequiredFlagThrows) {
    std::string manifest;
    std::string out;
    flag_table flags("sample");
    flags.add("manifest", manifest, "lot manifest", flag_use::required)
        .add("out", out, "output store", flag_use::required);
    expect_rejected(flags, {"--manifest=lot.json"}, "--out");
}

TEST(Cli, IgnoredSwitchIsAcceptedBareOnly) {
    sample_flags flags;
    flags.table.ignore("dispatch", "a host main's sentinel");
    ASSERT_TRUE(flags.parse({"--dispatch", "--n=4"}));
    EXPECT_EQ(flags.n, 4u);
    EXPECT_TRUE(flags.table.given("dispatch"));

    sample_flags valued;
    valued.table.ignore("dispatch", "a host main's sentinel");
    expect_rejected(valued.table, {"--dispatch=1"}, "--dispatch");
}

TEST(Cli, HelpListsEveryFlagAndLeavesTargetsUntouched) {
    std::string manifest;
    sample_flags flags;
    flags.table.add("manifest", manifest, "lot manifest", flag_use::required)
        .ignore("dispatch", "a host main's sentinel");
    std::ostringstream help;
    // --help wins over everything else on the line, even a bad value or a
    // missing required flag, and assigns nothing.
    argv_fixture args({"--n=7", "--help", "--x=abc", "--sw"});
    EXPECT_FALSE(flags.table.parse(args.argc(), args.argv(), help));
    EXPECT_EQ(flags.n, 1u);
    EXPECT_EQ(flags.x, 0.5);
    EXPECT_EQ(flags.path, "/tmp/default.sock");
    EXPECT_FALSE(flags.sw);
    EXPECT_EQ(help.str(), flags.table.usage());
    for (const char* name : {"--n=N", "--x=X", "--path=TEXT", "--sw", "--manifest=TEXT",
                             "--dispatch", "--help"}) {
        EXPECT_NE(help.str().find(name), std::string::npos) << name << "\n" << help.str();
    }
    EXPECT_NE(help.str().find("usage: sample --manifest=TEXT"), std::string::npos);
    EXPECT_NE(help.str().find("(default /tmp/default.sock)"), std::string::npos);
}

} // namespace
