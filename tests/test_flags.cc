/** @file Unit tests for the command-line flag parser (common/flags.hh)
 * that every tool and bench parses its arguments with: the BenchArgs
 * suite checks the flags benches register, the FlagParser suite the
 * parser's rules on any flag. */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "common/flags.hh"

using twig::common::FlagParser;

namespace {

FlagParser::Result
parseLine(const FlagParser &parser, std::vector<std::string> argv)
{
    argv.insert(argv.begin(), "prog");
    std::vector<char *> raw;
    for (auto &arg : argv)
        raw.push_back(arg.data());
    return parser.parse(static_cast<int>(raw.size()), raw.data());
}

/** Destinations of a bench-like flag set, at their defaults: the
 * bench_util.hh run and jobs flags, fig12's --domains and fig_serve's
 * serve flags, plus flags of other kinds and bounds. */
struct Flags
{
    bool full = false;
    std::uint64_t seed = 42;
    std::size_t jobs = 1;
    std::size_t domains = 0;
    std::string listen = "127.0.0.1";
    std::uint16_t port = 0; // 65535 bound from the type
    double durationS = 2.0;
    std::size_t connections = 8;
    std::vector<std::string> services;
    double load = 0.5;
    double costPerNodeHour = 0.0;
    double share = 100.0;
    std::size_t autoscaleMin = 0;
    std::size_t autoscaleMax = 0;

    FlagParser
    parser()
    {
        FlagParser p;
        twig::bench::addRunFlags(p, &full, &seed);
        twig::bench::addJobsFlag(p, &jobs);
        p.addCount("--domains", &domains, "routing domains", 1);
        p.addString("--listen", &listen, "bind address");
        p.addCount("--port", &port, "TCP port");
        p.addPositive("--duration-s", &durationS, "wall time");
        p.addCount("--connections", &connections, "connections", 1);
        p.addStringList("--service", &services, "catalogue service");
        p.addDouble("--load", &load, "load fraction", 0.0);
        p.addDouble("--cost-per-node-hour", &costPerNodeHour,
                    "hourly rate", 0.0);
        p.addPositive("--profile-max-share", &share, "budget", 100.0);
        p.addCountRange("--autoscale", &autoscaleMin, &autoscaleMax,
                        "elastic bounds");
        return p;
    }

    FlagParser::Result
    parse(std::vector<std::string> argv)
    {
        return parseLine(parser(), std::move(argv));
    }
};

bool
accepts(std::vector<std::string> argv)
{
    return Flags{}.parse(std::move(argv)).ok();
}

} // namespace

TEST(BenchArgs, Defaults)
{
    Flags f;
    const auto res = f.parse({});
    ASSERT_TRUE(res.ok());
    EXPECT_TRUE(res.given.empty());
    EXPECT_FALSE(f.full);
    EXPECT_EQ(f.seed, 42u);
    EXPECT_EQ(f.jobs, 1u);
}

TEST(BenchArgs, ParsesKnownFlags)
{
    Flags f;
    const auto res = f.parse({"--full", "--seed", "7", "--jobs", "3"});
    ASSERT_TRUE(res.ok());
    EXPECT_TRUE(f.full);
    EXPECT_EQ(f.seed, 7u);
    EXPECT_EQ(f.jobs, 3u);
    EXPECT_TRUE(res.has("--full"));
    EXPECT_FALSE(res.has("--load"));
}

TEST(BenchArgs, RejectsZeroJobs)
{
    Flags f;
    const auto res = f.parse({"--jobs", "0"});
    EXPECT_FALSE(res.ok());
    EXPECT_NE(res.error.find("--jobs"), std::string::npos);
    EXPECT_EQ(f.jobs, 1u); // untouched on error
}

TEST(BenchArgs, RejectsUnknownFlagsAndMissingValues)
{
    const auto unknown = Flags{}.parse({"--bogus"});
    EXPECT_FALSE(unknown.ok());
    EXPECT_NE(unknown.error.find("--bogus"), std::string::npos);

    EXPECT_FALSE(accepts({"--seed"}));
    EXPECT_FALSE(accepts({"--jobs"}));
}

TEST(BenchArgs, ParsesDomains)
{
    // 0 means "bench default" and only arises by omission.
    Flags f;
    ASSERT_TRUE(f.parse({}).ok());
    EXPECT_EQ(f.domains, 0u);
    ASSERT_TRUE(f.parse({"--domains", "8"}).ok());
    EXPECT_EQ(f.domains, 8u);
}

TEST(BenchArgs, RejectsBadDomains)
{
    const auto zero = Flags{}.parse({"--domains", "0"});
    EXPECT_FALSE(zero.ok());
    EXPECT_NE(zero.error.find("--domains"), std::string::npos);
    EXPECT_FALSE(accepts({"--domains", "-3"}));
    EXPECT_FALSE(accepts({"--domains", "2x"}));
    EXPECT_FALSE(accepts({"--domains"}));
}

TEST(BenchArgs, ExtraValueFlagsAreAllowlisted)
{
    // Only registered flags parse: a bench without --out rejects it.
    EXPECT_FALSE(accepts({"--out", "x.json"}));

    std::string out;
    std::uint64_t seed = 42;
    bool full = false;
    FlagParser p;
    twig::bench::addRunFlags(p, &full, &seed);
    p.addString("--out", &out, "JSON path");
    ASSERT_TRUE(parseLine(p, {"--out", "x.json", "--seed", "5"}).ok());
    EXPECT_EQ(out, "x.json");
    EXPECT_EQ(seed, 5u);

    EXPECT_FALSE(parseLine(p, {"--out"}).ok());
}

TEST(BenchArgs, ServeFlagDefaults)
{
    Flags f;
    ASSERT_TRUE(f.parse({}).ok());
    EXPECT_EQ(f.listen, "127.0.0.1");
    EXPECT_EQ(f.port, 0u);
    EXPECT_DOUBLE_EQ(f.durationS, 2.0);
    EXPECT_EQ(f.connections, 8u);
}

TEST(BenchArgs, ParsesServeFlags)
{
    Flags f;
    const auto res = f.parse({"--listen", "0.0.0.0", "--port", "7411",
                              "--duration-s", "3.5", "--connections",
                              "16"});
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(f.listen, "0.0.0.0");
    EXPECT_EQ(f.port, 7411u);
    EXPECT_DOUBLE_EQ(f.durationS, 3.5);
    EXPECT_EQ(f.connections, 16u);
}

TEST(BenchArgs, PortZeroMeansEphemeral)
{
    Flags f;
    f.port = 7411;
    ASSERT_TRUE(f.parse({"--port", "0"}).ok());
    EXPECT_EQ(f.port, 0u);
}

TEST(BenchArgs, RejectsOutOfRangePorts)
{
    Flags f;
    const auto res = f.parse({"--port", "65536"});
    EXPECT_FALSE(res.ok());
    EXPECT_NE(res.error.find("--port"), std::string::npos);
    EXPECT_EQ(f.port, 0u); // untouched on error
    EXPECT_FALSE(accepts({"--port", "99999999"}));
    EXPECT_FALSE(accepts({"--port", "-1"}));
    EXPECT_FALSE(accepts({"--port", "http"}));
    EXPECT_TRUE(accepts({"--port", "65535"}));
}

TEST(BenchArgs, RejectsNonPositiveDurations)
{
    for (const char *bad : {"0", "-1.5", "soon", "2s"}) {
        Flags f;
        const auto res = f.parse({"--duration-s", bad});
        EXPECT_FALSE(res.ok()) << bad;
        EXPECT_NE(res.error.find("--duration-s"), std::string::npos);
        EXPECT_DOUBLE_EQ(f.durationS, 2.0); // untouched on error
    }
    const auto missing = Flags{}.parse({"--duration-s"});
    EXPECT_FALSE(missing.ok());
    EXPECT_NE(missing.error.find("--duration-s"), std::string::npos);
}

TEST(BenchArgs, RejectsZeroConnectionsAndEmptyListen)
{
    const auto res = Flags{}.parse({"--connections", "0"});
    EXPECT_FALSE(res.ok());
    EXPECT_NE(res.error.find("--connections"), std::string::npos);
    const auto empty = Flags{}.parse({"--listen", ""});
    EXPECT_FALSE(empty.ok());
    EXPECT_NE(empty.error.find("--listen"), std::string::npos);
}

// No bench reads an hourly rate (node classes carry theirs in scenario
// files); these pin addDouble's inclusive lower bound on the rate flag
// a bench would register.
TEST(BenchArgs, ParsesCostPerNodeHour)
{
    Flags f;
    ASSERT_TRUE(f.parse({"--cost-per-node-hour", "1.25"}).ok());
    EXPECT_DOUBLE_EQ(f.costPerNodeHour, 1.25);
    // A free tier is a valid override.
    EXPECT_TRUE(accepts({"--cost-per-node-hour", "0"}));
}

TEST(BenchArgs, RejectsBadCostPerNodeHour)
{
    Flags f;
    const auto negative = f.parse({"--cost-per-node-hour", "-1"});
    EXPECT_FALSE(negative.ok());
    EXPECT_NE(negative.error.find("--cost-per-node-hour"),
              std::string::npos);
    EXPECT_DOUBLE_EQ(f.costPerNodeHour, 0.0); // untouched on error
    EXPECT_FALSE(accepts({"--cost-per-node-hour", "cheap"}));
    EXPECT_FALSE(accepts({"--cost-per-node-hour", "1.5x"}));
    EXPECT_FALSE(accepts({"--cost-per-node-hour"}));
}

TEST(FlagParser, RejectsNegativeGarbageAndOverflowingCounts)
{
    EXPECT_FALSE(accepts({"--jobs", "-2"}));
    EXPECT_FALSE(accepts({"--jobs", "+2"}));
    EXPECT_FALSE(accepts({"--seed", "-1"}));
    EXPECT_FALSE(accepts({"--seed", "abc"}));
    EXPECT_FALSE(accepts({"--jobs", "4x"}));
    EXPECT_FALSE(accepts({"--jobs", ""}));
    // Way beyond 2^64: must fail, not silently wrap.
    EXPECT_FALSE(accepts({"--seed", "99999999999999999999999"}));
    EXPECT_TRUE(accepts({"--seed", "18446744073709551615"}));
}

TEST(FlagParser, HelpIsNotAnError)
{
    Flags f;
    const auto help = f.parse({"--help"});
    EXPECT_TRUE(help.helpRequested);
    EXPECT_TRUE(help.error.empty());
    EXPECT_FALSE(help.ok()); // callers must not run
    EXPECT_TRUE(f.parse({"-h"}).helpRequested);
    // --help wins even after a value that would fail later.
    EXPECT_TRUE(f.parse({"--jobs", "2", "--help", "--bogus"})
                    .helpRequested);
}

TEST(FlagParser, BoundsDoubles)
{
    // (0, 100]: --profile-max-share.
    EXPECT_TRUE(accepts({"--profile-max-share", "100"}));
    EXPECT_FALSE(accepts({"--profile-max-share", "100.5"}));
    EXPECT_FALSE(accepts({"--profile-max-share", "0"}));
}

TEST(FlagParser, RejectsNonFiniteDoubles)
{
    for (const char *bad :
         {"nan", "NaN", "-nan", "inf", "-inf", "infinity", "1e999"}) {
        Flags f;
        const auto res = f.parse({"--load", bad});
        EXPECT_FALSE(res.ok()) << bad;
        EXPECT_NE(res.error.find("--load"), std::string::npos);
        EXPECT_DOUBLE_EQ(f.load, 0.5);
        EXPECT_FALSE(accepts({"--duration-s", bad})) << bad;
    }
}

TEST(FlagParser, RepeatableFlagsAppendInOrder)
{
    Flags f;
    const auto res = f.parse({"--service", "moses", "--jobs", "2",
                              "--service", "masstree"});
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(f.services,
              (std::vector<std::string>{"moses", "masstree"}));
    EXPECT_EQ(res.given, (std::vector<std::string>{
                             "--service", "--jobs", "--service"}));
    EXPECT_FALSE(accepts({"--service"}));
    // A repeated scalar flag keeps its last value.
    ASSERT_TRUE(f.parse({"--jobs", "2", "--jobs", "5"}).ok());
    EXPECT_EQ(f.jobs, 5u);
}

TEST(FlagParser, ParsesCountRanges)
{
    Flags f;
    ASSERT_TRUE(f.parse({"--autoscale", "2:6"}).ok());
    EXPECT_EQ(f.autoscaleMin, 2u);
    EXPECT_EQ(f.autoscaleMax, 6u);
    // MIN == MAX pins the fleet size but keeps the billing path.
    EXPECT_TRUE(accepts({"--autoscale", "4:4"}));
}

TEST(FlagParser, RejectsBadCountRanges)
{
    Flags f;
    const auto inverted = f.parse({"--autoscale", "6:2"});
    EXPECT_FALSE(inverted.ok());
    EXPECT_NE(inverted.error.find("--autoscale"), std::string::npos);
    EXPECT_EQ(f.autoscaleMin, 0u); // untouched on error
    EXPECT_EQ(f.autoscaleMax, 0u);
    for (const char *bad :
         {"0:4", "4", "2:6:8", "-2:6", "2:-6", "two:six", ":", "2:"})
        EXPECT_FALSE(accepts({"--autoscale", bad})) << bad;
    EXPECT_FALSE(accepts({"--autoscale"}));
}
