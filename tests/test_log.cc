/**
 * @file
 * Tests for the logging helpers and strict flag parsing.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "common/flags.hh"
#include "common/log.hh"

namespace cash
{
namespace
{

TEST(Log, FatalThrowsWithMessage)
{
    try {
        fatal("bad config: %d > %d", 5, 3);
        FAIL() << "fatal() returned";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "bad config: 5 > 3");
    }
}

TEST(Log, StrFmt)
{
    EXPECT_EQ(strfmt("%s-%03d", "x", 7), "x-007");
    EXPECT_EQ(strfmt("no args"), "no args");
}

TEST(Log, LevelRoundTrip)
{
    LogLevel before = logLevel();
    setLogLevel(LogLevel::Silent);
    EXPECT_EQ(logLevel(), LogLevel::Silent);
    warn("this warning must be suppressed");
    inform("this info must be suppressed");
    setLogLevel(before);
}

TEST(Flags, AcceptOnlyAWholeNumberInRange)
{
    EXPECT_EQ(parseFlag<std::uint16_t>("--tcp", "8423"), 8423u);
    EXPECT_EQ(parseFlag<std::uint64_t>("--seed", "0"), 0u);
    EXPECT_EQ(parseFlag<std::uint64_t>("--seed",
                                       "18446744073709551615"),
              UINT64_MAX);
    EXPECT_EQ(parseFlag<int>("--ms", "-3"), -3);
    EXPECT_DOUBLE_EQ(parseFlag<double>("--frag", "1.5", 0.0), 1.5);
    EXPECT_DOUBLE_EQ(parseFlag<double>("--p", "1e-1", 0.0, 1.0), 0.1);
    EXPECT_EQ(parseFlag<unsigned>("--n", "7", 1, 7), 7u);

    for (const char *bad : {"", "abc", "12abc", " 12", "12 ", "+12",
                            "0x10", "-1", "18446744073709551616"})
        EXPECT_THROW(parseFlag<std::uint64_t>("--seed", bad),
                     FatalError)
            << "'" << bad << "'";
    EXPECT_THROW(parseFlag<std::uint16_t>("--tcp", "65536"),
                 FatalError);
    EXPECT_THROW(parseFlag<unsigned>("--n", "0", 1), FatalError);
    EXPECT_THROW(parseFlag<unsigned>("--n", "8", 1, 7), FatalError);
    EXPECT_DOUBLE_EQ(parseFlag<double>("--frag", ".5", 0.0), 0.5);
    EXPECT_DOUBLE_EQ(parseFlag<double>("--frag", "2e+1", 0.0), 20.0);
    for (const char *bad : {"", ".", "abc", "-0.5", "nan", "inf",
                            "-inf", "1.5x", " 1", "1 ", "+1", "0x10",
                            "0x1p3", "1e400", "1e-400"})
        EXPECT_THROW(parseFlag<double>("--frag", bad, 0.0), FatalError)
            << "'" << bad << "'";
    EXPECT_THROW(parseFlag<double>("--p", "1.01", 0.0, 1.0),
                 FatalError);
}

TEST(Flags, ErrorNamesTheFlagTheRangeAndTheText)
{
    try {
        parseFlag<std::uint32_t>("--shards", "abc", 1, 256);
        FAIL() << "parseFlag accepted 'abc'";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(),
                     "--shards needs a number in [1, 256], got 'abc'");
    }
    try {
        parseFlag<double>("--migrate-frag", "-1", 0.0);
        FAIL() << "parseFlag accepted '-1'";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(),
                     "--migrate-frag needs a number >= 0, got '-1'");
    }
}

TEST(LogDeath, PanicAborts)
{
    EXPECT_DEATH(panic("invariant %d violated", 9),
                 "invariant 9 violated");
}

} // namespace
} // namespace cash
