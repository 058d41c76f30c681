#include "util/cli.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "obs/output.h"

namespace mdmesh {
namespace {

Cli MakeCli() {
  Cli cli("prog", "test program");
  cli.AddInt("n", 8, "side length");
  cli.AddString("algo", "simple", "algorithm");
  cli.AddBool("verbose", false, "chatty output");
  return cli;
}

TEST(CliTest, Defaults) {
  Cli cli = MakeCli();
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.Parse(1, argv));
  EXPECT_EQ(cli.GetInt("n"), 8);
  EXPECT_EQ(cli.GetString("algo"), "simple");
  EXPECT_FALSE(cli.GetBool("verbose"));
}

TEST(CliTest, EqualsSyntax) {
  Cli cli = MakeCli();
  const char* argv[] = {"prog", "--n=32", "--algo=copy", "--verbose=1"};
  ASSERT_TRUE(cli.Parse(4, argv));
  EXPECT_EQ(cli.GetInt("n"), 32);
  EXPECT_EQ(cli.GetString("algo"), "copy");
  EXPECT_TRUE(cli.GetBool("verbose"));
}

TEST(CliTest, SpaceSyntax) {
  Cli cli = MakeCli();
  const char* argv[] = {"prog", "--n", "64", "--algo", "torus"};
  ASSERT_TRUE(cli.Parse(5, argv));
  EXPECT_EQ(cli.GetInt("n"), 64);
  EXPECT_EQ(cli.GetString("algo"), "torus");
}

TEST(CliTest, BareBoolFlag) {
  Cli cli = MakeCli();
  const char* argv[] = {"prog", "--verbose"};
  ASSERT_TRUE(cli.Parse(2, argv));
  EXPECT_TRUE(cli.GetBool("verbose"));
}

TEST(CliTest, UnknownFlagFails) {
  Cli cli = MakeCli();
  const char* argv[] = {"prog", "--bogus=1"};
  EXPECT_FALSE(cli.Parse(2, argv));
}

TEST(CliTest, MissingValueFails) {
  Cli cli = MakeCli();
  const char* argv[] = {"prog", "--n"};
  EXPECT_FALSE(cli.Parse(2, argv));
}

TEST(CliTest, HelpReturnsFalse) {
  Cli cli = MakeCli();
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(cli.Parse(2, argv));
}

TEST(CliTest, PositionalArgumentRejected) {
  Cli cli = MakeCli();
  const char* argv[] = {"prog", "stray"};
  EXPECT_FALSE(cli.Parse(2, argv));
}

TEST(CliTest, WrongTypeAccessThrows) {
  Cli cli = MakeCli();
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.Parse(1, argv));
  EXPECT_THROW(cli.GetInt("algo"), std::logic_error);
  EXPECT_THROW(cli.GetString("n"), std::logic_error);
}

TEST(CliTest, DashedRegistrationIsNormalized) {
  // Registering "--json" and reading back "json" (or vice versa) must refer
  // to the same flag — the registrar shouldn't care about the dash prefix.
  Cli cli("prog", "test program");
  cli.AddString("--json", "", "output path");
  cli.AddBool("--quick", false, "smallest config");
  const char* argv[] = {"prog", "--json=out.json", "--quick"};
  ASSERT_TRUE(cli.Parse(3, argv));
  EXPECT_EQ(cli.GetString("json"), "out.json");
  EXPECT_EQ(cli.GetString("--json"), "out.json");
  EXPECT_TRUE(cli.GetBool("quick"));
}

TEST(CliTest, IntFlagRejectsNonNumericValue) {
  Cli cli = MakeCli();
  const char* argv[] = {"prog", "--n=abc"};
  ::testing::internal::CaptureStderr();
  EXPECT_FALSE(cli.Parse(2, argv));
  const std::string err = ::testing::internal::GetCapturedStderr();
  // The message names the flag and the bad value, then prints the usage.
  EXPECT_NE(err.find("'--n'"), std::string::npos) << err;
  EXPECT_NE(err.find("'abc'"), std::string::npos) << err;
  EXPECT_NE(err.find("flags:"), std::string::npos) << err;
}

TEST(CliTest, IntFlagRejectsTrailingCharacters) {
  for (const char* arg : {"--n=3x", "--n=3 ", "--n=1.5", "--n=0x10"}) {
    Cli cli = MakeCli();
    const char* argv[] = {"prog", arg};
    EXPECT_FALSE(cli.Parse(2, argv)) << arg;
  }
}

TEST(CliTest, IntFlagRejectsEmptyValue) {
  Cli cli = MakeCli();
  const char* argv[] = {"prog", "--n="};
  EXPECT_FALSE(cli.Parse(2, argv));
}

TEST(CliTest, IntFlagRejectsOutOfRangeValue) {
  for (const char* arg :
       {"--n=9223372036854775808", "--n=-9223372036854775809"}) {
    Cli cli = MakeCli();
    const char* argv[] = {"prog", arg};
    EXPECT_FALSE(cli.Parse(2, argv)) << arg;
  }
  // The int64 extremes themselves are values like any other.
  Cli cli = MakeCli();
  const char* argv[] = {"prog", "--n=-9223372036854775808"};
  ASSERT_TRUE(cli.Parse(2, argv));
  EXPECT_EQ(cli.GetInt("n"), std::numeric_limits<std::int64_t>::min());
}

TEST(CliTest, IntFlagRejectsMalformedSpaceFormValue) {
  Cli cli = MakeCli();
  const char* argv[] = {"prog", "--n", "abc"};
  EXPECT_FALSE(cli.Parse(3, argv));
}

TEST(CliTest, BoolFlagAcceptsOnlyTheSixSpellings) {
  for (const auto& [text, want] :
       {std::pair<const char*, bool>{"1", true}, {"true", true},
        {"yes", true}, {"0", false}, {"false", false}, {"no", false}}) {
    Cli cli = MakeCli();
    const std::string arg = std::string("--verbose=") + text;
    const char* argv[] = {"prog", arg.c_str()};
    ASSERT_TRUE(cli.Parse(2, argv)) << arg;
    EXPECT_EQ(cli.GetBool("verbose"), want) << arg;
  }
  for (const char* arg :
       {"--verbose=maybe", "--verbose=2", "--verbose=on", "--verbose=",
        "--verbose=TRUE"}) {
    Cli cli = MakeCli();
    const char* argv[] = {"prog", arg};
    EXPECT_FALSE(cli.Parse(2, argv)) << arg;
  }
}

// Parses `args` through a Cli carrying exactly the shared output flags, as
// every bench and flag-taking example does.
OutputFlags ParseOutputArgs(const std::vector<std::string>& args) {
  Cli cli("prog", "test program");
  AddOutputFlags(cli);
  std::vector<const char*> argv = {"prog"};
  for (const std::string& a : args) argv.push_back(a.c_str());
  EXPECT_TRUE(cli.Parse(static_cast<int>(argv.size()), argv.data()));
  return GetOutputFlags(cli);
}

TEST(OutputFlagsTest, RegisteredFlagsRoundTripThroughCli) {
  Cli cli("prog", "test program");
  AddOutputFlags(cli);
  const char* argv[] = {"prog", "--json=a.jsonl", "--trace-csv=b.csv",
                        "--perfetto=c.json", "--quick"};
  ASSERT_TRUE(cli.Parse(5, argv));
  OutputFlags flags = GetOutputFlags(cli);
  EXPECT_EQ(flags.json, "a.jsonl");
  EXPECT_EQ(flags.trace_csv, "b.csv");
  EXPECT_EQ(flags.perfetto, "c.json");
  EXPECT_TRUE(flags.WantsPerfetto());
  EXPECT_TRUE(flags.quick);
}

TEST(OutputFlagsTest, EveryValueFlagAcceptsEqualsAndSpaceForms) {
  // Every value flag AddOutputFlags registers; both accepted forms must
  // behave identically for each of them.
  const std::pair<const char*, std::string OutputFlags::*> string_flags[] = {
      {"--json", &OutputFlags::json},
      {"--trace-csv", &OutputFlags::trace_csv},
      {"--perfetto", &OutputFlags::perfetto},
      {"--status-file", &OutputFlags::status_file},
      {"--flight-recorder", &OutputFlags::flight_recorder},
      {"--checkpoint", &OutputFlags::checkpoint},
      {"--journeys", &OutputFlags::journeys},
      {"--journey-watch", &OutputFlags::journey_watch},
  };
  for (const auto& [flag, member] : string_flags) {
    const std::string eq = std::string(flag) + "=out.path";
    EXPECT_EQ(ParseOutputArgs({eq}).*member, "out.path")
        << flag << " (equals form)";
    EXPECT_EQ(ParseOutputArgs({flag, "out.path"}).*member, "out.path")
        << flag << " (space form)";
  }
  const std::pair<const char*, std::int64_t OutputFlags::*> int_flags[] = {
      {"--metrics-port", &OutputFlags::metrics_port},
      {"--checkpoint-every", &OutputFlags::checkpoint_every},
      {"--checkpoint-keep", &OutputFlags::checkpoint_keep},
      {"--journey-rate-pm", &OutputFlags::journey_rate_pm},
      {"--journey-seed", &OutputFlags::journey_seed},
  };
  for (const auto& [flag, member] : int_flags) {
    const std::string eq = std::string(flag) + "=42";
    EXPECT_EQ(ParseOutputArgs({eq}).*member, 42) << flag << " (equals form)";
    EXPECT_EQ(ParseOutputArgs({flag, "42"}).*member, 42)
        << flag << " (space form)";
  }
}

TEST(OutputFlagsTest, TrailingValueFlagFailsParse) {
  Cli cli("prog", "test program");
  AddOutputFlags(cli);
  const char* argv[] = {"prog", "--perfetto"};
  EXPECT_FALSE(cli.Parse(2, argv));
}

}  // namespace
}  // namespace mdmesh
