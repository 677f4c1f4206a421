/// End-to-end tests of the skyprob CLI binary: each invocation is a real
/// process; stdout is captured through a temp file. The binary path is
/// injected by CMake as SKYPROB_PATH.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include <unistd.h>

#include "src/io/csv.h"

namespace skypref {
namespace {

struct CommandResult {
  int exit_code;
  std::string output;
};

// ctest runs each test case as its own concurrent process, so every temp
// path must be unique per process (and per call within one).
std::string UniqueTempPath(const std::string& stem, const std::string& ext) {
  static std::atomic<int> counter{0};
  return ::testing::TempDir() + "/" + stem + "_" + std::to_string(getpid()) +
         "_" + std::to_string(counter.fetch_add(1)) + ext;
}

CommandResult RunCli(const std::string& arguments) {
  std::string out_path = UniqueTempPath("skyprob_cli_out", ".txt");
  std::string command = std::string(SKYPROB_PATH) + " " + arguments + " > " +
                        out_path + " 2>&1";
  int raw = std::system(command.c_str());
  CommandResult result;
  result.exit_code = raw == -1 ? -1 : WEXITSTATUS(raw);
  auto contents = ReadFile(out_path);
  result.output = contents.ok() ? contents.value() : "";
  std::remove(out_path.c_str());
  return result;
}

std::string TempCsv() { return UniqueTempPath("skyprob_cli_data", ".csv"); }

TEST(CliTest, NoArgumentsPrintsUsageAndFails) {
  CommandResult result = RunCli("");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("usage:"), std::string::npos);
}

TEST(CliTest, UnknownCommandFails) {
  CommandResult result = RunCli("frobnicate");
  EXPECT_EQ(result.exit_code, 2);
}

TEST(CliTest, GenerateSolveInspectPipeline) {
  std::string path = TempCsv();
  CommandResult generate = RunCli(
      "generate --kind=blockzipf --objects=200 --dims=3 --out=" + path);
  ASSERT_EQ(generate.exit_code, 0) << generate.output;
  EXPECT_NE(generate.output.find("wrote 200 objects x 3 dims"),
            std::string::npos);

  CommandResult inspect = RunCli("inspect --data=" + path + " --target=5");
  EXPECT_EQ(inspect.exit_code, 0) << inspect.output;
  EXPECT_NE(inspect.output.find("200 objects x 3 dims"), std::string::npos);

  for (const char* algo : {"det+", "sam+", "sac", "adaptive", "bounds"}) {
    CommandResult solve =
        RunCli("solve --data=" + path + " --target=5 --algo=" + algo +
               " --pref-seed=3 --samples=500");
    EXPECT_EQ(solve.exit_code, 0) << algo << ": " << solve.output;
    EXPECT_NE(solve.output.find("sky(object 5)"), std::string::npos)
        << algo;
  }
  std::remove(path.c_str());
}

TEST(CliTest, BinaryDatasetRoundTrip) {
  std::string path = UniqueTempPath("skyprob_cli_data", ".skyd");
  CommandResult generate = RunCli(
      "generate --kind=uniform --objects=40 --dims=3 --out=" + path);
  ASSERT_EQ(generate.exit_code, 0) << generate.output;
  CommandResult solve =
      RunCli("solve --data=" + path + " --target=1 --algo=sam --samples=200");
  EXPECT_EQ(solve.exit_code, 0) << solve.output;
  std::remove(path.c_str());
}

TEST(CliTest, SkycubeAndTopK) {
  std::string path = TempCsv();
  ASSERT_EQ(
      RunCli("generate --kind=nursery --dims=3 --out=" + path).exit_code, 0);
  CommandResult cube =
      RunCli("skycube --data=" + path + " --target=7 --pref-seed=5");
  EXPECT_EQ(cube.exit_code, 0) << cube.output;
  EXPECT_NE(cube.output.find("7 cells"), std::string::npos);
  EXPECT_NE(cube.output.find("parents"), std::string::npos);

  CommandResult topk = RunCli("topk --data=" + path +
                              " --k=3 --method=sample --samples=2000");
  EXPECT_EQ(topk.exit_code, 0) << topk.output;
  EXPECT_NE(topk.output.find("top-3"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CliTest, SkylineThresholdQuery) {
  std::string path = TempCsv();
  ASSERT_EQ(RunCli("generate --kind=blockzipf --objects=100 --dims=2 "
                   "--block-size=5 --values=4 --out=" + path)
                .exit_code,
            0);
  CommandResult skyline =
      RunCli("skyline --data=" + path + " --tau=0.5 --method=sample "
             "--samples=1000 --pref-seed=2");
  EXPECT_EQ(skyline.exit_code, 0) << skyline.output;
  EXPECT_NE(skyline.output.find("probabilistic skyline"), std::string::npos);
  std::remove(path.c_str());
}

// Bad input is a failed call, not a crash: skyprob prints the Status on
// stderr and exits 1 (2 stays reserved for usage errors).
TEST(CliTest, MissingDataFileFailsGracefully) {
  const std::string csv = TempCsv();
  ASSERT_EQ(RunCli("generate --kind=uniform --objects=20 --dims=2 --out=" +
                   csv)
                .exit_code,
            0);
  const std::string short_row = TempCsv();
  ASSERT_TRUE(WriteFile(short_row, "a,b\n1,2\n3\n").ok());
  const std::string skyd = UniqueTempPath("skyprob_cli_data", ".skyd");
  ASSERT_EQ(RunCli("generate --kind=uniform --objects=20 --dims=2 --out=" +
                   skyd)
                .exit_code,
            0);
  auto bytes = ReadFile(skyd);
  ASSERT_TRUE(bytes.ok());
  ASSERT_TRUE(WriteFile(skyd, bytes->substr(0, bytes->size() / 2)).ok());

  struct Case {
    std::string arguments;
    std::string status;
  };
  const Case cases[] = {
      {"solve --data=/nonexistent/nope.csv --target=0",
       "IOError: cannot open for reading: /nonexistent/nope.csv"},
      {"solve --data=" + csv + " --target=999",
       "OutOfRange: target object out of range"},
      {"solve --data=" + short_row + " --target=0",
       "InvalidArgument: dataset CSV row 2 has 1 fields, expected 2"},
      {"solve --data=" + skyd + " --target=0",
       "InvalidArgument: truncated binary document"},
  };
  for (const Case& c : cases) {
    CommandResult result = RunCli(c.arguments);
    EXPECT_EQ(result.exit_code, 1) << c.arguments << ": " << result.output;
    EXPECT_NE(result.output.find("skyprob: " + c.status), std::string::npos)
        << c.arguments << ": " << result.output;
  }
  for (const std::string& path : {csv, short_row, skyd}) {
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace skypref
