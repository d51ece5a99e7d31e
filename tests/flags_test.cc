// Black-box flag validation of the run_experiment CLI: every rejected
// configuration must exit non-zero with a message naming the offending
// flag, before paying for dataset generation. The server and worker roles
// share the flag table and are parsed in-process.

#include <sys/wait.h>

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "eval/cli.h"

namespace {

struct CliResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr
};

CliResult RunCli(const std::string& args) {
  CliResult result;
  const std::string cmd =
      std::string(RUN_EXPERIMENT_BINARY) + " " + args + " 2>&1";
  std::FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return result;
  char buf[512];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) {
    result.output += buf;
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

void ExpectRejected(const std::string& args, const std::string& needle) {
  const CliResult result = RunCli(args);
  EXPECT_EQ(result.exit_code, 1) << args << "\n" << result.output;
  EXPECT_NE(result.output.find(needle), std::string::npos)
      << args << " printed:\n"
      << result.output;
}

// The server and worker binaries would block on sockets, so their roles
// are parsed in-process.
fedgta::Result<fedgta::cli::ExperimentCli> Parse(
    fedgta::cli::Role role, std::vector<std::string> args) {
  std::string prog = "flags_test_binary";
  std::vector<char*> argv = {prog.data()};
  for (std::string& arg : args) argv.push_back(arg.data());
  return fedgta::cli::ParseAndValidate(role, static_cast<int>(argv.size()),
                                       argv.data());
}

/// `args` in the server role must fail with a message containing `needle`.
void ExpectServerRejects(std::vector<std::string> args,
                         const std::string& needle) {
  const fedgta::Result<fedgta::cli::ExperimentCli> cli =
      Parse(fedgta::cli::Role::kServer, args);
  ASSERT_FALSE(cli.ok());
  EXPECT_EQ(cli.status().code(), fedgta::StatusCode::kInvalidArgument);
  EXPECT_NE(cli.status().ToString().find(needle), std::string::npos)
      << cli.status();
}

TEST(FlagsTest, HelpExitsZeroAndListsFlags) {
  const CliResult result = RunCli("--help");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("--strategy"), std::string::npos);
  EXPECT_NE(result.output.find("--num_threads"), std::string::npos);
  EXPECT_NE(result.output.find("--backend"), std::string::npos);
}

TEST(FlagsTest, UnknownBackendIsRejected) {
  ExpectRejected("--backend=cuda", "unknown backend: cuda");
}

TEST(FlagsTest, ExplicitZeroOrNegativeNumThreadsIsRejected) {
  ExpectRejected("--num_threads=0", "--num_threads must be >= 1");
  ExpectRejected("--num_threads=-2", "--num_threads must be >= 1");
}

TEST(FlagsTest, UnknownStrategyIsRejected) {
  ExpectRejected("--strategy=bogus", "unknown strategy: bogus");
}

TEST(FlagsTest, UnknownSimilarityModeIsRejected) {
  ExpectRejected("--similarity_mode=cosine",
                 "--similarity_mode must be exact, auto, or lsh");
}

TEST(FlagsTest, UnknownDatasetIsRejected) {
  ExpectRejected("--dataset=imagenet", "unknown dataset: imagenet");
}

TEST(FlagsTest, UnknownModelIsRejected) {
  ExpectRejected("--model=transformer", "transformer");
}

TEST(FlagsTest, ResumeWithoutCheckpointDirIsRejected) {
  ExpectRejected("--resume", "--resume requires --checkpoint_dir");
}

TEST(FlagsTest, NonPositiveRoundShapeIsRejected) {
  ExpectRejected("--clients=0", "--clients must be >= 1");
  ExpectRejected("--rounds=-3", "--rounds must be >= 1");
  ExpectRejected("--epochs=0", "--epochs must be >= 1");
  ExpectRejected("--repeats=0", "--repeats must be >= 1");
  ExpectRejected("--batch=-1", "--batch must be >= 0");
}

TEST(FlagsTest, ParticipationOutsideUnitIntervalIsRejected) {
  ExpectRejected("--participation=0", "--participation must be in (0, 1]");
  ExpectRejected("--participation=1.5", "--participation must be in (0, 1]");
}

TEST(FlagsTest, InvalidFailureRatesAreRejected) {
  ExpectRejected("--fail_dropout=0.7 --fail_crash=0.7",
                 "failure rates must be >= 0 and sum to at most 1");
  ExpectRejected("--fail_straggler=-0.1",
                 "failure rates must be >= 0 and sum to at most 1");
}

TEST(FlagsTest, UnknownFlagIsRejected) {
  ExpectRejected("--bogus=1", "unknown flag: --bogus=1");
}

TEST(FlagsTest, HelpListsAsyncFlags) {
  const CliResult result = RunCli("--help");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("--async"), std::string::npos);
  EXPECT_NE(result.output.find("--staleness_tau"), std::string::npos);
  EXPECT_NE(result.output.find("--staleness_decay"), std::string::npos);
}

TEST(FlagsTest, StalenessKnobsWithoutAsyncAreRejected) {
  ExpectRejected("--staleness_tau=2",
                 "--staleness_tau/--staleness_decay require --async");
  ExpectRejected("--staleness_decay=0.5",
                 "--staleness_tau/--staleness_decay require --async");
}

TEST(FlagsTest, AsyncStalenessBoundsAreRejected) {
  ExpectRejected("--async --staleness_tau=-1",
                 "--staleness_tau must be >= 0");
  ExpectRejected("--async --staleness_decay=0",
                 "--staleness_decay must be in (0, 1]");
  ExpectRejected("--async --staleness_decay=1.5",
                 "--staleness_decay must be in (0, 1]");
}

TEST(FlagsTest, AsyncWithCheckpointingIsRejected) {
  ExpectRejected("--async --checkpoint_dir=/tmp/fedgta_flags_test_ckpt",
                 "--async does not support checkpointing");
  ExpectRejected("--async --halt_after_round=2",
                 "--async does not support checkpointing");
}

TEST(FlagsTest, AsyncWithRoundAlignedStrategyIsRejected) {
  ExpectRejected("--async --strategy=scaffold",
                 "--async requires an async-capable strategy; 'scaffold'");
}

TEST(FlagsTest, HelpListsCompressFlags) {
  // Only the server assigns a codec, so only its help lists the flags.
  const std::string server = fedgta::cli::HelpText(fedgta::cli::Role::kServer);
  EXPECT_NE(server.find("--compress=MODE"), std::string::npos);
  EXPECT_NE(server.find("raw | int8 | delta"), std::string::npos);
  EXPECT_NE(server.find("--compress_topk"), std::string::npos);
  for (fedgta::cli::Role role :
       {fedgta::cli::Role::kRunExperiment, fedgta::cli::Role::kWorker}) {
    EXPECT_EQ(fedgta::cli::HelpText(role).find("--compress="),
              std::string::npos);
  }
}

TEST(FlagsTest, UnknownCompressCodecIsRejected) {
  ExpectServerRejects({"--compress=gzip"},
                      "--compress must be one of: raw int8 delta");
}

TEST(FlagsTest, CompressTopkWithoutDeltaIsRejected) {
  ExpectServerRejects({"--compress_topk=4"},
                      "--compress_topk requires --compress=delta");
  ExpectServerRejects({"--compress=int8", "--compress_topk=4"},
                      "--compress_topk requires --compress=delta");
}

TEST(FlagsTest, CompressTopkOutOfRangeIsRejected) {
  ExpectServerRejects({"--compress=delta", "--compress_topk=0"},
                      "--compress_topk must be >= 1");
  ExpectServerRejects({"--compress=delta", "--compress_topk=-3"},
                      "--compress_topk must be >= 1");
}

TEST(RoleFlagsTest, ServerAcceptsAndPlumbsCompressFlags) {
  fedgta::Result<fedgta::cli::ExperimentCli> cli =
      Parse(fedgta::cli::Role::kServer,
            {"--compress=delta", "--compress_topk=64"});
  ASSERT_TRUE(cli.ok()) << cli.status();
  const fedgta::RemoteFedConfig config = cli->ToRemoteConfig();
  EXPECT_EQ(config.compress, "delta");
  EXPECT_EQ(config.compress_topk, 64);
}

TEST(RoleFlagsTest, ServerRejectsBadCompressValues) {
  // "off" was a second spelling of raw and fp16 a retired codec; both are
  // now unknown names. Unknown codecs and bad top-k values in general are
  // the FlagsTest.*Compress* cases above.
  for (const char* bad : {"--compress=off", "--compress=fp16"}) {
    SCOPED_TRACE(bad);
    ExpectServerRejects({bad}, "--compress must be one of: raw int8 delta");
  }
  // Absent, the server ships raw.
  fedgta::Result<fedgta::cli::ExperimentCli> dflt =
      Parse(fedgta::cli::Role::kServer, {});
  ASSERT_TRUE(dflt.ok()) << dflt.status();
  EXPECT_EQ(dflt->ToRemoteConfig().compress, "raw");
}

TEST(RoleFlagsTest, CompressFlagsAreServerOnly) {
  // The worker takes the server's AssignConfig codec, and run_experiment
  // has no wire, so both reject the flags as unknown.
  for (const char* flag : {"--compress=delta", "--compress_topk=2"}) {
    SCOPED_TRACE(flag);
    const std::string needle = std::string("unknown flag: ") + flag;
    const fedgta::Result<fedgta::cli::ExperimentCli> worker =
        Parse(fedgta::cli::Role::kWorker, {flag});
    ASSERT_FALSE(worker.ok());
    EXPECT_NE(worker.status().ToString().find(needle), std::string::npos)
        << worker.status();
    ExpectRejected(flag, needle);
  }
}

TEST(RoleFlagsTest, BackendIsTheServersChoice) {
  // Workers and aggregators run the backend the server ships in its
  // config, so neither takes the flag or lists it in its help.
  for (fedgta::cli::Role role :
       {fedgta::cli::Role::kWorker, fedgta::cli::Role::kAggregator}) {
    const fedgta::Result<fedgta::cli::ExperimentCli> cli =
        Parse(role, {"--backend=simd"});
    ASSERT_FALSE(cli.ok());
    EXPECT_NE(cli.status().ToString().find("unknown flag: --backend=simd"),
              std::string::npos)
        << cli.status();
    EXPECT_EQ(fedgta::cli::HelpText(role).find("--backend="),
              std::string::npos);
  }
  const fedgta::Result<fedgta::cli::ExperimentCli> server =
      Parse(fedgta::cli::Role::kServer, {"--backend=reference"});
  ASSERT_TRUE(server.ok()) << server.status();
  EXPECT_EQ(server->backend, "reference");
}

}  // namespace
