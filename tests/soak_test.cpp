// In-process soak harness tests (src/gen/soak.h): the batch, chain and
// serve-under-chaos legs run end to end on a small generated corpus with
// every invariant green, the deterministic report serializes
// byte-identically across two same-seed runs, and the gen_seed request
// field survives the serve wire format. The worker/daemon legs need the
// built CLI binary and are exercised by `octopocs soak` in CI instead;
// only the daemon leg's start-up failure path is covered here.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <string>

#include "core/server.h"
#include "gen/generator.h"
#include "gen/soak.h"

namespace octopocs {
namespace {

std::string MakeWorkdir() {
  char tmpl[] = "/tmp/octo-soak-test-XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  return dir == nullptr ? std::string() : std::string(dir);
}

gen::SoakOptions InProcessOptions(std::uint64_t seed, int pairs) {
  gen::SoakOptions o;
  o.seed = seed;
  o.pairs = pairs;
  o.jobs = 2;
  o.chaos = true;
  o.workdir = MakeWorkdir();
  // The worker and daemon legs need the CLI binary; everything the unit
  // test proves runs in-process.
  o.run_isolated = false;
  o.run_resume = false;
  o.run_rlimit = false;
  o.run_daemon = false;
  return o;
}

TEST(SoakTest, InProcessLegsHoldEveryInvariant) {
  core::SetGenPairLoader(&gen::LoadGeneratedPair);
  const gen::SoakOptions o = InProcessOptions(7, 16);
  ASSERT_FALSE(o.workdir.empty());
  const gen::SoakReport report = gen::RunSoak(o);
  for (const std::string& v : report.violations) ADD_FAILURE() << v;
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.legs_run, 3);  // batch, chain, serve
  EXPECT_EQ(report.label_matches, 16);
  EXPECT_GE(report.chains_verified, 1);
  EXPECT_EQ(static_cast<int>(report.canonical.size()), 16);
  // The chaos schedule really armed faults while the daemon served.
  EXPECT_GT(report.chaos_faults_armed, 0);
}

TEST(SoakTest, SameSeedReportsSerializeIdentically) {
  core::SetGenPairLoader(&gen::LoadGeneratedPair);
  const gen::SoakReport a = gen::RunSoak(InProcessOptions(11, 12));
  const gen::SoakReport b = gen::RunSoak(InProcessOptions(11, 12));
  EXPECT_TRUE(a.ok());
  EXPECT_TRUE(b.ok());
  // Chaos timing differs between the runs; the serialized report must
  // not — it carries only the deterministic half.
  EXPECT_EQ(gen::SerializeSoakReport(a), gen::SerializeSoakReport(b));
}

TEST(SoakTest, DisabledLegsAreReportedSkippedNotSilentlyDropped) {
  gen::SoakOptions o;
  o.seed = 3;
  o.pairs = 2;
  o.chaos = false;
  o.run_batch = false;
  o.run_chain = false;
  o.run_isolated = false;
  o.run_resume = false;
  o.run_rlimit = false;
  o.run_serve = false;
  o.run_daemon = false;
  const gen::SoakReport report = gen::RunSoak(o);
  EXPECT_EQ(report.legs_run, 0);
  EXPECT_EQ(report.skipped_legs.size(), 7u);
  EXPECT_TRUE(report.ok());
}

TEST(SoakTest, DaemonThatExitsAtOnceIsReportedWithoutWaiting) {
  // A worker binary that cannot be executed exits (status 127) before it
  // could listen. The readiness wait must notice the dead child at once
  // rather than poll for the socket until its 10 s timeout.
  gen::SoakOptions o = InProcessOptions(5, 2);
  ASSERT_FALSE(o.workdir.empty());
  o.chaos = false;
  o.run_batch = false;
  o.run_chain = false;
  o.run_serve = false;
  o.run_daemon = true;
  o.worker_binary = o.workdir + "/no-such-octopocs";
  const auto start = std::chrono::steady_clock::now();
  const gen::SoakReport report = gen::RunSoak(o);
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0],
            "daemon: exited (status 127) before listening");
  EXPECT_LT(seconds, 1.0);
}

TEST(SoakTest, GenSeedSurvivesServeWireFormat) {
  core::ServeRequest request;
  request.pair = gen::kGenBase + 3;
  request.gen_seed = 42;
  request.fuzz_fallback = true;
  const std::string json = core::SerializeServeRequest(request);
  core::ServeRequest parsed;
  std::string error;
  ASSERT_TRUE(core::ParseServeRequest(json, &parsed, &error)) << error;
  EXPECT_EQ(parsed.pair, gen::kGenBase + 3);
  EXPECT_EQ(parsed.gen_seed, 42u);
  EXPECT_TRUE(parsed.fuzz_fallback);
  // gen_seed is opt-in on the wire: a stock request stays byte-identical
  // to the pre-gen protocol.
  core::ServeRequest stock;
  stock.pair = 8;
  EXPECT_EQ(core::SerializeServeRequest(stock).find("gen_seed"),
            std::string::npos);
}

}  // namespace
}  // namespace octopocs
