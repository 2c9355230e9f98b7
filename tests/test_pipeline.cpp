// Pipelined-execution equivalence suite.
//
// The with_pipeline(chunks) contract has two halves, both pinned here:
//   - chunks=1 replays the historical blocking schedule BITWISE: the binary
//     trace equals the committed golden byte for byte, and the ledger
//     summaries equal a blocking run's counter for counter;
//   - chunks>1 keeps the result matrix bitwise-identical and the word
//     volume exactly identical (message count scales with the chunk count),
//     records overlap intervals, and stays green under the BoundAuditor's
//     bound/model/trace-consistency checks.
//
// The last tests pin the nonblocking ledger-attribution rule: a
// posted-but-incomplete operation's sends land in the ledger at post time,
// under the posting phase — never in whatever snapshot window or phase is
// current when the handle completes.
#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/session.hpp"
#include "matrix/random.hpp"
#include "simmpi/comm.hpp"
#include "trace/audit.hpp"
#include "trace/export.hpp"

namespace parsyrk {
namespace {

struct PipelineConfig {
  const char* name;   // golden file stem (shared with test_trace_golden)
  int session_ranks;
  std::size_t n1, n2;
  std::uint64_t seed;
  void (*select)(core::SyrkRequest&);
};

// Prints the config by name. Without it gtest dumps the struct's raw bytes,
// which include the load address of `name`, so the discovered test names
// would change from build to build.
void PrintTo(const PipelineConfig& cfg, std::ostream* os) { *os << cfg.name; }

const PipelineConfig kConfigs[] = {
    {"trace_1d", 6, 24, 48, 11,
     [](core::SyrkRequest& r) { r.use_1d(); }},
    {"trace_2d", 6, 16, 8, 12,
     [](core::SyrkRequest& r) { r.use_2d(2); }},
    {"trace_3d", 12, 24, 24, 13,
     [](core::SyrkRequest& r) { r.use_3d(2, 2); }},
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// One traced run of the config's problem; chunks=0 runs blocking.
core::SyrkRun run_config(const PipelineConfig& cfg, const Matrix& a,
                         int chunks) {
  core::Session session(cfg.session_ranks);
  core::SyrkRequest req(a);
  cfg.select(req);
  req.with_trace();
  if (chunks > 0) req.with_pipeline(chunks);
  return core::syrk(session, req);
}

void expect_counters_eq(const comm::Counters& got, const comm::Counters& want,
                        const char* what) {
  EXPECT_EQ(got.words_sent, want.words_sent) << what;
  EXPECT_EQ(got.words_recv, want.words_recv) << what;
  EXPECT_EQ(got.msgs_sent, want.msgs_sent) << what;
  EXPECT_EQ(got.msgs_recv, want.msgs_recv) << what;
}

class Pipeline : public ::testing::TestWithParam<PipelineConfig> {};

TEST_P(Pipeline, ChunksOneTraceMatchesCommittedGolden) {
  const PipelineConfig& cfg = GetParam();
  Matrix a = random_matrix(cfg.n1, cfg.n2, cfg.seed);
  const core::SyrkRun run = run_config(cfg, a, /*chunks=*/1);
  ASSERT_TRUE(run.trace.has_value());
  EXPECT_TRUE(run.trace->overlaps.empty())
      << "chunks=1 must not record overlap intervals";
  const std::string golden =
      read_file(std::string(PARSYRK_GOLDEN_DIR) + "/" + cfg.name + ".bin");
  ASSERT_FALSE(golden.empty()) << "missing golden for " << cfg.name;
  EXPECT_EQ(trace::to_binary(*run.trace), golden)
      << cfg.name
      << ": with_pipeline(1) must replay the blocking schedule bitwise";
}

TEST_P(Pipeline, ChunksOneLedgerAndResultMatchBlocking) {
  const PipelineConfig& cfg = GetParam();
  Matrix a = random_matrix(cfg.n1, cfg.n2, cfg.seed);
  const core::SyrkRun blocking = run_config(cfg, a, /*chunks=*/0);
  const core::SyrkRun piped = run_config(cfg, a, /*chunks=*/1);
  EXPECT_TRUE(piped.c == blocking.c) << cfg.name;
  expect_counters_eq(piped.total.total, blocking.total.total, "total.total");
  expect_counters_eq(piped.total.max, blocking.total.max, "total.max");
  expect_counters_eq(piped.gather_a.total, blocking.gather_a.total,
                     "gather_A");
  expect_counters_eq(piped.reduce_c.total, blocking.reduce_c.total,
                     "reduce_C");
}

TEST_P(Pipeline, ChunkedRunsAreBitwiseAndVolumeIdentical) {
  const PipelineConfig& cfg = GetParam();
  Matrix a = random_matrix(cfg.n1, cfg.n2, cfg.seed);
  const core::SyrkRun blocking = run_config(cfg, a, /*chunks=*/0);
  const trace::AuditReport blocking_audit = trace::BoundAuditor().audit(
      cfg.n1, cfg.n2, blocking, &*blocking.trace);
  for (int chunks : {2, 3, 7}) {
    SCOPED_TRACE(std::string(cfg.name) + " chunks=" +
                 std::to_string(chunks));
    const core::SyrkRun piped = run_config(cfg, a, chunks);
    // Results are BITWISE equal: segmentation preserves every entry's
    // accumulation order, so this is exact equality, not a tolerance.
    EXPECT_TRUE(piped.c == blocking.c);
    // Word volume identical; message count may only grow.
    EXPECT_EQ(piped.total.total.words_sent, blocking.total.total.words_sent);
    EXPECT_EQ(piped.total.total.words_recv, blocking.total.total.words_recv);
    EXPECT_GE(piped.total.total.msgs_sent, blocking.total.total.msgs_sent);
    EXPECT_EQ(piped.total.max.words_sent, blocking.total.max.words_sent);
    // The pipelined trace carries overlap intervals for the in-flight
    // windows (at least one rank has >= 2 segments at these chunk counts).
    ASSERT_TRUE(piped.trace.has_value());
    EXPECT_FALSE(piped.trace->overlaps.empty());
    for (const auto& o : piped.trace->overlaps) {
      EXPECT_LT(o.rank, static_cast<std::int32_t>(cfg.session_ranks));
      EXPECT_GE(o.complete_ordinal, o.post_ordinal);
      EXPECT_GT(o.words, 0u);
    }
    // Audits stay green: volume-identical schedules audit exactly like the
    // blocking one, and the trace rollup must still match the ledger.
    const trace::AuditReport audit =
        trace::BoundAuditor().audit(cfg.n1, cfg.n2, piped, &*piped.trace);
    EXPECT_EQ(audit.verdict, blocking_audit.verdict);
    EXPECT_TRUE(audit.trace_checked);
    EXPECT_TRUE(audit.trace_consistent);
    EXPECT_TRUE(audit.ok());
  }
}

TEST_P(Pipeline, ChunkedTraceRoundTripsThroughBinaryFormat) {
  const PipelineConfig& cfg = GetParam();
  Matrix a = random_matrix(cfg.n1, cfg.n2, cfg.seed);
  const core::SyrkRun piped = run_config(cfg, a, /*chunks=*/3);
  ASSERT_TRUE(piped.trace.has_value());
  const std::string bytes = trace::to_binary(*piped.trace);
  const comm::JobTrace parsed = trace::from_binary(bytes);
  EXPECT_EQ(parsed.events.size(), piped.trace->events.size());
  ASSERT_EQ(parsed.overlaps.size(), piped.trace->overlaps.size());
  for (std::size_t i = 0; i < parsed.overlaps.size(); ++i) {
    EXPECT_TRUE(parsed.overlaps[i] == piped.trace->overlaps[i]) << i;
  }
  // And the Chrome exporter emits the overlap lanes.
  const std::string json = trace::to_chrome_json(*piped.trace);
  EXPECT_NE(json.find("overlap"), std::string::npos);
  EXPECT_NE(json.find("in flight"), std::string::npos);
}

TEST_P(Pipeline, OversizedChunkCountClampsAndStaysBitwise) {
  // More chunks than the per-rank output range has items: the executor
  // clamps to the available segments (never an empty segment), and the run
  // remains bitwise- and volume-identical to blocking.
  const PipelineConfig& cfg = GetParam();
  Matrix a = random_matrix(cfg.n1, cfg.n2, cfg.seed);
  const core::SyrkRun blocking = run_config(cfg, a, /*chunks=*/0);
  const core::SyrkRun piped = run_config(cfg, a, /*chunks=*/1 << 20);
  EXPECT_TRUE(piped.c == blocking.c) << cfg.name;
  EXPECT_EQ(piped.total.total.words_sent, blocking.total.total.words_sent);
  EXPECT_EQ(piped.total.total.words_recv, blocking.total.total.words_recv);
  EXPECT_EQ(piped.total.max.words_sent, blocking.total.max.words_sent);
  // The clamp is finite: message count is bounded by one message per
  // available segment, nowhere near the requested 2^20.
  EXPECT_LT(piped.total.total.msgs_sent,
            blocking.total.total.msgs_sent + (1u << 20));
  const trace::AuditReport audit =
      trace::BoundAuditor().audit(cfg.n1, cfg.n2, piped, &*piped.trace);
  EXPECT_TRUE(audit.ok());
}

INSTANTIATE_TEST_SUITE_P(
    Algorithms, Pipeline, ::testing::ValuesIn(kConfigs),
    [](const ::testing::TestParamInfo<PipelineConfig>& info) {
      return std::string(info.param.name);
    });

// ---------------------------------------------------------------------------
// with_pipeline argument validation (the chunks < 1 regression)
// ---------------------------------------------------------------------------

TEST(PipelineValidation, WithPipelineRejectsNonPositiveChunks) {
  Matrix a = random_matrix(8, 8, 1);
  core::SyrkRequest req(a);
  EXPECT_THROW(req.with_pipeline(0), InvalidArgument);
  EXPECT_THROW(req.with_pipeline(-3), InvalidArgument);
  EXPECT_NO_THROW(req.with_pipeline(1));
}

TEST(PipelineValidation, ExecutorRejectsDirectlySetNegativeChunks) {
  // The options struct is an open aggregate; a hand-assembled request can
  // bypass with_pipeline. pipeline_chunks < 0 has no meaning (0 = blocking,
  // >= 1 = pipelined) and must fail loudly, not execute as garbage.
  Matrix a = random_matrix(12, 8, 2);
  core::Session session(4);
  core::SyrkRequest req(a);
  req.use_1d();
  req.options.pipeline_chunks = -7;
  EXPECT_THROW(core::syrk(session, req), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Nonblocking ledger attribution (the snapshot-boundary regression)
// ---------------------------------------------------------------------------

TEST(NonblockingLedger, InFlightSendsAttributeToPostingSnapshotWindow) {
  // Ranks 0/1 post a reduce-scatter and then stall, handles incomplete,
  // while a concurrent observer takes a ledger snapshot — the service
  // layer's round boundary. The posted sends must already be in the ledger
  // (attributed to the posting job), so the post-snapshot window sees only
  // the receives that complete afterwards.
  comm::World world(4);
  std::atomic<int> posted{0};
  std::atomic<bool> snapped{false};
  comm::CostLedger::Snapshot mid;
  std::thread snapper([&] {
    while (posted.load() < 2) std::this_thread::yield();
    mid = world.ledger().snapshot();
    snapped.store(true);
  });
  world.run([&](comm::Comm& c) {
    comm::Comm sub = c.split(c.rank() < 2 ? 0 : 1, c.rank());
    if (c.rank() >= 2) return;  // ranks 2/3 idle: pins the rank-range scope
    c.set_phase("jobA");
    std::vector<double> data(100, 1.0 * c.rank());
    comm::Request req = sub.ireduce_scatter(data, {50, 50});
    posted.fetch_add(1);
    while (!snapped.load()) std::this_thread::yield();
    c.set_phase("jobB");  // the posting context must win over this
    req.wait();
  });
  snapper.join();

  // Post-snapshot window (rank range of the posting job): receives only.
  const comm::CostSummary after = world.ledger().summary_since(mid, 0, 2);
  EXPECT_EQ(after.total.words_sent, 0u)
      << "in-flight sends leaked into the next snapshot window";
  EXPECT_EQ(after.total.msgs_sent, 0u);
  EXPECT_EQ(after.total.words_recv, 100u);
  EXPECT_EQ(after.total.msgs_recv, 2u);

  // Idle ranks' range stays empty either way.
  const comm::CostSummary idle = world.ledger().summary_since(mid, 2, 4);
  EXPECT_EQ(idle.total.words_sent, 0u);
  EXPECT_EQ(idle.total.words_recv, 0u);

  // Phase attribution: everything the operation moved belongs to the phase
  // current at post time, nothing to the phase current at completion.
  const comm::CostSummary job_a = world.ledger().summary("jobA");
  EXPECT_EQ(job_a.total.words_sent, 100u);
  EXPECT_EQ(job_a.total.words_recv, 100u);
  const comm::CostSummary job_b = world.ledger().summary("jobB");
  EXPECT_EQ(job_b.total.words_sent, 0u);
  EXPECT_EQ(job_b.total.words_recv, 0u);
}

TEST(NonblockingLedger, PostedSendsVisibleBeforeFirstDrive) {
  // The eager-posting rule directly: handle creation records the first
  // round's sends even if the handle is never test()ed in between.
  comm::World world(2);
  world.run([&](comm::Comm& c) {
    c.set_phase("probe");
    std::vector<double> data(8, 1.0);
    comm::Request req = c.ireduce_scatter(data, {4, 4});
    // This rank's send is already in the ledger; its receive is not (only
    // this rank records its own receives, and it has not driven the handle).
    const auto per_rank = world.ledger().per_rank();
    EXPECT_EQ(per_rank[c.rank()].words_sent, 4u);
    EXPECT_EQ(per_rank[c.rank()].msgs_sent, 1u);
    EXPECT_EQ(per_rank[c.rank()].words_recv, 0u);
    req.wait();
  });
  const comm::CostSummary done = world.ledger().summary("probe");
  EXPECT_EQ(done.total.words_recv, 8u);
}

}  // namespace
}  // namespace parsyrk
