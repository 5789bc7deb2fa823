// Crash recovery end to end: checkpoint restore + journal-tail replay must
// rebuild the exact in-flight round — including through a real kill -9 of
// a forked process mid-round — and recovered rounds must keep refusing
// everything a live round would refuse.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <string>
#include <vector>

#include "proto/message.hpp"
#include "server/cluster.hpp"
#include "server/durable_backend.hpp"
#include "storage/checkpoint.hpp"
#include "storage/journal.hpp"
#include "storage/recovery.hpp"
#include "storage_test_util.hpp"

namespace eyw::storage {
namespace {

std::vector<std::uint8_t> report_frame(const server::BackendConfig& config,
                                       std::size_t participant,
                                       std::uint64_t round) {
  return proto::BlindedReport{
      .participant = static_cast<std::uint32_t>(participant),
      .params = config.cms_params,
      .cells = test_cells(config, participant)}
      .encode(round);
}

std::vector<std::uint8_t> adjustment_frame(const server::BackendConfig& config,
                                           std::size_t participant,
                                           std::uint64_t round) {
  auto cells = test_cells(config, participant + 100);
  return proto::Adjustment{
      .participant = static_cast<std::uint32_t>(participant),
      .params = config.cms_params,
      .cells = std::move(cells)}
      .encode(round);
}

TEST(Recovery, FreshDirectoryRecoversNothing) {
  TempDir tmp;
  server::BackendServer backend(test_config());
  Journal journal(tmp.path());
  const RecoveryReport report = recover_round(journal, backend);
  EXPECT_FALSE(report.checkpoint_loaded);
  EXPECT_EQ(report.records_replayed, 0u);
  EXPECT_EQ(report.records_refused, 0u);
  EXPECT_TRUE(report.journal_clean);
  EXPECT_EQ(backend.current_round(), 0u);
}

TEST(Recovery, RecordsWithoutCheckpointThrow) {
  TempDir tmp;
  const server::BackendConfig config = test_config();
  {
    Journal journal(tmp.path());
    journal.append(report_frame(config, 0, 2));
    journal.sync();
  }
  // Records with no base state: a DurableBackend writes the round anchor
  // before journaling anything, so this directory is damaged — recovery
  // must stop, not guess a roster.
  server::BackendServer backend(config);
  Journal journal(tmp.path());
  EXPECT_THROW((void)recover_round(journal, backend), std::runtime_error);
}

TEST(Recovery, CheckpointPlusTailReplayMatchesUninterrupted) {
  const server::BackendConfig config = test_config();
  constexpr std::size_t kRoster = 8;
  constexpr std::uint64_t kRound = 2;

  // Control: the same round, never interrupted.
  server::BackendServer control(config);
  control.begin_round(kRound, kRoster);
  for (std::size_t i = 0; i < kRoster; ++i)
    control.submit_report(i, test_cells(config, i));
  const server::RoundResult want = control.finalize_round();

  // Crash scene: a checkpoint capturing reports 0..3 plus journaled
  // frames for 4 and 5 (the tail the checkpoint does not cover).
  TempDir tmp;
  {
    server::BackendServer staging(config);
    staging.begin_round(kRound, kRoster);
    for (std::size_t i = 0; i < 4; ++i)
      staging.submit_report(i, test_cells(config, i));
    write_checkpoint_file(
        tmp.path(),
        encode_checkpoint({staging.snapshot_round(), /*journal_next=*/0}));
    Journal journal(tmp.path());
    journal.append(report_frame(config, 4, kRound));
    journal.append(report_frame(config, 5, kRound));
    journal.sync();
  }

  server::BackendServer recovered(config);
  Journal journal(tmp.path());
  const RecoveryReport report = recover_round(journal, recovered);
  EXPECT_TRUE(report.checkpoint_loaded);
  EXPECT_EQ(report.round, kRound);
  EXPECT_EQ(report.roster, kRoster);
  EXPECT_EQ(report.records_replayed, 2u);
  EXPECT_EQ(report.records_refused, 0u);
  EXPECT_TRUE(report.journal_clean);

  // The recovered round knows exactly who is missing, then finishes
  // bit-identical to the uninterrupted control.
  EXPECT_EQ(recovered.missing_participants(),
            (std::vector<std::size_t>{6, 7}));
  recovered.submit_report(6, test_cells(config, 6));
  recovered.submit_report(7, test_cells(config, 7));
  EXPECT_TRUE(results_identical(want, recovered.finalize_round()));
}

TEST(Recovery, OverlappingRecordsRefusedNotDoubleCounted) {
  const server::BackendConfig config = test_config();
  constexpr std::uint64_t kRound = 3;
  TempDir tmp;
  {
    server::BackendServer staging(config);
    staging.begin_round(kRound, 5);
    for (std::size_t i = 0; i < 4; ++i)
      staging.submit_report(i, test_cells(config, i));
    write_checkpoint_file(
        tmp.path(),
        encode_checkpoint({staging.snapshot_round(), /*journal_next=*/0}));
    Journal journal(tmp.path());
    // Record 0 duplicates a report the checkpoint already covers — the
    // overlap a crash between append and truncation leaves behind.
    journal.append(report_frame(config, 3, kRound));
    journal.append(report_frame(config, 4, kRound));
    journal.sync();
  }

  server::BackendServer recovered(config);
  Journal journal(tmp.path());
  const RecoveryReport report = recover_round(journal, recovered);
  EXPECT_EQ(report.records_replayed, 1u);
  EXPECT_EQ(report.records_refused, 1u);
  EXPECT_EQ(recovered.reports_received(), 5u);  // 3 was not double-counted

  server::BackendServer control(config);
  control.begin_round(kRound, 5);
  for (std::size_t i = 0; i < 5; ++i)
    control.submit_report(i, test_cells(config, i));
  EXPECT_TRUE(
      results_identical(control.finalize_round(), recovered.finalize_round()));
}

TEST(Recovery, WrongRoundRecordsRefused) {
  const server::BackendConfig config = test_config();
  TempDir tmp;
  {
    server::BackendServer staging(config);
    staging.begin_round(2, 4);
    write_checkpoint_file(
        tmp.path(),
        encode_checkpoint({staging.snapshot_round(), /*journal_next=*/0}));
    Journal journal(tmp.path());
    journal.append(report_frame(config, 0, /*round=*/9));  // stale frame
    journal.sync();
  }
  server::BackendServer recovered(config);
  Journal journal(tmp.path());
  const RecoveryReport report = recover_round(journal, recovered);
  EXPECT_EQ(report.records_replayed, 0u);
  EXPECT_EQ(report.records_refused, 1u);
  EXPECT_EQ(recovered.reports_received(), 0u);
}

TEST(Recovery, AdjustmentRecordsReplay) {
  const server::BackendConfig config = test_config();
  constexpr std::uint64_t kRound = 4;
  constexpr std::size_t kRoster = 6;

  server::BackendServer control(config);
  control.begin_round(kRound, kRoster);
  for (std::size_t i = 0; i < 4; ++i)
    control.submit_report(i, test_cells(config, i));
  // Clients 4 and 5 are missing, so finalize requires an adjustment from
  // every reporter.
  for (std::size_t i = 0; i < 4; ++i)
    control.submit_adjustment(i, test_cells(config, 100 + i));
  const server::RoundResult want = control.finalize_round();

  TempDir tmp;
  {
    server::BackendServer staging(config);
    staging.begin_round(kRound, kRoster);
    staging.submit_report(0, test_cells(config, 0));
    staging.submit_report(1, test_cells(config, 1));
    write_checkpoint_file(
        tmp.path(),
        encode_checkpoint({staging.snapshot_round(), /*journal_next=*/0}));
    Journal journal(tmp.path());
    journal.append(report_frame(config, 2, kRound));
    journal.append(report_frame(config, 3, kRound));
    journal.append(adjustment_frame(config, 0, kRound));
    journal.append(adjustment_frame(config, 1, kRound));
    journal.sync();
  }

  server::BackendServer recovered(config);
  Journal journal(tmp.path());
  const RecoveryReport report = recover_round(journal, recovered);
  EXPECT_EQ(report.records_replayed, 4u);
  EXPECT_EQ(recovered.reports_received(), 4u);
  EXPECT_EQ(recovered.adjustments_received(), 2u);
  // The remaining adjustments arrive after recovery, through the normal
  // path — mixed pre-crash/post-crash adjustments must still finalize
  // bit-identical.
  recovered.submit_adjustment(2, test_cells(config, 102));
  recovered.submit_adjustment(3, test_cells(config, 103));
  EXPECT_TRUE(results_identical(want, recovered.finalize_round()));
}

TEST(Recovery, ReservedIndexGapStaysCleanAcrossRecoveries) {
  const server::BackendConfig config = test_config();
  constexpr std::uint64_t kRound = 7;
  constexpr std::size_t kRoster = 5;
  TempDir tmp;
  {
    // A checkpoint whose journal_next (3) exceeds the records the journal
    // ever held (0..1): the shape a crash leaves when coverage outran the
    // durable tail.
    server::BackendServer staging(config);
    staging.begin_round(kRound, kRoster);
    for (std::size_t i = 0; i < 3; ++i)
      staging.submit_report(i, test_cells(config, i));
    write_checkpoint_file(
        tmp.path(),
        encode_checkpoint({staging.snapshot_round(), /*journal_next=*/3}));
    Journal journal(tmp.path());
    journal.append(report_frame(config, 0, kRound));
    journal.append(report_frame(config, 1, kRound));
    journal.sync();
  }

  // First recovery reserves through 3; the next accepted report lands in
  // a fresh segment based at 3, leaving an index gap behind it.
  {
    server::BackendServer backend(config);
    Journal journal(tmp.path());
    const RecoveryReport first = recover_round(journal, backend);
    EXPECT_TRUE(first.journal_clean);
    EXPECT_EQ(journal.next_index(), 3u);
    journal.append(report_frame(config, 3, kRound));
    journal.sync();
  }

  // A second recovery sees that gap — it is the reservation recovery
  // itself created, and must not read as mid-stream damage.
  server::BackendServer backend(config);
  Journal journal(tmp.path());
  const RecoveryReport second = recover_round(journal, backend);
  EXPECT_TRUE(second.journal_clean);
  EXPECT_EQ(second.records_replayed, 1u);
  EXPECT_EQ(backend.reports_received(), 4u);
}

TEST(Recovery, ClusterRecoversSameRoundAsSingleServer) {
  const server::BackendConfig config = test_config();
  constexpr std::uint64_t kRound = 5;
  constexpr std::size_t kRoster = 9;
  TempDir tmp;
  {
    server::BackendServer staging(config);
    staging.begin_round(kRound, kRoster);
    for (std::size_t i = 0; i < 5; ++i)
      staging.submit_report(i, test_cells(config, i));
    write_checkpoint_file(
        tmp.path(),
        encode_checkpoint({staging.snapshot_round(), /*journal_next=*/0}));
    Journal journal(tmp.path());
    journal.append(report_frame(config, 5, kRound));
    journal.append(report_frame(config, 6, kRound));
    journal.sync();
  }

  // The same directory recovers into a single server and a 3-shard
  // cluster; sharding is a deployment choice, so the rounds must agree
  // bit for bit.
  server::BackendServer single(config);
  server::BackendCluster cluster(config, 3);
  {
    Journal journal(tmp.path());
    (void)recover_round(journal, single);
  }
  {
    Journal journal(tmp.path());
    (void)recover_round(journal, cluster);
  }
  EXPECT_EQ(cluster.missing_participants(), single.missing_participants());
  for (std::size_t i = 7; i < kRoster; ++i) {
    single.submit_report(i, test_cells(config, i));
    cluster.submit_report(i, test_cells(config, i));
  }
  EXPECT_TRUE(
      results_identical(single.finalize_round(), cluster.finalize_round()));
}

TEST(Recovery, DurableBackendGracefulRestartResumesFinalizedState) {
  const server::BackendConfig config = test_config();
  TempDir tmp;
  const std::string dir = tmp.path() + "/journal";

  {
    server::BackendServer inner(config);
    server::DurableBackend durable(inner, {.dir = dir});
    durable.begin_round(6, 4);
    for (std::size_t i = 0; i < 4; ++i)
      durable.submit_report(i, test_cells(config, i));
    const server::RoundResult first_result = durable.finalize_round();
    EXPECT_EQ(first_result.reports, 4u);
    EXPECT_EQ(durable.stats().off_writer_io, 0u);  // no hot-path file I/O
    durable.shutdown();
  }

  // Restart: the post-round checkpoint restores the completed round (not
  // a replay of it) and the next round proceeds normally.
  server::BackendServer inner(config);
  server::DurableBackend durable(inner, {.dir = dir});
  EXPECT_TRUE(durable.recovery().checkpoint_loaded);
  EXPECT_EQ(durable.recovery().round, 6u);
  EXPECT_EQ(durable.recovery().records_replayed, 0u);
  EXPECT_TRUE(durable.missing_participants().empty());

  durable.begin_round(7, 2);
  durable.submit_report(0, test_cells(config, 0));
  durable.submit_report(1, test_cells(config, 1));
  const server::RoundResult next = durable.finalize_round();
  EXPECT_EQ(next.reports, 2u);
}

// The kill -9 test's geometry, shared with the child process below.
constexpr std::uint64_t kKill9Round = 8;
constexpr std::size_t kKill9Roster = 10;
constexpr std::size_t kKill9BeforeKill = 6;  // > half the roster

}  // namespace

int kill9_child_main(const std::string& dir) {
  // Accept kKill9BeforeKill reports with ack ⇒ fsynced, then die the hard
  // way — no destructors, no flush, no checkpoint.
  const server::BackendConfig config = test_config();
  server::BackendServer inner(config);
  server::DurableBackend durable(inner, {.dir = dir, .sync_each_submit = true});
  durable.begin_round(kKill9Round, kKill9Roster);
  for (std::size_t i = 0; i < kKill9BeforeKill; ++i)
    durable.submit_report(i, test_cells(config, i));
  ::kill(::getpid(), SIGKILL);
  return 106;  // unreachable
}

namespace {

// The scenario the subsystem exists for: a child process running a
// DurableBackend is SIGKILLed mid-round (after more than half the roster
// reported, every ack durable), and a fresh process on the same directory
// finishes the round bit-identical to an uninterrupted control. The child
// is this test binary re-exec'd with --recovery-kill9-child (main.cpp):
// the gtest process is threaded, and only exec makes it safe for the
// child to start the journal writer thread.
TEST(Recovery, DurableBackendSurvivesKill9MidRound) {
  const server::BackendConfig config = test_config();
  constexpr std::uint64_t kRound = kKill9Round;
  constexpr std::size_t kRoster = kKill9Roster;
  constexpr std::size_t kBeforeKill = kKill9BeforeKill;
  TempDir tmp;
  const std::string dir = tmp.path() + "/journal";

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::execl("/proc/self/exe", "eyw_test_storage", "--recovery-kill9-child",
            dir.c_str(), static_cast<char*>(nullptr));
    ::_exit(127);  // exec failed
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  ASSERT_EQ(WTERMSIG(status), SIGKILL);

  server::BackendServer inner(config);
  server::DurableBackend durable(inner, {.dir = dir});
  EXPECT_TRUE(durable.recovery().checkpoint_loaded);
  EXPECT_EQ(durable.recovery().round, kRound);
  EXPECT_EQ(durable.recovery().records_replayed, kBeforeKill);
  EXPECT_TRUE(durable.recovery().journal_clean);
  EXPECT_EQ(durable.current_round(), kRound);
  EXPECT_EQ(durable.missing_participants().size(), kRoster - kBeforeKill);

  // The recovered round still refuses duplicates of pre-crash reports.
  EXPECT_THROW(durable.submit_report(0, test_cells(config, 0)),
               std::invalid_argument);

  for (std::size_t i = kBeforeKill; i < kRoster; ++i)
    durable.submit_report(i, test_cells(config, i));
  const server::RoundResult got = durable.finalize_round();

  server::BackendServer control(config);
  control.begin_round(kRound, kRoster);
  for (std::size_t i = 0; i < kRoster; ++i)
    control.submit_report(i, test_cells(config, i));
  EXPECT_TRUE(results_identical(control.finalize_round(), got));
  EXPECT_EQ(durable.stats().off_writer_io, 0u);
}

}  // namespace
}  // namespace eyw::storage
