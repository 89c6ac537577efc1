// aam::mc — bounded schedule-space model checker over the DES.
//
// Covers the four layers of the subsystem:
//   * trace codec (format/parse/pretty round trips);
//   * workload derivations (serial oracle, PR 4 static footprints);
//   * runner + explorer semantics (seam inertness, DPOR-vs-naive
//     reduction with identical verdicts, budget fallback);
//   * mutation fixtures: each seeded bug — stripe lock released before
//     the write-back, commit validation skipping the read set, delivery
//     dedup keyed on the dropped ack — must be caught with the exact
//     minimized trace, and the trace must replay to the same violation.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <ostream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "mc/explorer.hpp"
#include "mc/harness.hpp"
#include "mc/runner.hpp"
#include "mc/trace.hpp"
#include "mc/workload.hpp"

namespace aam::mc {
namespace {

// --- trace codec -----------------------------------------------------------

TEST(McTrace, FormatParseRoundTrip) {
  const Trace trace = {{0, sim::ChoiceKind::kNext},
                       {1, sim::ChoiceKind::kCommitProbe},
                       {1, sim::ChoiceKind::kCommitFinal},
                       {2, sim::ChoiceKind::kSerialAcquire},
                       {2, sim::ChoiceKind::kSerialCommit},
                       {0, sim::ChoiceKind::kSpecRetry},
                       {3, sim::ChoiceKind::kCallback}};
  const std::string text = format_trace(trace);
  EXPECT_EQ(text, "0n.1p.1c.2s.2S.0r.3k");
  const auto parsed = parse_trace(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, trace);
}

TEST(McTrace, ParseRejectsMalformed) {
  EXPECT_FALSE(parse_trace("0n.1x").has_value());   // unknown code
  EXPECT_FALSE(parse_trace("n0").has_value());      // digits first
  EXPECT_FALSE(parse_trace("0n..1n").has_value());  // empty step
  EXPECT_FALSE(parse_trace("0").has_value());       // no code
  EXPECT_TRUE(parse_trace("").has_value());         // empty trace is valid
  EXPECT_TRUE(parse_trace("10n")->front().thread == 10);
}

TEST(McTrace, PrettyNamesEveryStep) {
  const Trace trace = {{0, sim::ChoiceKind::kNext},
                       {1, sim::ChoiceKind::kCommitFinal}};
  const std::string pretty = pretty_trace(trace);
  EXPECT_NE(pretty.find("step  1: t0 next"), std::string::npos);
  EXPECT_NE(pretty.find("step  2: t1 commit-final"), std::string::npos);
}

// --- workload derivations --------------------------------------------------

TEST(McWorkload, SerialOracleCountsCounterOutcomes) {
  // Two threads of two +1s on one word: every serial order ends at 4.
  const McWorkload w = make_workload("counter");
  const std::set<std::string> serial = serial_outcomes(w);
  ASSERT_EQ(serial.size(), 1u);
  EXPECT_EQ(*serial.begin(), "w0=4 | t0:- t1:-");
}

TEST(McWorkload, SerialOracleSeesBothCrossOrders) {
  // x=y+1 / y=x+1: serial orders give (1,2) or (2,1) — never (1,1).
  const McWorkload w = make_workload("cross");
  const std::set<std::string> serial = serial_outcomes(w);
  EXPECT_EQ(serial.size(), 2u);
  EXPECT_TRUE(serial.count("w0=1 w1=2 | t0:- t1:-") == 1);
  EXPECT_TRUE(serial.count("w0=2 w1=1 | t0:- t1:-") == 1);
  EXPECT_TRUE(serial.count("w0=1 w1=1 | t0:- t1:-") == 0);
}

TEST(McWorkload, StaticFootprintsMatchPrograms) {
  // disjoint: t0 touches word 0 only, t1 word 1 only.
  const auto disjoint = thread_footprints(make_workload("disjoint"));
  ASSERT_EQ(disjoint.size(), 2u);
  EXPECT_EQ(disjoint[0].writes, 1u << 0);
  EXPECT_EQ(disjoint[1].writes, 1u << 1);
  EXPECT_EQ(disjoint[0].reads & disjoint[1].reads, 0u);

  // cross: t0 reads w1 writes w0, t1 reads w0 writes w1.
  const auto cross = thread_footprints(make_workload("cross"));
  EXPECT_EQ(cross[0].reads, 1u << 1);
  EXPECT_EQ(cross[0].writes, 1u << 0);
  EXPECT_EQ(cross[1].reads, 1u << 0);
  EXPECT_EQ(cross[1].writes, 1u << 1);

  // ack-protocol receiver: DeliverOnce's branches both contribute (the
  // abstract interpreter forks the guard loads over {0,1}); fetch_add on
  // the data word counts as read and write.
  const auto ack = thread_footprints(make_workload("ack-protocol"));
  EXPECT_EQ(ack[1].reads, (1u << 0) | (1u << 1) | (1u << 2));
  EXPECT_EQ(ack[1].writes, (1u << 1) | (1u << 2) | (1u << 3));
}

TEST(McWorkload, DependenceRelationUsesFootprints) {
  Runner runner(row_run_config("disjoint", "htm"));
  const auto& fp = runner.footprints();
  const Step commit0{0, sim::ChoiceKind::kCommitFinal};
  const Step commit1{1, sim::ChoiceKind::kCommitFinal};
  const Step next1{1, sim::ChoiceKind::kNext};
  const Step serial1{1, sim::ChoiceKind::kSerialCommit};
  // Disjoint words: cross-thread commits commute; HTM kNext reads only.
  EXPECT_FALSE(steps_depend(commit0, commit1, fp, runner.next_writes()));
  EXPECT_FALSE(steps_depend(commit0, next1, fp, runner.next_writes()));
  // Same thread never commutes; serialization events never commute.
  EXPECT_TRUE(steps_depend(commit0, Step{0, sim::ChoiceKind::kNext}, fp,
                           runner.next_writes()));
  EXPECT_TRUE(steps_depend(commit0, serial1, fp, runner.next_writes()));

  Runner contended(row_run_config("counter", "htm"));
  const auto& cfp = contended.footprints();
  // Shared word: a commit may not commute with the other thread's
  // speculation (its body reads what the commit writes).
  EXPECT_TRUE(steps_depend(commit0, next1, cfp, contended.next_writes()));
  // ...but two read-only probes still commute.
  EXPECT_FALSE(steps_depend(Step{0, sim::ChoiceKind::kCommitProbe},
                            Step{1, sim::ChoiceKind::kCommitProbe}, cfp,
                            contended.next_writes()));
}

// --- runner + explorer -----------------------------------------------------

TEST(McRunner, FrontierOrderScheduleIsSerializable) {
  // Always dispatching frontier slot 0 approximates the uncontrolled
  // event order; the run must quiesce violation-free with the serial
  // outcome — the controller seam does not perturb engine semantics.
  for (const char* mechanism : {"htm", "atomics", "stm"}) {
    Runner runner(row_run_config("counter", mechanism));
    const RunResult r =
        runner.run([](std::span<const sim::Choice>) { return std::size_t{0}; });
    EXPECT_TRUE(r.reached_quiescence) << mechanism;
    EXPECT_TRUE(r.violations.empty()) << mechanism;
    EXPECT_EQ(canonical(r.outcome), "w0=4 | t0:- t1:-") << mechanism;
  }
}

TEST(McRunner, ReplayReportsNeverEnabledStep) {
  Runner runner(row_run_config("counter", "atomics"));
  // Thread 7 does not exist; the step can never match the frontier.
  const RunResult r = runner.replay({{7, sim::ChoiceKind::kNext}});
  ASSERT_FALSE(r.violations.empty());
  EXPECT_EQ(r.violations.front().kind, ViolationInfo::Kind::kReplayError);
}

TEST(McExplorer, CertifiesEveryMechanismOnCounter) {
  for (const char* mechanism :
       {"htm", "atomics", "fine-locks", "serial-lock", "stm"}) {
    Runner runner(row_run_config("counter", mechanism));
    const ExploreResult r = explore(runner, ExploreConfig{});
    EXPECT_FALSE(r.stats.budget_exhausted) << mechanism;
    EXPECT_GT(r.stats.schedules, 0u) << mechanism;
    EXPECT_EQ(r.violating_schedules, 0u) << mechanism;
  }
}

TEST(McExplorer, DporBeatsNaiveTenfoldOnDisjoint) {
  // The acceptance ratio behind the committed manifest: sleep sets keyed
  // on the static footprints collapse disjoint/htm to one complete
  // schedule, >= 10x fewer machine runs than the reduction-free DFS.
  Runner runner(row_run_config("disjoint", "htm"));
  ExploreConfig dpor;
  const ExploreResult reduced = explore(runner, dpor);
  EXPECT_FALSE(reduced.stats.budget_exhausted);
  EXPECT_EQ(reduced.stats.schedules, 1u);
  EXPECT_EQ(reduced.violating_schedules, 0u);

  ExploreConfig naive;
  naive.sleep_sets = false;
  const ExploreResult full = explore(runner, naive);
  EXPECT_FALSE(full.stats.budget_exhausted);
  EXPECT_EQ(full.violating_schedules, 0u);
  EXPECT_GE(full.stats.schedules, 10 * reduced.stats.runs);
  EXPECT_GE(full.stats.runs, 10 * reduced.stats.runs);
}

TEST(McExplorer, PreemptionBoundExploresSubset) {
  Runner runner(row_run_config("counter", "htm"));
  ExploreConfig bounded;
  bounded.sleep_sets = false;
  bounded.preemption_bound = 0;
  const ExploreResult r = explore(runner, bounded);
  EXPECT_FALSE(r.stats.budget_exhausted);
  // p=0: only thread choice at quiescence points — a handful of runs.
  EXPECT_GT(r.stats.schedules, 0u);
  EXPECT_LT(r.stats.runs, 32u);
  EXPECT_EQ(r.violating_schedules, 0u);
}

TEST(McExplorer, AutoEscalationPathIsCertified) {
  // --mechanism=auto with a tiny livelock watermark: some schedule must
  // exercise the htm -> serial-lock escalation descent, and every
  // schedule must stay serializable while doing so.
  Runner runner(row_run_config("auto-escalate", "auto"));
  const ExploreResult r = explore(runner, ExploreConfig{});
  EXPECT_FALSE(r.stats.budget_exhausted);
  EXPECT_EQ(r.violating_schedules, 0u);
  EXPECT_GE(r.stats.max_auto_descents, 1u);
}

TEST(McExplorer, AutoWindowIsBoundCertifiedWithDescents) {
  // The budget-fallback row: full space is infeasible, so the manifest
  // certifies it at preemption bound 1 — and the tight abort band makes
  // the htm -> stm band-miss descent fire inside the bounded space.
  Runner runner(row_run_config("auto-window", "auto"));
  ExploreConfig bounded;
  bounded.preemption_bound = row_bound("auto-window");
  ASSERT_EQ(bounded.preemption_bound, 1);
  const ExploreResult r = explore(runner, bounded);
  EXPECT_FALSE(r.stats.budget_exhausted);
  EXPECT_EQ(r.violating_schedules, 0u);
  EXPECT_GE(r.stats.max_auto_descents, 1u);
}

// --- mutation fixtures -----------------------------------------------------

struct MutationCase {
  const char* workload;
  const char* mechanism;
  Mutation mutation;
  ViolationInfo::Kind kind;
  const char* minimized;  ///< exact canonical witness trace
};

// Prints the case by name; gtest's default dumps the raw bytes, whose
// pointers change from build to build.
void PrintTo(const MutationCase& c, std::ostream* os) {
  *os << c.workload << "/" << c.mechanism << "/" << to_string(c.mutation);
}

class McMutation : public ::testing::TestWithParam<MutationCase> {};

TEST_P(McMutation, CaughtMinimizedAndReplayable) {
  const MutationCase& c = GetParam();
  RunConfig cfg = row_run_config(c.workload, c.mechanism);
  cfg.mutation = c.mutation;
  Runner runner(cfg);

  // The explorer finds the bug...
  const ExploreResult r = explore(runner, ExploreConfig{});
  EXPECT_GT(r.violating_schedules, 0u);

  // ...the minimizer produces the canonical fewest-preemptions witness...
  const auto minimal = find_minimal(runner);
  ASSERT_TRUE(minimal.has_value());
  EXPECT_EQ(minimal->info.kind, c.kind);
  EXPECT_EQ(format_trace(minimal->trace), c.minimized);

  // ...and the witness replays to the same violation kind.
  const RunResult replayed = runner.replay(minimal->trace);
  EXPECT_TRUE(replayed.reached_quiescence);
  ASSERT_FALSE(replayed.violations.empty());
  bool found = false;
  for (const ViolationInfo& v : replayed.violations) {
    found = found || v.kind == c.kind;
  }
  EXPECT_TRUE(found);

  // The unmutated twin is clean: the violation is the seeded bug's.
  RunConfig spec = row_run_config(c.workload, c.mechanism);
  Runner clean(spec);
  const ExploreResult base = explore(clean, ExploreConfig{});
  EXPECT_EQ(base.violating_schedules, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    SeededBugs, McMutation,
    ::testing::Values(
        // Stripe lock released before the write-back: the split RMW loses
        // the other critical section's update.
        MutationCase{"lock-protocol", "atomics", Mutation::kLockEarlyRelease,
                     ViolationInfo::Kind::kInvariant,
                     "0n.0n.0n.1n.1n.1n.1n.0n"},
        // Commit validation skips the read set: both cross-copy
        // transactions commit from stale reads (zombie commits).
        MutationCase{"cross", "htm", Mutation::kSkipReadValidation,
                     ViolationInfo::Kind::kZombieCommit,
                     "0n.1n.1p.1c.1n.0p.0c.0n"},
        // Delivery dedup keyed on the ack the retransmit clears: the
        // payload is applied twice.
        MutationCase{"ack-protocol", "atomics", Mutation::kDroppedAck,
                     ViolationInfo::Kind::kInvariant, "0n.1n.0n.1n"}),
    // Name each case after its mutation, for the same reason as PrintTo.
    [](const auto& info) {
      std::string name = to_string(info.param.mutation);
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// --- harness ---------------------------------------------------------------

TEST(McHarness, GoldenManifestMatchesCommitted) {
  // The quick rows only (full sweep runs in the CI mc job): the rendered
  // lines must agree with the committed manifest byte for byte.
  std::ifstream golden(AAM_MC_GOLDEN);
  ASSERT_TRUE(golden.is_open()) << AAM_MC_GOLDEN;
  std::set<std::string> lines;
  std::string line;
  while (std::getline(golden, line)) lines.insert(line);
  for (const auto& [workload, mechanism] :
       std::vector<std::pair<std::string, std::string>>{
           {"disjoint", "htm"}, {"cross", "htm"}, {"counter", "atomics"}}) {
    CertReport one;
    one.rows.push_back(certify_one(workload, mechanism));
    std::istringstream rendered(render_golden(one));
    std::string header1, header2, row;
    ASSERT_TRUE(std::getline(rendered, header1));
    ASSERT_TRUE(std::getline(rendered, header2));
    ASSERT_TRUE(std::getline(rendered, row));
    EXPECT_EQ(lines.count(row), 1u)
        << "row not in committed manifest: " << row;
  }
}

}  // namespace
}  // namespace aam::mc
