// rvsym-serve tests: wire-protocol framing (partial I/O, oversized
// rejection), job-store crash/resume goldens, scheduler policy, and
// end-to-end daemon runs with thread workers — concurrent client
// submits, worker-crash containment, journal resume, and the warm
// persistent-cache acceptance check. The end-to-end suite doubles as
// the serve_tsan aggregate: every socket, decoder and scheduler touch
// happens across the test, daemon and worker threads.

#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/analyze/json_reader.hpp"
#include "obs/fleet/history.hpp"
#include "obs/fleet/trace_merge.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/job.hpp"
#include "serve/jobstore.hpp"
#include "serve/proto.hpp"
#include "serve/scheduler.hpp"

namespace fs = std::filesystem;
using rvsym::obs::analyze::JsonValue;
using rvsym::obs::analyze::parseJson;
using namespace rvsym::serve;

namespace {

std::string makeTempDir() {
  char tmpl[] = "/tmp/rvsym_serve_XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir ? dir : "";
}

struct TempDir {
  std::string path = makeTempDir();
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

// --- Framing ------------------------------------------------------------------------------

TEST(Framing, RoundTripOverSocketpair) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const std::string a = "{\"cmd\":\"ping\"}";
  const std::string b(1000, 'x');
  std::string err;
  EXPECT_TRUE(writeFrame(sv[0], a, &err)) << err;
  EXPECT_TRUE(writeFrame(sv[0], b, &err)) << err;
  ::close(sv[0]);

  EXPECT_EQ(readFrame(sv[1], &err).value_or(""), a);
  EXPECT_EQ(readFrame(sv[1], &err).value_or(""), b);
  // Peer closed at a frame boundary: clean EOF, no error text.
  err = "sentinel";
  EXPECT_FALSE(readFrame(sv[1], &err).has_value());
  EXPECT_TRUE(err.empty());
  ::close(sv[1]);
}

TEST(Framing, TornEofIsAnError) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  // A header promising 8 bytes, then only 3 and EOF.
  const std::string header = frameHeader(8);
  ASSERT_EQ(::write(sv[0], header.data(), header.size()),
            static_cast<ssize_t>(header.size()));
  ASSERT_EQ(::write(sv[0], "abc", 3), 3);
  ::close(sv[0]);
  std::string err;
  EXPECT_FALSE(readFrame(sv[1], &err).has_value());
  EXPECT_FALSE(err.empty());
  ::close(sv[1]);
}

TEST(Framing, ReadFrameRejectsOversized) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const std::string header = frameHeader(kMaxFrameBytes + 1);
  ASSERT_EQ(::write(sv[0], header.data(), header.size()),
            static_cast<ssize_t>(header.size()));
  std::string err;
  EXPECT_FALSE(readFrame(sv[1], &err).has_value());
  EXPECT_FALSE(err.empty());
  ::close(sv[0]);
  ::close(sv[1]);
}

TEST(Framing, WriteFrameRejectsOversized) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  std::string err;
  EXPECT_FALSE(writeFrame(sv[0], std::string(kMaxFrameBytes + 1, 'x'), &err));
  EXPECT_FALSE(err.empty());
  ::close(sv[0]);
  ::close(sv[1]);
}

TEST(Framing, DecoderByteAtATime) {
  // The decoder must reassemble frames no matter how the bytes are
  // chopped; one byte per feed() is the worst case poll() can deliver.
  const std::vector<std::string> payloads = {"{\"a\":1}", "{}",
                                             std::string(300, 'y')};
  std::string wire;
  for (const auto& p : payloads) wire += frameHeader(p.size()) + p;

  FrameDecoder dec;
  std::vector<std::string> out;
  for (char byte : wire) {
    dec.feed(std::string_view(&byte, 1));
    while (const auto f = dec.next()) out.push_back(*f);
  }
  EXPECT_EQ(out, payloads);
  EXPECT_FALSE(dec.corrupt());
}

TEST(Framing, DecoderRejectsOversizedAndStaysCorrupt) {
  FrameDecoder dec;
  dec.feed(frameHeader(kMaxFrameBytes + 1));
  std::string err;
  EXPECT_FALSE(dec.next(&err).has_value());
  EXPECT_FALSE(err.empty());
  EXPECT_TRUE(dec.corrupt());
  // Feeding more valid bytes doesn't resurrect the connection.
  const std::string good = "{}";
  dec.feed(frameHeader(good.size()) + good);
  EXPECT_FALSE(dec.next().has_value());
  EXPECT_TRUE(dec.corrupt());
}

TEST(Framing, DecoderRejectsZeroLength) {
  FrameDecoder dec;
  dec.feed(frameHeader(0));
  std::string err;
  EXPECT_FALSE(dec.next(&err).has_value());
  EXPECT_TRUE(dec.corrupt());
}

TEST(Framing, ParseEndpoint) {
  auto ep = parseEndpoint("unix:/tmp/x.sock");
  ASSERT_TRUE(ep.has_value());
  EXPECT_EQ(ep->kind, Endpoint::Kind::Unix);
  EXPECT_EQ(ep->path, "/tmp/x.sock");
  EXPECT_EQ(ep->spec(), "unix:/tmp/x.sock");

  ep = parseEndpoint("tcp:8123");
  ASSERT_TRUE(ep.has_value());
  EXPECT_EQ(ep->kind, Endpoint::Kind::Tcp);
  EXPECT_EQ(ep->port, 8123);

  // A bare path is a unix socket (the common case).
  ep = parseEndpoint("/run/rvsym.sock");
  ASSERT_TRUE(ep.has_value());
  EXPECT_EQ(ep->kind, Endpoint::Kind::Unix);

  std::string err;
  EXPECT_FALSE(parseEndpoint("tcp:notaport", &err).has_value());
  EXPECT_FALSE(err.empty());
}

// --- Job specs ----------------------------------------------------------------------------

TEST(JobSpecJson, RoundTrip) {
  JobSpec spec;
  spec.kind = "mutate";
  spec.mutant_ids = {"swap:bne:beq", "dec:srai:b13"};
  spec.min_instr_limit = 1;
  spec.max_instr_limit = 2;
  spec.max_paths_per_hunt = 5000;
  spec.max_seconds_per_hunt = 12.5;
  spec.num_symbolic_regs = 1;
  spec.scenario = "rv32i";
  spec.solver_opt = "all";
  spec.max_shards = 3;

  std::string err;
  const auto back = JobSpec::fromJsonText(spec.toJson(), &err);
  ASSERT_TRUE(back.has_value()) << err;
  EXPECT_EQ(back->kind, spec.kind);
  EXPECT_EQ(back->mutant_ids, spec.mutant_ids);
  EXPECT_EQ(back->min_instr_limit, spec.min_instr_limit);
  EXPECT_EQ(back->max_instr_limit, spec.max_instr_limit);
  EXPECT_EQ(back->max_paths_per_hunt, spec.max_paths_per_hunt);
  EXPECT_EQ(back->max_seconds_per_hunt, spec.max_seconds_per_hunt);
  EXPECT_EQ(back->num_symbolic_regs, spec.num_symbolic_regs);
  EXPECT_EQ(back->max_shards, spec.max_shards);
  // Round trip is stable: rendering the parsed spec again is identical.
  EXPECT_EQ(back->toJson(), spec.toJson());
}

TEST(JobSpecJson, RejectsBadKind) {
  std::string err;
  EXPECT_FALSE(JobSpec::fromJsonText("{\"kind\":\"dance\"}", &err));
  EXPECT_FALSE(err.empty());
}

TEST(Units, VerifySweepIsThePaperTable) {
  JobSpec spec;
  spec.kind = "verify";
  const auto units = enumerateUnits(spec);
  ASSERT_TRUE(units.has_value());
  ASSERT_EQ(units->size(), 10u);
  EXPECT_EQ(units->front(), "E0");
  EXPECT_EQ(units->back(), "E9");
}

TEST(Units, MutateRejectsUnknownId) {
  JobSpec spec;
  spec.mutant_ids = {"dec:not:real"};
  std::string err;
  EXPECT_FALSE(enumerateUnits(spec, &err).has_value());
  EXPECT_FALSE(err.empty());
}

TEST(Units, ReplayNeedsAReadableCorpus) {
  JobSpec spec;
  spec.kind = "replay";
  spec.corpus_dir = "/nonexistent/corpus";
  std::string err;
  EXPECT_FALSE(enumerateUnits(spec, &err).has_value());
  EXPECT_FALSE(err.empty());
}

// --- Job store ----------------------------------------------------------------------------

JobSpec tinySpec() {
  JobSpec spec;
  spec.mutant_ids = {"swap:bne:beq"};
  return spec;
}

TEST(JobStoreTest, AppendAndLoad) {
  TempDir dir;
  JobStore store(dir.path);
  EXPECT_EQ(store.nextJobId(), "j0");
  std::string err;
  ASSERT_TRUE(store.createJob("j0", tinySpec(), &err)) << err;
  EXPECT_FALSE(store.createJob("j0", tinySpec()));  // id taken
  EXPECT_EQ(store.nextJobId(), "j1");

  store.appendLine("j0", "{\"ev\":\"unit\",\"unit\":\"a\",\"verdict\":\"killed\"}");
  store.appendLine("j0", "{\"ev\":\"unit\",\"unit\":\"b\",\"verdict\":\"survived\"}");
  store.appendLine("j0", "{\"ev\":\"final\",\"status\":\"done\"}");

  const auto jobs = JobStore(dir.path).loadAll();
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].id, "j0");
  EXPECT_TRUE(jobs[0].finished);
  EXPECT_EQ(jobs[0].unit_records.size(), 2u);
  EXPECT_NE(jobs[0].final_record.find("\"done\""), std::string::npos);
  EXPECT_TRUE(jobs[0].repair_note.empty());
}

TEST(JobStoreTest, FirstVerdictWins) {
  TempDir dir;
  JobStore store(dir.path);
  ASSERT_TRUE(store.createJob("j0", tinySpec()));
  store.appendLine("j0", "{\"ev\":\"unit\",\"unit\":\"a\",\"verdict\":\"killed\"}");
  store.appendLine("j0", "{\"ev\":\"unit\",\"unit\":\"a\",\"verdict\":\"survived\"}");
  const auto jobs = JobStore(dir.path).loadAll();
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_NE(jobs[0].unit_records.at("a").find("killed"), std::string::npos);
}

TEST(JobStoreTest, TornTailIsDroppedAndRepaired) {
  TempDir dir;
  JobStore store(dir.path);
  ASSERT_TRUE(store.createJob("j0", tinySpec()));
  store.appendLine("j0", "{\"ev\":\"unit\",\"unit\":\"a\",\"verdict\":\"killed\"}");
  {
    // kill -9 mid-write: the journal ends in half a JSON object.
    std::ofstream out(store.journalPath("j0"),
                      std::ios::app | std::ios::binary);
    out << "{\"ev\":\"unit\",\"unit\":\"b\",\"verd";
  }
  auto jobs = JobStore(dir.path).loadAll();
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].unit_records.size(), 1u);  // torn line dropped
  EXPECT_FALSE(jobs[0].finished);
  EXPECT_FALSE(jobs[0].repair_note.empty());

  // The repair truncated the file: a second load is clean, and a fresh
  // append starts on its own line.
  jobs = JobStore(dir.path).loadAll();
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_TRUE(jobs[0].repair_note.empty());
  JobStore(dir.path).appendLine(
      "j0", "{\"ev\":\"unit\",\"unit\":\"b\",\"verdict\":\"survived\"}");
  jobs = JobStore(dir.path).loadAll();
  EXPECT_EQ(jobs[0].unit_records.size(), 2u);
}

TEST(JobStoreTest, UnterminatedParsableTailIsCompleted) {
  TempDir dir;
  JobStore store(dir.path);
  ASSERT_TRUE(store.createJob("j0", tinySpec()));
  {
    // Flushed line, crash before the newline: parsable, keep it.
    std::ofstream out(store.journalPath("j0"),
                      std::ios::app | std::ios::binary);
    out << "{\"ev\":\"unit\",\"unit\":\"a\",\"verdict\":\"killed\"}";
  }
  auto jobs = JobStore(dir.path).loadAll();
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].unit_records.size(), 1u);
  EXPECT_FALSE(jobs[0].repair_note.empty());
  // Repair appended the newline in place.
  jobs = JobStore(dir.path).loadAll();
  EXPECT_EQ(jobs[0].unit_records.size(), 1u);
  EXPECT_TRUE(jobs[0].repair_note.empty());
}

// --- Scheduler ----------------------------------------------------------------------------

std::vector<std::string> namedUnits(unsigned n) {
  std::vector<std::string> units;
  for (unsigned i = 0; i < n; ++i) units.push_back("u" + std::to_string(i));
  return units;
}

TEST(Sched, ShardsChopAndComplete) {
  Scheduler::Options so;
  so.units_per_shard = 4;
  Scheduler sched(so);
  ASSERT_TRUE(sched.submit("j0", 0, namedUnits(10)));

  unsigned shards = 0, units = 0;
  while (const auto shard = sched.nextShard("w0")) {
    ++shards;
    for (const auto& u : shard->units) {
      (void)u;
      ++units;
      sched.onUnitDone("j0");
    }
    sched.onShardDone("w0", "j0", shard->index);
  }
  EXPECT_EQ(shards, 3u);  // 4 + 4 + 2
  EXPECT_EQ(units, 10u);
  const auto prog = sched.progress("j0");
  ASSERT_TRUE(prog.has_value());
  EXPECT_EQ(prog->state, JobState::Done);
  EXPECT_EQ(prog->units_done, 10u);
  EXPECT_TRUE(sched.idle());
}

TEST(Sched, FairnessInterleavesJobs) {
  Scheduler::Options so;
  so.units_per_shard = 1;
  Scheduler sched(so);
  ASSERT_TRUE(sched.submit("j0", 0, namedUnits(4)));
  ASSERT_TRUE(sched.submit("j1", 0, namedUnits(4)));
  // Two pulls without completions: the second must come from the other
  // job (fewest shards in flight), not drain j0 first.
  const auto first = sched.nextShard("w0");
  const auto second = sched.nextShard("w1");
  ASSERT_TRUE(first && second);
  EXPECT_EQ(first->job_id, "j0");
  EXPECT_EQ(second->job_id, "j1");
}

TEST(Sched, WorkStealingDrainsABusyJob) {
  Scheduler::Options so;
  so.units_per_shard = 1;
  Scheduler sched(so);
  ASSERT_TRUE(sched.submit("j0", 0, namedUnits(6)));
  // Both workers pull from the same job: nothing pins shards to the
  // worker that started it.
  const auto a = sched.nextShard("w0");
  const auto b = sched.nextShard("w1");
  ASSERT_TRUE(a && b);
  EXPECT_EQ(a->job_id, "j0");
  EXPECT_EQ(b->job_id, "j0");
  EXPECT_NE(a->index, b->index);
}

TEST(Sched, QuotaCapsShardsInFlight) {
  Scheduler::Options so;
  so.units_per_shard = 1;
  Scheduler sched(so);
  ASSERT_TRUE(sched.submit("j0", /*max_shards=*/1, namedUnits(4)));
  const auto a = sched.nextShard("w0");
  ASSERT_TRUE(a.has_value());
  EXPECT_FALSE(sched.nextShard("w1").has_value());  // quota reached
  sched.onUnitDone("j0");
  sched.onShardDone("w0", "j0", a->index);
  EXPECT_TRUE(sched.nextShard("w1").has_value());  // slot freed
}

TEST(Sched, BackpressureRefusesPastMaxQueued) {
  Scheduler::Options so;
  so.max_queued_jobs = 2;
  Scheduler sched(so);
  ASSERT_TRUE(sched.submit("j0", 0, namedUnits(1)));
  ASSERT_TRUE(sched.submit("j1", 0, namedUnits(1)));
  std::string why;
  EXPECT_FALSE(sched.submit("j2", 0, namedUnits(1), 0, &why));
  EXPECT_FALSE(why.empty());
  EXPECT_FALSE(sched.submit("j0", 0, namedUnits(1)));  // duplicate id

  // Finishing a job frees an admission slot.
  const auto shard = sched.nextShard("w0");
  ASSERT_TRUE(shard.has_value());
  sched.onUnitDone(shard->job_id);
  sched.onShardDone("w0", shard->job_id, shard->index);
  EXPECT_TRUE(sched.submit("j2", 0, namedUnits(1)));
}

TEST(Sched, CancelDropsTheQueue) {
  Scheduler::Options so;
  so.units_per_shard = 1;
  Scheduler sched(so);
  ASSERT_TRUE(sched.submit("j0", 0, namedUnits(4)));
  const auto inflight = sched.nextShard("w0");
  ASSERT_TRUE(inflight.has_value());
  ASSERT_TRUE(sched.cancel("j0"));
  EXPECT_FALSE(sched.cancel("j0"));  // already terminal
  EXPECT_FALSE(sched.nextShard("w1").has_value());
  const auto prog = sched.progress("j0");
  ASSERT_TRUE(prog.has_value());
  EXPECT_EQ(prog->state, JobState::Cancelled);
  // The in-flight shard still drains.
  sched.onUnitDone("j0");
  sched.onShardDone("w0", "j0", inflight->index);
  EXPECT_TRUE(sched.idle());
}

TEST(Sched, WorkerGoneFailsItsJobs) {
  Scheduler::Options so;
  so.units_per_shard = 1;
  Scheduler sched(so);
  ASSERT_TRUE(sched.submit("j0", 0, namedUnits(2)));
  ASSERT_TRUE(sched.submit("j1", 0, namedUnits(2)));
  ASSERT_TRUE(sched.nextShard("w0").has_value());  // j0
  ASSERT_TRUE(sched.nextShard("w1").has_value());  // j1
  const auto failed = sched.onWorkerGone("w0");
  ASSERT_EQ(failed.size(), 1u);
  EXPECT_EQ(failed[0], "j0");
  EXPECT_EQ(sched.progress("j0")->state, JobState::Failed);
  // j1 is untouched and still schedulable.
  EXPECT_EQ(sched.progress("j1")->state, JobState::Running);
  EXPECT_TRUE(sched.nextShard("w1").has_value());
}

// --- End to end ---------------------------------------------------------------------------

/// A daemon on its own thread with in-process workers. Stopped by a
/// drain command (not the signal flag) so the test threads never write
/// state the daemon thread reads unsynchronized.
struct DaemonHarness {
  TempDir dir;
  DaemonOptions opts;
  std::unique_ptr<Daemon> daemon;
  std::thread thread;
  bool running = false;

  Endpoint endpoint() const { return opts.endpoint; }

  bool start(const std::string& state_dir, const std::string& cache_dir = "",
             unsigned workers = 2, unsigned fail_after_units = 0) {
    opts.endpoint.kind = Endpoint::Kind::Unix;
    opts.endpoint.path = dir.path + "/sock";
    opts.state_dir = state_dir;
    opts.cache_dir = cache_dir;
    opts.workers = workers;
    opts.thread_workers = true;
    opts.worker_fail_after_units = fail_after_units;
    daemon = std::make_unique<Daemon>(opts);
    std::string err;
    if (!daemon->init(&err)) {
      ADD_FAILURE() << "daemon init: " << err;
      return false;
    }
    thread = std::thread([this] { daemon->run(); });
    running = true;
    return true;
  }

  void drainAndJoin() {
    if (!running) return;
    requestOnce(endpoint(), "{\"cmd\":\"drain\"}");
    thread.join();
    running = false;
  }

  ~DaemonHarness() { drainAndJoin(); }
};

/// submit + watch: streams unit records until the final record lands.
std::optional<JsonValue> submitAndWait(const Endpoint& ep,
                                       const JobSpec& spec,
                                       std::string* job_id = nullptr) {
  std::string err;
  const int fd = connectTo(ep, &err);
  if (fd < 0) {
    ADD_FAILURE() << "connect: " << err;
    return std::nullopt;
  }
  const auto reply = request(
      fd, "{\"cmd\":\"submit\",\"watch\":true,\"spec\":" + spec.toJson() + "}",
      &err);
  std::optional<JsonValue> final_rec;
  if (!reply) {
    ADD_FAILURE() << "submit: " << err;
  } else if (const auto v = parseJson(*reply);
             !v || !v->getBool("ok").value_or(false)) {
    ADD_FAILURE() << "submit refused: " << *reply;
  } else {
    if (job_id) *job_id = v->getString("job").value_or("");
    while (const auto frame = readFrame(fd, &err)) {
      const auto rec = parseJson(*frame);
      if (rec && rec->getString("ev").value_or("") == "final") {
        final_rec = rec;
        break;
      }
    }
    if (!final_rec) ADD_FAILURE() << "watch ended early: " << err;
  }
  ::close(fd);
  return final_rec;
}

/// Job verdict-set fingerprint from its journal: unit -> verdict.
std::map<std::string, std::string> verdictSet(const std::string& state_dir,
                                              const std::string& job_id) {
  std::map<std::string, std::string> out;
  for (const auto& job : JobStore(state_dir).loadAll()) {
    if (job.id != job_id) continue;
    for (const auto& [unit, line] : job.unit_records)
      if (const auto v = parseJson(line))
        out[unit] = v->getString("verdict").value_or("<error>");
  }
  return out;
}

JobSpec quickMutateSpec(std::vector<std::string> ids) {
  JobSpec spec;
  spec.kind = "mutate";
  spec.mutant_ids = std::move(ids);
  spec.max_instr_limit = 2;
  return spec;
}

TEST(ServeE2E, PingAndStatus) {
  DaemonHarness d;
  ASSERT_TRUE(d.start(d.dir.path + "/state"));
  const auto pong = requestOnce(d.endpoint(), "{\"cmd\":\"ping\"}");
  ASSERT_TRUE(pong.has_value());
  EXPECT_NE(pong->find("pong"), std::string::npos);

  const auto status = requestOnce(d.endpoint(), "{\"cmd\":\"status\"}");
  ASSERT_TRUE(status.has_value());
  const auto v = parseJson(*status);
  ASSERT_TRUE(v.has_value());
  EXPECT_TRUE(v->getBool("ok").value_or(false));
  EXPECT_EQ(v->getU64("workers").value_or(0), 2u);

  // The status_record reply is an rvsym-timeseries-v1 status document
  // (what rvsym-top --connect renders).
  const auto rec = requestOnce(d.endpoint(), "{\"cmd\":\"status_record\"}");
  ASSERT_TRUE(rec.has_value());
  const auto rv = parseJson(*rec);
  ASSERT_TRUE(rv.has_value());
  EXPECT_EQ(rv->getString("ev").value_or(""), "status");
  EXPECT_EQ(rv->getString("schema").value_or(""), "rvsym-timeseries-v1");
  EXPECT_EQ(rv->getString("kind").value_or(""), "serve");

  const auto bad = requestOnce(d.endpoint(), "{\"cmd\":\"frobnicate\"}");
  ASSERT_TRUE(bad.has_value());
  EXPECT_NE(bad->find("unknown command"), std::string::npos);
}

TEST(ServeE2E, ConcurrentClientsSubmitAndSteal) {
  DaemonHarness d;
  ASSERT_TRUE(d.start(d.dir.path + "/state", "", /*workers=*/2));

  // Four clients race their submits; two workers pull shards from
  // whichever jobs are pending, so completions interleave.
  const std::vector<std::vector<std::string>> picks = {
      {"dec:srai:b13"},
      {"swap:bne:beq"},
      {"stuck:addi:b0=0"},
      {"dec:srai:b13", "swap:bne:beq"},
  };
  std::vector<std::optional<JsonValue>> finals(picks.size());
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < picks.size(); ++i)
    clients.emplace_back([&, i] {
      finals[i] = submitAndWait(d.endpoint(), quickMutateSpec(picks[i]));
    });
  for (auto& t : clients) t.join();

  for (std::size_t i = 0; i < picks.size(); ++i) {
    ASSERT_TRUE(finals[i].has_value()) << "client " << i;
    EXPECT_EQ(finals[i]->getString("status").value_or(""), "done");
    EXPECT_EQ(finals[i]->getU64("units_done").value_or(0), picks[i].size());
  }
  // Spot-check one deterministic verdict through the aggregate.
  const JsonValue* verdicts = finals[1]->find("verdicts");
  ASSERT_NE(verdicts, nullptr);
  EXPECT_EQ(verdicts->getU64("killed").value_or(0), 1u);
}

TEST(ServeE2E, WorkerCrashFailsJobAndDaemonSurvives) {
  DaemonHarness d;
  // One worker that drops its connection after the first unit.
  ASSERT_TRUE(d.start(d.dir.path + "/state", "", /*workers=*/1,
                      /*fail_after_units=*/1));

  std::string job_id;
  const auto final_rec = submitAndWait(
      d.endpoint(),
      quickMutateSpec({"dec:srai:b13", "swap:bne:beq", "stuck:addi:b0=0"}),
      &job_id);
  ASSERT_TRUE(final_rec.has_value());
  EXPECT_EQ(final_rec->getString("status").value_or(""), "failed");
  // The verdict reported before the crash was journaled.
  EXPECT_GE(final_rec->getU64("units_done").value_or(99), 1u);
  EXPECT_LT(final_rec->getU64("units_done").value_or(99), 3u);

  // The daemon respawned the worker (without the fail hook) and keeps
  // serving: the next job completes.
  const auto second =
      submitAndWait(d.endpoint(), quickMutateSpec({"swap:bne:beq"}));
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->getString("status").value_or(""), "done");
}

TEST(ServeE2E, RestartResumesToIdenticalVerdicts) {
  const std::vector<std::string> ids = {"dec:srai:b13", "dec:srai:b12",
                                        "swap:bne:beq", "stuck:addi:b0=0"};
  // Reference: one uninterrupted run.
  TempDir ref_state;
  std::string ref_job;
  {
    DaemonHarness d;
    ASSERT_TRUE(d.start(ref_state.path, "", /*workers=*/1));
    const auto final_rec =
        submitAndWait(d.endpoint(), quickMutateSpec(ids), &ref_job);
    ASSERT_TRUE(final_rec.has_value());
    ASSERT_EQ(final_rec->getString("status").value_or(""), "done");
  }
  const auto want = verdictSet(ref_state.path, ref_job);
  ASSERT_EQ(want.size(), ids.size());

  // Simulate kill -9 mid-campaign: a journal holding the header and the
  // first two unit verdicts, no final record.
  TempDir cut_state;
  {
    std::ifstream in(JobStore(ref_state.path).journalPath(ref_job),
                     std::ios::binary);
    ASSERT_TRUE(in.good());
    std::ofstream out(JobStore(cut_state.path).journalPath(ref_job),
                      std::ios::binary);
    std::string line;
    for (int kept = 0; kept < 3 && std::getline(in, line); ++kept)
      out << line << "\n";  // header + 2 units
  }

  // Restart on the cut journal: init() resumes the job, judges only the
  // remaining units, and the verdict set converges to the reference.
  DaemonHarness d;
  ASSERT_TRUE(d.start(cut_state.path, "", /*workers=*/1));
  std::string err;
  const int fd = connectTo(d.endpoint(), &err);
  ASSERT_GE(fd, 0) << err;
  const auto reply =
      request(fd, "{\"cmd\":\"watch\",\"job\":\"" + ref_job + "\"}", &err);
  ASSERT_TRUE(reply.has_value()) << err;
  auto rec = parseJson(*reply);
  while (rec && rec->getString("ev").value_or("") != "final") {
    const auto frame = readFrame(fd, &err);
    ASSERT_TRUE(frame.has_value()) << err;
    rec = parseJson(*frame);
  }
  ::close(fd);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->getString("status").value_or(""), "done");
  EXPECT_EQ(rec->getU64("units_done").value_or(0), ids.size());

  EXPECT_EQ(verdictSet(cut_state.path, ref_job), want);
}

TEST(ServeE2E, WarmPersistentCacheCutsSatSolves) {
  const std::vector<std::string> ids = {"dec:srai:b12", "swap:bne:beq",
                                        "stuck:addi:b0=0"};
  TempDir cache;
  const std::string cache_dir = cache.path + "/qc";

  // Cold run: every query is a miss, solved for real, appended to the
  // store; the clean drain compacts the segments into main.rvqc.
  std::uint64_t cold_solves = 0;
  {
    DaemonHarness d;
    ASSERT_TRUE(d.start(d.dir.path + "/state", cache_dir, /*workers=*/1));
    const auto final_rec =
        submitAndWait(d.endpoint(), quickMutateSpec(ids));
    ASSERT_TRUE(final_rec.has_value());
    ASSERT_EQ(final_rec->getString("status").value_or(""), "done");
    cold_solves = final_rec->getU64("qc_sat_solves").value_or(0);
  }
  ASSERT_GE(cold_solves, 2u) << "cold run produced no solver work to cache";

  // Warm run: a fresh daemon + fresh worker on the same store. The
  // identical job must hit the persistent cache for at least half its
  // SAT solves (the acceptance bar; in practice nearly all hit).
  DaemonHarness d;
  ASSERT_TRUE(d.start(d.dir.path + "/state", cache_dir, /*workers=*/1));
  const auto final_rec = submitAndWait(d.endpoint(), quickMutateSpec(ids));
  ASSERT_TRUE(final_rec.has_value());
  ASSERT_EQ(final_rec->getString("status").value_or(""), "done");
  const std::uint64_t warm_solves =
      final_rec->getU64("qc_sat_solves").value_or(0);
  EXPECT_LE(warm_solves * 2, cold_solves)
      << "warm=" << warm_solves << " cold=" << cold_solves;
  EXPECT_GT(final_rec->getU64("qc_hits").value_or(0), 0u);
}

TEST(ServeE2E, CancelQueuedJobFinalizesCancelled) {
  DaemonHarness d;
  // Cancel races the judging, so the terminal status may be cancelled
  // (queue dropped in time) or done (the only shard was already in
  // flight); the contract under test is that a final record always
  // lands on the watch stream and the daemon stays responsive.
  ASSERT_TRUE(d.start(d.dir.path + "/state", "", /*workers=*/1));
  std::string err;
  const int fd = connectTo(d.endpoint(), &err);
  ASSERT_GE(fd, 0) << err;
  const auto reply = request(
      fd,
      "{\"cmd\":\"submit\",\"watch\":true,\"spec\":" +
          quickMutateSpec({"dec:srai:b13", "swap:bne:beq"}).toJson() + "}",
      &err);
  ASSERT_TRUE(reply.has_value()) << err;
  const auto v = parseJson(*reply);
  ASSERT_TRUE(v.has_value());
  ASSERT_TRUE(v->getBool("ok").value_or(false)) << *reply;
  const std::string job_id = v->getString("job").value_or("");

  const auto cancel_reply = requestOnce(
      d.endpoint(), "{\"cmd\":\"cancel\",\"job\":\"" + job_id + "\"}");
  ASSERT_TRUE(cancel_reply.has_value());

  // The watch stream still terminates with a final record.
  std::optional<JsonValue> final_rec;
  while (const auto frame = readFrame(fd, &err)) {
    const auto rec = parseJson(*frame);
    if (rec && rec->getString("ev").value_or("") == "final") {
      final_rec = rec;
      break;
    }
  }
  ::close(fd);
  ASSERT_TRUE(final_rec.has_value()) << err;
  const std::string status = final_rec->getString("status").value_or("");
  EXPECT_TRUE(status == "cancelled" || status == "done") << status;
  EXPECT_TRUE(requestOnce(d.endpoint(), "{\"cmd\":\"ping\"}").has_value());
}

// --- Fleet observability (DESIGN.md §13) --------------------------------------------------

TEST(ServeE2E, MetricsExpositionMatchesJournalAndIsByteStable) {
  DaemonHarness d;
  d.opts.trace_dir = d.dir.path + "/traces";
  ASSERT_TRUE(d.start(d.dir.path + "/state", "", /*workers=*/2));

  std::string j0, j1;
  const auto f0 = submitAndWait(
      d.endpoint(), quickMutateSpec({"dec:srai:b13", "swap:bne:beq"}), &j0);
  const auto f1 =
      submitAndWait(d.endpoint(), quickMutateSpec({"stuck:addi:b0=0"}), &j1);
  ASSERT_TRUE(f0.has_value());
  ASSERT_TRUE(f1.has_value());
  ASSERT_EQ(f0->getString("status").value_or(""), "done");
  ASSERT_EQ(f1->getString("status").value_or(""), "done");

  const auto scrape = [&]() -> std::string {
    const auto reply = requestOnce(d.endpoint(), "{\"cmd\":\"metrics\"}");
    EXPECT_TRUE(reply.has_value());
    if (!reply) return "";
    const auto v = parseJson(*reply);
    EXPECT_TRUE(v.has_value() && v->getBool("ok").value_or(false));
    return v ? v->getString("exposition").value_or("") : "";
  };
  const std::string text = scrape();

  // The acceptance identity: the fleet-wide solver-query counter at
  // quiescence equals the journal solver_checks sums exactly (the
  // worker mirrors the journal field per unit, so no telemetry-vs-
  // journal drift can creep in).
  std::uint64_t journal_checks = 0;
  for (const auto& job : JobStore(d.dir.path + "/state").loadAll())
    for (const auto& [unit, line] : job.unit_records)
      if (const auto v = parseJson(line))
        journal_checks += v->getU64("solver_checks").value_or(0);
  ASSERT_GT(journal_checks, 0u);
  const std::string needle =
      "rvsym_solver_queries_total " + std::to_string(journal_checks) + "\n";
  EXPECT_NE(text.find(needle), std::string::npos)
      << "journal sum " << journal_checks << " not in exposition:\n"
      << text;

  // Per-job series for both jobs, with their terminal state.
  EXPECT_NE(text.find("rvsym_job_state{job=\"" + j0 + "\",state=\"done\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("rvsym_job_state{job=\"" + j1 + "\",state=\"done\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("rvsym_serve_units_recorded_total 3"),
            std::string::npos);

  // No time-derived values render: an idle daemon scrapes byte-stable.
  EXPECT_EQ(text, scrape());

  // The workers request summarizes the same per-source snapshots.
  const auto wreply = requestOnce(d.endpoint(), "{\"cmd\":\"workers\"}");
  ASSERT_TRUE(wreply.has_value());
  const auto wv = parseJson(*wreply);
  ASSERT_TRUE(wv.has_value());
  ASSERT_TRUE(wv->getBool("ok").value_or(false));
  const JsonValue* wlist = wv->find("workers");
  ASSERT_NE(wlist, nullptr);
  EXPECT_GE(wlist->items().size(), 2u);
  std::uint64_t worker_units = 0;
  for (const auto& w : wlist->items())
    worker_units += w.getU64("units").value_or(0);
  EXPECT_EQ(worker_units, 3u);
}

TEST(ServeE2E, RunHistoryAppendsPerFinalizedJob) {
  const std::string state_dir = makeTempDir();
  std::string j0, j1;
  {
    DaemonHarness d;
    ASSERT_TRUE(d.start(state_dir, "", /*workers=*/2));
    const auto f0 = submitAndWait(
        d.endpoint(), quickMutateSpec({"dec:srai:b13", "swap:bne:beq"}), &j0);
    const auto f1 = submitAndWait(d.endpoint(),
                                  quickMutateSpec({"stuck:addi:b0=0"}), &j1);
    ASSERT_TRUE(f0.has_value());
    ASSERT_TRUE(f1.has_value());
  }
  rvsym::obs::fleet::RunHistory store(state_dir + "/runs.rvhx");
  std::vector<std::string> warnings;
  const auto runs = store.loadAll(&warnings);
  EXPECT_TRUE(warnings.empty());
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].job, j0);
  EXPECT_EQ(runs[0].status, "done");
  EXPECT_EQ(runs[0].units_done, 2u);
  EXPECT_GT(runs[0].solver_checks, 0u);
  EXPECT_GT(runs[0].wall_s, 0.0);
  EXPECT_EQ(runs[1].job, j1);
  EXPECT_EQ(runs[1].units_done, 1u);
  // The journal's verdict mix lands in the record.
  std::uint64_t verdict_total = 0;
  for (const auto& [name, n] : runs[0].verdicts) verdict_total += n;
  EXPECT_EQ(verdict_total, 2u);
  fs::remove_all(state_dir);
}

TEST(ServeE2E, TraceDirYieldsMergeableChromeTraces) {
  DaemonHarness d;
  d.opts.trace_dir = d.dir.path + "/traces";
  ASSERT_TRUE(d.start(d.dir.path + "/state", "", /*workers=*/2));
  std::string job_id;
  const auto final_rec = submitAndWait(
      d.endpoint(), quickMutateSpec({"dec:srai:b13", "swap:bne:beq"}),
      &job_id);
  ASSERT_TRUE(final_rec.has_value());
  d.drainAndJoin();

  // The daemon trace always exists; at least one worker judged units.
  EXPECT_TRUE(fs::exists(d.opts.trace_dir + "/daemon.trace.json"));
  std::size_t worker_traces = 0;
  for (const auto& ent : fs::directory_iterator(d.opts.trace_dir))
    if (ent.path().filename().string().rfind("worker-", 0) == 0)
      ++worker_traces;
  ASSERT_GE(worker_traces, 1u);

  const std::string out = d.opts.trace_dir + "/merged.trace.json";
  std::string err;
  const auto stats =
      rvsym::obs::fleet::mergeChromeTraceDir(d.opts.trace_dir, out, &err);
  ASSERT_TRUE(stats.has_value()) << err;
  EXPECT_EQ(stats->files, 1u + worker_traces);

  // The merged timeline holds the job -> shard -> unit containment
  // within the worker's pid.
  const std::ifstream in(out, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  const auto doc = parseJson(buf.str());
  ASSERT_TRUE(doc.has_value());
  const JsonValue* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::optional<JsonValue> job_span, shard_span;
  for (const auto& ev : events->items()) {
    if (ev.getString("ph").value_or("") != "X") continue;
    const std::string name = ev.getString("name").value_or("");
    // The worker-side job envelope (the daemon also emits one under its
    // own pid; the worker's carries the shard).
    if (name == "job " + job_id && ev.getU64("pid").value_or(0) != 1)
      job_span = ev;
    if (name == "shard " + job_id + "/0") shard_span = ev;
  }
  ASSERT_TRUE(job_span.has_value());
  ASSERT_TRUE(shard_span.has_value());
  EXPECT_EQ(job_span->getU64("pid").value_or(0),
            shard_span->getU64("pid").value_or(0));
  const std::uint64_t jts = job_span->getU64("ts").value_or(0);
  const std::uint64_t jdur = job_span->getU64("dur").value_or(0);
  const std::uint64_t sts = shard_span->getU64("ts").value_or(0);
  const std::uint64_t sdur = shard_span->getU64("dur").value_or(0);
  EXPECT_LE(jts, sts);
  EXPECT_LE(sts + sdur, jts + jdur);
}

}  // namespace
