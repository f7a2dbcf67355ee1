// Tests of coordinator-mode serving (serve/shard.hpp, DESIGN.md §15): the
// shard verbs on a stock daemon (register / heartbeat / lease streaming,
// and the no-checkpoint contract for leased units), the coordinator's
// merge — byte-identical to a single-process run, with the merged commit
// order equal to rows.jsonl order so `results --from=N` offsets stay
// stable — exactly-once commit under duplicate (stolen) lease completion
// and under a rejected lease whose stolen twin still runs, lease expiry +
// re-dispatch when a shard dies mid-job, a unit that fails to execute
// failing its job alike on a plain daemon and through a shard, and
// coordinator restart resuming a sharded job on the same checkpoint root.
//
// Shards here are real in-process Servers behind real unix listen sockets
// — the coordinator's fleet connects through the same connect_address path
// the daemon uses, so the full transport (framing, spec resend, row
// streaming, fd shutdown on death) is exercised, not a mock. One test
// scripts a shard by hand (ScriptedShard) to order a rejection and a
// stolen twin's rows deterministically.
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/api.hpp"
#include "api/spec_json.hpp"
#include "expt/runner.hpp"
#include "scen/family.hpp"
#include "scen/registry.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/shard.hpp"
#include "util/json.hpp"
#include "util/socket.hpp"

namespace api = tcgrid::api;
namespace platform = tcgrid::platform;
namespace scen = tcgrid::scen;
namespace serve = tcgrid::serve;
namespace util = tcgrid::util;
namespace json = tcgrid::util::json;

namespace {

std::string fresh_root(const std::string& tag) {
  const std::string root = ::testing::TempDir() + "tcgrid_shard_" + tag + "_" +
                           std::to_string(::getpid());
  std::filesystem::remove_all(root);
  return root;
}

/// Same shape as serve_test's tiny sweep: (2 * wmin_count) scenarios x
/// `trials` trials x 2 heuristics, 2 rows per unit.
api::ExperimentSpec tiny_spec(int trials = 2, int wmin_count = 2) {
  api::ExperimentSpec spec;
  spec.grid.ms = {3};
  spec.grid.ncoms = {5};
  spec.grid.wmins.clear();
  for (long w = 1; w <= wmin_count; ++w) spec.grid.wmins.push_back(w);
  spec.grid.scenarios_per_cell = 2;
  spec.grid.p = 8;
  spec.grid.iterations = 5;
  spec.heuristics = {"RANDOM", "IE"};
  spec.trials = trials;
  spec.options.slot_cap = 50'000;
  return spec;
}

/// An in-process daemon behind a real unix listen socket — what a shard (or
/// a coordinator reached over its socket) is in production. kill() has hard
/// kill -9 semantics for everything in flight: connections die, nothing
/// uncommitted survives, and the socket starts refusing connects.
struct Daemon {
  Daemon(const serve::ServerOptions& opts, std::string socket_path)
      : socket(std::move(socket_path)),
        server(std::make_unique<serve::Server>(opts)),
        listen_fd(util::listen_unix(socket)) {
    acceptor = std::thread([this] { server->serve(listen_fd.get()); });
  }
  ~Daemon() { kill(); }

  void kill() {
    if (server == nullptr) return;
    server->hard_stop();
    acceptor.join();
    listen_fd.reset();  // connects now fail: the death is visible, not hung
    server.reset();
  }

  std::string socket;
  std::unique_ptr<serve::Server> server;
  util::Fd listen_fd;
  std::thread acceptor;
};

/// One client connection over the daemon's real socket.
class Client {
 public:
  explicit Client(const std::string& socket_path)
      : fd_(util::connect_address(socket_path)), ch_(fd_.get()) {}

  json::Value roundtrip(const std::string& request) {
    EXPECT_TRUE(ch_.write_line(request));
    std::string line;
    EXPECT_TRUE(ch_.read_line(line));
    return json::parse(line);
  }

  std::pair<std::vector<std::string>, json::Value> stream_results(
      const std::string& job, std::size_t from = 0, bool wait = true) {
    EXPECT_TRUE(ch_.write_line(serve::results_request(job, from, wait)));
    std::vector<std::string> rows;
    std::string line;
    while (ch_.read_line(line)) {
      const json::Value v = json::parse(line);
      if (const json::Value* type = v.find("type");
          type != nullptr && type->is_string() && type->as_string() == "end") {
        return {std::move(rows), v};
      }
      rows.push_back(line);
    }
    ADD_FAILURE() << "stream ended without an end record";
    return {std::move(rows), json::Value()};
  }

  json::Value submit(const api::ExperimentSpec& spec, const std::string& tenant,
                     const std::string& job = "") {
    return roundtrip(serve::submit_request(tenant, api::spec_to_json(spec), job));
  }

  /// Drive the lease verb by hand: returns unit -> raw row lines. Fails the
  /// test on anything but clean unit streams + lease_done.
  std::map<std::size_t, std::vector<std::string>> lease(
      const std::string& ref, const std::string& tenant,
      const std::vector<std::size_t>& units, const std::string& spec_json) {
    EXPECT_TRUE(ch_.write_line(serve::lease_request(ref, tenant, units, spec_json)));
    std::map<std::size_t, std::vector<std::string>> out;
    std::string line;
    while (ch_.read_line(line)) {
      const json::Value v = json::parse(line);
      const json::Value* type = v.find("type");
      const std::string kind =
          type != nullptr && type->is_string() ? type->as_string() : "";
      if (kind == "lease_done") return out;
      if (kind != "unit") {
        ADD_FAILURE() << "unexpected lease response: " << line;
        return out;
      }
      const std::size_t unit = static_cast<std::size_t>(v.find("unit")->as_uint());
      const std::size_t n = static_cast<std::size_t>(v.find("rows")->as_uint());
      std::vector<std::string> rows;
      for (std::size_t i = 0; i < n; ++i) {
        std::string row;
        EXPECT_TRUE(ch_.read_line(row));
        rows.push_back(std::move(row));
      }
      out.emplace(unit, std::move(rows));
    }
    ADD_FAILURE() << "lease stream ended without lease_done";
    return out;
  }

 private:
  util::Fd fd_;
  util::LineChannel ch_;
};

bool is_ok(const json::Value& v) {
  const json::Value* ok = v.find("ok");
  return ok != nullptr && ok->is_bool() && ok->as_bool();
}

std::string error_of(const json::Value& v) {
  const json::Value* e = v.find("error");
  return e != nullptr && e->is_string() ? e->as_string() : "";
}

std::vector<std::string> sorted(std::vector<std::string> rows) {
  std::sort(rows.begin(), rows.end());
  return rows;
}

std::vector<std::string> file_rows(const std::string& path) {
  std::vector<std::string> rows;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) rows.push_back(line);
  }
  return rows;
}

/// Single-process reference run of `spec`: the byte-set every sharded
/// arrangement must reproduce.
std::vector<std::string> reference_rows(const api::ExperimentSpec& spec,
                                        const std::string& tag) {
  serve::ServerOptions opts;
  opts.root = fresh_root(tag);
  opts.threads = 2;
  Daemon daemon(opts, fresh_root(tag + "_sock") + ".sock");
  Client client(daemon.socket);
  const json::Value ack = client.submit(spec, "alice", "ref");
  EXPECT_TRUE(is_ok(ack)) << error_of(ack);
  return sorted(client.stream_results("ref").first);
}

serve::ServerOptions shard_opts(const std::string& tag) {
  serve::ServerOptions opts;
  opts.root = fresh_root(tag);
  opts.threads = 2;
  return opts;
}

serve::ServerOptions coordinator_opts(const std::string& tag,
                                      std::vector<std::string> shards) {
  serve::ServerOptions opts;
  opts.root = fresh_root(tag);
  opts.coordinator = true;
  opts.shard.shards = std::move(shards);
  opts.shard.heartbeat_interval_ms = 100;
  opts.shard.heartbeat_timeout_ms = 500;
  return opts;
}

/// A hand-scripted shard on a real unix socket: answers `register` (with
/// the given eps and worker-thread count) and `heartbeat` like a stock
/// daemon, and passes every `lease` request to `on_lease` on that
/// connection's own thread, to answer however the test needs.
class ScriptedShard {
 public:
  using OnLease = std::function<void(util::LineChannel&)>;

  ScriptedShard(std::string socket_path, double eps, std::size_t threads, OnLease on_lease)
      : socket(std::move(socket_path)),
        eps_(eps),
        threads_(threads),
        on_lease_(std::move(on_lease)),
        listen_fd_(util::listen_unix(socket)),
        acceptor_([this] { accept_loop(); }) {}
  ~ScriptedShard() {
    stopping_ = true;
    acceptor_.join();
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const util::Fd& fd : conn_fds_) ::shutdown(fd.get(), SHUT_RDWR);
    }
    for (std::thread& t : conn_threads_) t.join();
  }

  const std::string socket;

 private:
  void accept_loop() {
    while (!stopping_) {
      pollfd pfd{listen_fd_.get(), POLLIN, 0};
      if (::poll(&pfd, 1, 50) <= 0) continue;
      util::Fd conn = util::accept_connection(listen_fd_.get());
      if (!conn.valid()) continue;
      std::lock_guard<std::mutex> lock(mu_);
      const int fd = conn.get();
      conn_fds_.push_back(std::move(conn));
      conn_threads_.emplace_back([this, fd] { serve(fd); });
    }
  }

  void serve(int fd) {
    util::LineChannel ch(fd);
    std::string line;
    while (ch.read_line(line)) {
      std::string op;
      try {
        op = json::parse(line).find("op")->as_string();
      } catch (const std::exception&) {
        ADD_FAILURE() << "unparseable request: " << line;
        return;
      }
      if (op == "register") {
        ch.write_line(json::dump(json::Object{{"ok", true},
                                              {"type", "registered"},
                                              {"threads", static_cast<unsigned long long>(threads_)},
                                              {"eps", eps_},
                                              {"coordinator", false}}));
      } else if (op == "heartbeat") {
        ch.write_line(json::dump(json::Object{{"ok", true}, {"type", "pong"}}));
      } else if (op == "lease") {
        on_lease_(ch);
      } else {
        ch.write_line(json::dump(json::Object{{"ok", false}, {"error", "op: unscripted"}}));
      }
    }
  }

  const double eps_;
  const std::size_t threads_;
  const OnLease on_lease_;
  util::Fd listen_fd_;
  std::atomic<bool> stopping_{false};
  std::mutex mu_;
  std::vector<util::Fd> conn_fds_;  ///< closed only after every thread joined
  std::vector<std::thread> conn_threads_;
  std::thread acceptor_;
};

/// Markov availability, except that make_source throws for every trial of
/// one scenario (recognized by its trial seeds): a unit that fails to
/// execute on whichever daemon runs it.
class PoisonedFamily final : public scen::AvailabilityFamily {
 public:
  static constexpr const char* kError = "poisoned scenario";

  PoisonedFamily(std::string name, std::set<std::uint64_t> seeds)
      : name_(std::move(name)), base_(scen::make_markov_family()), seeds_(std::move(seeds)) {}

  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] std::unique_ptr<platform::AvailabilitySource> make_source(
      const platform::Platform& platform, std::uint64_t seed,
      platform::InitialStates init) const override {
    if (seeds_.count(seed) != 0) throw std::runtime_error(kError);
    return base_->make_source(platform, seed, init);
  }

 private:
  std::string name_;
  std::shared_ptr<const scen::AvailabilityFamily> base_;
  std::set<std::uint64_t> seeds_;
};

/// Poll `counters` until `tenant`'s in-flight unit count reads 0 or ten
/// seconds pass; returns the last reading.
std::uint64_t drained_inflight(Client& client, const std::string& tenant) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (true) {
    const json::Value counters = client.roundtrip(serve::counters_request());
    const std::uint64_t inflight =
        counters.find("tenants")->find(tenant)->find("inflight")->as_uint();
    if (inflight == 0 || std::chrono::steady_clock::now() > deadline) return inflight;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

TEST(Shard, StockServerSpeaksTheShardVerbs) {
  serve::ServerOptions opts = shard_opts("verbs");
  Daemon shard(opts, fresh_root("verbs_sock") + ".sock");
  Client client(shard.socket);

  // register: the slot-sizing handshake (no "shard" field = not a
  // fleet-join; that form needs a coordinator and is rejected here).
  json::Value resp = client.roundtrip(serve::register_request());
  ASSERT_TRUE(is_ok(resp)) << error_of(resp);
  EXPECT_EQ(resp.find("type")->as_string(), "registered");
  EXPECT_EQ(resp.find("threads")->as_uint(), 2u);
  EXPECT_FALSE(resp.find("coordinator")->as_bool());

  resp = client.roundtrip(serve::register_request("unix:/nowhere.sock"));
  EXPECT_FALSE(is_ok(resp));
  EXPECT_NE(error_of(resp).find("coordinator"), std::string::npos) << error_of(resp);

  resp = client.roundtrip(serve::heartbeat_request());
  ASSERT_TRUE(is_ok(resp)) << error_of(resp);
  EXPECT_EQ(resp.find("type")->as_string(), "pong");

  // lease with an unknown reference and no spec: the error carries the
  // need_spec hint the coordinator's resend path keys on.
  const api::ExperimentSpec spec = tiny_spec();
  resp = client.roundtrip(serve::lease_request("leasejob", "alice", {0}));
  EXPECT_FALSE(is_ok(resp));
  EXPECT_TRUE(resp.find("need_spec") != nullptr &&
              resp.find("need_spec")->as_bool())
      << json::dump(resp);

  // With the spec attached, every leased unit streams its rows — and the
  // full lease reproduces exactly the rows a local submit of the same spec
  // computes, because both are the same pure function of (spec, unit).
  const std::string spec_json = json::dump(api::spec_to_json(spec));
  const std::size_t units = spec.unit_count();
  ASSERT_EQ(units, 8u);
  std::vector<std::size_t> all_units(units);
  for (std::size_t u = 0; u < units; ++u) all_units[u] = u;
  const auto leased = client.lease("leasejob", "alice", all_units, spec_json);
  ASSERT_EQ(leased.size(), units);
  std::vector<std::string> lease_rows;
  for (const auto& [unit, rows] : leased) {
    EXPECT_EQ(rows.size(), 2u) << "unit " << unit;  // 2 heuristics
    lease_rows.insert(lease_rows.end(), rows.begin(), rows.end());
  }
  // Spec is cached per connection: a follow-up lease without it works.
  const auto again = client.lease("leasejob", "alice", {0}, "");
  ASSERT_EQ(again.size(), 1u);
  EXPECT_EQ(again.at(0), leased.at(0));

  const json::Value ack = client.submit(spec, "alice", "local");
  ASSERT_TRUE(is_ok(ack)) << error_of(ack);
  const auto [local_rows, end] = client.stream_results("local");
  EXPECT_EQ(end.find("state")->as_string(), "done");
  EXPECT_EQ(sorted(lease_rows), sorted(local_rows));

  // Leased units are the coordinator's to checkpoint, never the shard's:
  // no job directory appeared under the shard's root for the lease ref.
  EXPECT_FALSE(std::filesystem::exists(opts.root + "/leasejob"));

  // Out-of-range unit ids are named at the wire.
  resp = client.roundtrip(serve::lease_request("leasejob", "alice", {units}));
  EXPECT_FALSE(is_ok(resp));
  EXPECT_NE(error_of(resp).find("out of range"), std::string::npos) << error_of(resp);
}

TEST(Shard, CoordinatorMergesByteIdenticalToSingleProcess) {
  const api::ExperimentSpec spec = tiny_spec(/*trials=*/4, /*wmin_count=*/3);
  const std::vector<std::string> reference = reference_rows(spec, "merge_ref");
  ASSERT_EQ(reference.size(), 48u);

  Daemon shard1(shard_opts("merge_s1"), fresh_root("merge_s1_sock") + ".sock");
  Daemon shard2(shard_opts("merge_s2"), fresh_root("merge_s2_sock") + ".sock");
  serve::ServerOptions copts =
      coordinator_opts("merge_coord", {shard1.socket, shard2.socket});
  Daemon coord(copts, fresh_root("merge_coord_sock") + ".sock");
  Client client(coord.socket);

  const json::Value ack = client.submit(spec, "alice", "sweep");
  ASSERT_TRUE(is_ok(ack)) << error_of(ack);
  const auto [rows, end] = client.stream_results("sweep");
  EXPECT_EQ(end.find("state")->as_string(), "done");
  EXPECT_EQ(sorted(rows), reference);

  // The merge layer preserves the §11 offset invariant: the streamed
  // (in-memory) order IS the rows.jsonl commit order, so `results --from=N`
  // indexes one well-defined sequence.
  EXPECT_EQ(rows, file_rows(copts.root + "/sweep/rows.jsonl"));

  // Both shards actually served (work stealing pulls from both), and the
  // counters verb exposes the coordinator block.
  const serve::ShardFleet::Counters c = coord.server->shard_fleet()->counters();
  EXPECT_EQ(c.shards, 2u);
  EXPECT_GE(c.leased_units, 24u);
  const json::Value counters = client.roundtrip(serve::counters_request());
  ASSERT_TRUE(is_ok(counters));
  const json::Value* coord_block = counters.find("coordinator");
  ASSERT_NE(coord_block, nullptr);
  EXPECT_EQ(coord_block->find("shards")->as_uint(), 2u);
  EXPECT_GE(coord_block->find("leased_units")->as_uint(), 24u);
}

TEST(Shard, DuplicateLeaseCompletionCommitsExactlyOnce) {
  // Drive the dispatch surface directly: claim every unit, steal one (a
  // second lease on an in-flight unit), complete BOTH leases with the same
  // rows. Exactly one commit lands; the loser reports Duplicate and the
  // checkpoint holds each row once.
  const api::ExperimentSpec spec = tiny_spec();  // 8 units
  const std::size_t units = spec.unit_count();

  // A stock daemon computes the rows for us via the lease verb — the same
  // bytes any shard would stream.
  Daemon shard(shard_opts("dup_rows"), fresh_root("dup_rows_sock") + ".sock");
  Client shard_client(shard.socket);
  std::vector<std::size_t> all_units(units);
  for (std::size_t u = 0; u < units; ++u) all_units[u] = u;
  const auto rows_of = shard_client.lease("ref", "alice", all_units,
                                          json::dump(api::spec_to_json(spec)));
  ASSERT_EQ(rows_of.size(), units);

  serve::ServerOptions copts = coordinator_opts("dup_coord", {});
  Daemon coord(copts, fresh_root("dup_coord_sock") + ".sock");
  Client client(coord.socket);
  const json::Value ack = client.submit(spec, "alice", "sweep");
  ASSERT_TRUE(is_ok(ack)) << error_of(ack);

  // No shards are attached, so these claims are the only dispatch path.
  std::vector<serve::Server::Lease> leases;
  for (std::size_t i = 0; i < units; ++i) {
    auto lease = coord.server->claim_for_dispatch(/*allow_steal=*/false);
    ASSERT_TRUE(lease.has_value());
    EXPECT_FALSE(lease->stolen);
    leases.push_back(std::move(*lease));
  }
  // Nothing is pending: the fleet block counts every unit in flight.
  const json::Value before = client.roundtrip(serve::counters_request());
  ASSERT_TRUE(is_ok(before));
  EXPECT_EQ(before.find("fleet")->find("queue_depth")->as_uint(), 0u);
  EXPECT_EQ(before.find("fleet")->find("inflight_units")->as_uint(), units);

  auto stolen = coord.server->claim_for_dispatch(/*allow_steal=*/true);
  ASSERT_TRUE(stolen.has_value());
  EXPECT_TRUE(stolen->stolen);
  const std::size_t victim = stolen->unit;

  // The stolen (duplicate) lease wins the race; the original must dedup.
  EXPECT_EQ(coord.server->commit_lease(*stolen, rows_of.at(victim), 0),
            serve::Server::LeaseCommit::Committed);
  for (const auto& lease : leases) {
    const auto rc = coord.server->commit_lease(lease, rows_of.at(lease.unit), 0);
    EXPECT_EQ(rc, lease.unit == victim ? serve::Server::LeaseCommit::Duplicate
                                       : serve::Server::LeaseCommit::Committed);
  }

  const auto status = coord.server->wait_job("sweep");
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, "done");
  const auto [rows, end] = client.stream_results("sweep");
  EXPECT_EQ(end.find("state")->as_string(), "done");
  EXPECT_EQ(rows.size(), units * 2);
  // Every row exactly once — in memory and in the checkpoint.
  std::set<std::string> unique(rows.begin(), rows.end());
  EXPECT_EQ(unique.size(), rows.size());
  EXPECT_EQ(rows, file_rows(copts.root + "/sweep/rows.jsonl"));

  // A return after completion is a no-op, not a resurrection.
  coord.server->return_lease(leases.front());
  EXPECT_EQ(coord.server->job_status("sweep")->state, "done");
}

TEST(Shard, SiblingClaimsStayInsideTheScenario) {
  // Scenario-affine batching: try_claim_sibling hands out the remaining
  // trials of the held lease's scenario — and nothing else — so whole
  // scenarios travel to one shard (their estimator is built once there).
  const api::ExperimentSpec spec = tiny_spec(/*trials=*/4);  // 4 scenarios
  Daemon coord(coordinator_opts("sibling", {}), fresh_root("sibling_sock") + ".sock");
  Client client(coord.socket);
  ASSERT_TRUE(is_ok(client.submit(spec, "alice", "sweep")));

  auto first = coord.server->claim_for_dispatch(/*allow_steal=*/false);
  ASSERT_TRUE(first.has_value());
  const std::size_t scenario = api::unit_scenario(first->unit, spec.trials);

  // Exactly trials-1 siblings, every one from the same scenario.
  std::vector<serve::Server::Lease> held{std::move(*first)};
  for (std::size_t i = 1; i < static_cast<std::size_t>(spec.trials); ++i) {
    auto sib = coord.server->try_claim_sibling(held.back());
    ASSERT_TRUE(sib.has_value()) << "sibling " << i;
    EXPECT_EQ(api::unit_scenario(sib->unit, spec.trials), scenario);
    EXPECT_FALSE(sib->stolen);
    held.push_back(std::move(*sib));
  }
  // The scenario is exhausted: no fourth sibling, even though other
  // scenarios still have pending units (a fresh claim finds one).
  EXPECT_FALSE(coord.server->try_claim_sibling(held.back()).has_value());
  auto next = coord.server->claim_for_dispatch(/*allow_steal=*/false);
  ASSERT_TRUE(next.has_value());
  EXPECT_NE(api::unit_scenario(next->unit, spec.trials), scenario);

  // Returned leases re-dispatch; the job still runs to completion through
  // the normal surface (no fleet attached, so claims are the only path).
  coord.server->return_lease(*next);
  for (const auto& lease : held) coord.server->return_lease(lease);
  EXPECT_EQ(coord.server->job_status("sweep")->state, "running");
}

TEST(Shard, RejectedLeaseResolvesOnceWhileItsStolenTwinRuns) {
  // A one-unit job on a scripted 2-thread shard: one slot claims the unit,
  // the other steals it. The shard rejects the first lease that arrives
  // and answers the twin with rows only after the coordinator failed the
  // job. The rejected lease must resolve exactly once — releasing it twice
  // re-queues the unit under the running twin, and the twin's commit then
  // drives the in-flight counters below zero.
  api::ExperimentSpec spec = tiny_spec(/*trials=*/1, /*wmin_count=*/1);
  spec.grid.scenarios_per_cell = 1;
  ASSERT_EQ(spec.unit_count(), 1u);
  const std::vector<std::string> rows = reference_rows(spec, "reject_ref");
  ASSERT_EQ(rows.size(), 2u);

  std::mutex mu;
  std::condition_variable cv;
  int leases = 0;
  bool release_twin = false;
  auto on_lease = [&](util::LineChannel& ch) {
    std::unique_lock<std::mutex> lock(mu);
    const int nth = ++leases;
    cv.notify_all();
    if (nth == 1) {
      cv.wait_for(lock, std::chrono::seconds(10), [&] { return leases >= 2; });
      lock.unlock();
      ch.write_line(R"({"ok":false,"error":"lease rejected by script"})");
      return;
    }
    cv.wait_for(lock, std::chrono::seconds(10), [&] { return release_twin; });
    lock.unlock();
    ch.write_line(R"({"ok":true,"type":"unit","unit":0,"rows":2})");
    for (const std::string& row : rows) ch.write_line(row);
    ch.write_line(R"({"ok":true,"type":"lease_done","units":1})");
  };
  ScriptedShard shard(fresh_root("reject_shard") + ".sock", serve::ServerOptions{}.eps,
                      /*threads=*/2, on_lease);
  Daemon coord(coordinator_opts("reject_coord", {shard.socket}),
               fresh_root("reject_coord_sock") + ".sock");
  Client client(coord.socket);
  ASSERT_TRUE(is_ok(client.submit(spec, "alice", "one")));

  const auto status = coord.server->wait_job("one");
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, "failed");
  EXPECT_EQ(status->error, "lease rejected by script");
  // Give the rejecting slot time to finish resolving its batch, then let
  // the twin's rows in.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  {
    std::lock_guard<std::mutex> lock(mu);
    release_twin = true;
  }
  cv.notify_all();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (coord.server->job_status("one")->units_done < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(coord.server->job_status("one")->units_done, 1u) << "the twin never committed";
  EXPECT_EQ(drained_inflight(client, "alice"), 0u);
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(leases, 2);
}

TEST(Shard, UnitExecutionFailureFailsTheJobAlikeLocallyAndThroughAShard) {
  // One scenario's units throw inside Session::run_unit. A plain daemon
  // (local workers) and a coordinator over one in-process shard (the
  // unit_failed path) must agree: the job fails with the thrown message,
  // the scenario contributes no rows to the checkpoint, and every other
  // in-flight unit of the failed job still resolves.
  api::ExperimentSpec spec = tiny_spec(/*trials=*/2);  // 4 scenarios
  spec.scenario_space.availability = "shard-test-poisoned";
  const std::size_t poisoned = 1;
  const platform::Scenario victim =
      scen::platform_family("paper")->make(spec.scenarios()[poisoned]);
  std::set<std::uint64_t> seeds;
  for (int t = 0; t < spec.trials; ++t) seeds.insert(tcgrid::expt::trial_seed(victim, t));
  scen::register_availability_family(
      std::make_shared<PoisonedFamily>("shard-test-poisoned", seeds));

  auto expect_failed = [&](Daemon& front, const std::string& root, const std::string& where) {
    Client client(front.socket);
    const json::Value ack = client.submit(spec, "alice", "sweep");
    ASSERT_TRUE(is_ok(ack)) << where << ": " << error_of(ack);
    const auto status = front.server->wait_job("sweep");
    ASSERT_TRUE(status.has_value()) << where;
    EXPECT_EQ(status->state, "failed") << where;
    EXPECT_EQ(status->error, PoisonedFamily::kError) << where;
    EXPECT_EQ(drained_inflight(client, "alice"), 0u) << where;
    for (const std::string& row : file_rows(root + "/sweep/rows.jsonl")) {
      EXPECT_NE(json::parse(row).find("scenario")->as_uint(), poisoned) << where << ": " << row;
    }
  };

  {
    const serve::ServerOptions opts = shard_opts("fail_local");
    Daemon local(opts, fresh_root("fail_local_sock") + ".sock");
    expect_failed(local, opts.root, "local workers");
  }
  Daemon shard(shard_opts("fail_shard"), fresh_root("fail_shard_sock") + ".sock");
  const serve::ServerOptions copts = coordinator_opts("fail_coord", {shard.socket});
  Daemon coord(copts, fresh_root("fail_coord_sock") + ".sock");
  expect_failed(coord, copts.root, "coordinator");
}

TEST(Shard, ShardDeathMidJobExpiresLeasesAndStaysByteIdentical) {
  const api::ExperimentSpec spec = tiny_spec(/*trials=*/8, /*wmin_count=*/3);
  const std::vector<std::string> reference = reference_rows(spec, "kill_ref");
  ASSERT_EQ(reference.size(), 96u);

  // shard1 is a one-slot scripted shard that takes a lease and holds it
  // open, unanswered, until it dies — so it provably dies mid-lease. shard2
  // comes up only after that death and absorbs the whole job.
  std::mutex mu;
  std::condition_variable cv;
  bool holding = false;
  bool dying = false;
  auto on_lease = [&](util::LineChannel&) {
    std::unique_lock<std::mutex> lock(mu);
    holding = true;
    cv.notify_all();
    cv.wait_for(lock, std::chrono::seconds(10), [&] { return dying; });
  };
  auto shard1 = std::make_unique<ScriptedShard>(
      fresh_root("kill_s1") + ".sock", serve::ServerOptions{}.eps, /*threads=*/1, on_lease);
  const std::string shard2_socket = fresh_root("kill_s2_sock") + ".sock";
  serve::ServerOptions copts = coordinator_opts("kill_coord", {shard1->socket, shard2_socket});
  Daemon coord(copts, fresh_root("kill_coord_sock") + ".sock");
  Client client(coord.socket);

  const json::Value ack = client.submit(spec, "alice", "sweep");
  ASSERT_TRUE(is_ok(ack)) << error_of(ack);

  // Kill shard1 while it holds its lease: its connections die, and the
  // coordinator re-queues what the lease held.
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10), [&] { return holding; }))
        << "shard1 never took a lease";
    dying = true;
  }
  cv.notify_all();
  shard1.reset();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (coord.server->shard_fleet()->counters().redispatched_units == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_GT(coord.server->shard_fleet()->counters().redispatched_units, 0u)
      << "the kill expired no leases";

  Daemon shard2(shard_opts("kill_s2"), shard2_socket);
  const auto status = coord.server->wait_job("sweep");
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, "done") << "job did not survive the shard death";

  const auto [rows, end] = client.stream_results("sweep");
  EXPECT_EQ(end.find("state")->as_string(), "done");
  EXPECT_EQ(sorted(rows), reference);
  EXPECT_EQ(rows, file_rows(copts.root + "/sweep/rows.jsonl"));
}

TEST(Shard, CoordinatorRestartResumesMergedJobWithStableOffsets) {
  const api::ExperimentSpec spec = tiny_spec(/*trials=*/6, /*wmin_count=*/3);
  const std::vector<std::string> reference = reference_rows(spec, "resume_ref");
  ASSERT_EQ(reference.size(), 72u);

  // Shards are stateless and outlive the coordinator: the same pair serves
  // both coordinator lifetimes.
  Daemon shard1(shard_opts("resume_s1"), fresh_root("resume_s1_sock") + ".sock");
  Daemon shard2(shard_opts("resume_s2"), fresh_root("resume_s2_sock") + ".sock");
  serve::ServerOptions copts =
      coordinator_opts("resume_coord", {shard1.socket, shard2.socket});

  std::vector<std::string> before_kill;
  {
    Daemon coord(copts, fresh_root("resume_coord_sock1") + ".sock");
    Client client(coord.socket);
    const json::Value ack = client.submit(spec, "alice", "sweep");
    ASSERT_TRUE(is_ok(ack)) << error_of(ack);
    coord.server->wait_units("sweep", 2);
    before_kill = client.stream_results("sweep", 0, /*wait=*/false).first;
    coord.kill();  // hard stop: in-flight leases die uncommitted
  }

  Daemon coord(copts, fresh_root("resume_coord_sock2") + ".sock");
  const auto at_restart = coord.server->job_status("sweep");
  ASSERT_TRUE(at_restart.has_value());
  EXPECT_GE(at_restart->units_done, 2u);
  EXPECT_LT(at_restart->units_done, 36u)
      << "job finished before the kill; nothing was resumed";
  const auto status = coord.server->wait_job("sweep");
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, "done");

  Client client(coord.socket);
  const auto [rows, end] = client.stream_results("sweep");
  EXPECT_EQ(end.find("state")->as_string(), "done");
  EXPECT_EQ(sorted(rows), reference);

  // The offset contract across restarts: the restart rebuilt job->rows in
  // rows.jsonl order, committed-prefix rows kept their indexes, and a
  // --from=N re-read returns exactly the tail of the same sequence.
  EXPECT_EQ(rows, file_rows(copts.root + "/sweep/rows.jsonl"));
  ASSERT_GE(before_kill.size(), 1u);
  EXPECT_TRUE(std::equal(before_kill.begin(), before_kill.end(), rows.begin()))
      << "committed prefix changed order across the restart";
  const auto [tail, tail_end] = client.stream_results("sweep", rows.size() - 5);
  EXPECT_EQ(tail, std::vector<std::string>(rows.end() - 5, rows.end()));
  EXPECT_EQ(tail_end.find("rows")->as_uint(), rows.size());
}

}  // namespace
