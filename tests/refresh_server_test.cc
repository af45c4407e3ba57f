#include "net/refresh_server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "net/channel.h"
#include "net/remote_site.h"
#include "snapshot/snapshot_manager.h"

namespace snapdiff {
namespace {

Schema EmpSchema() {
  return Schema({{"Name", TypeId::kString, false},
                 {"Salary", TypeId::kInt64, false}});
}

Tuple Row(std::string name, int64_t salary) {
  return Tuple({Value::String(std::move(name)), Value::Int64(salary)});
}

std::vector<Address> Load(BaseTable* base, int rows) {
  std::vector<Address> addrs;
  for (int i = 0; i < rows; ++i) {
    auto addr = base->Insert(Row("e" + std::to_string(i), i % 100));
    EXPECT_TRUE(addr.ok());
    addrs.push_back(*addr);
  }
  return addrs;
}

/// Deterministic churn round: updates, deletes, inserts — identical given
/// identical inputs, so twin systems stay bit-equal. Callers serving
/// concurrently hold serve_mutex() themselves.
void Churn(BaseTable* base, std::vector<Address>* addrs, int round) {
  // Replacement rows must not outgrow the slot: sequential loads pack
  // pages tight, and in-place update cannot grow in a full page. "u<i>"
  // is never longer than the "e<j≥i>"/"n<k≥100>" name it replaces.
  for (size_t i = round % 3; i < addrs->size(); i += 7) {
    ASSERT_TRUE(base->Update((*addrs)[i],
                             Row("u" + std::to_string(i),
                                 static_cast<int64_t>((i * 3 + round) % 100)))
                    .ok());
  }
  for (size_t i = addrs->size() - 1; i > 0; i -= 13) {
    ASSERT_TRUE(base->Delete((*addrs)[i]).ok());
    addrs->erase(addrs->begin() + static_cast<ptrdiff_t>(i));
    if (i < 13) break;
  }
  for (int i = 0; i < 8; ++i) {
    auto addr = base->Insert(Row("n" + std::to_string(round * 100 + i),
                                 static_cast<int64_t>((i * 11 + round) % 100)));
    ASSERT_TRUE(addr.ok());
    addrs->push_back(*addr);
  }
}

void ExpectReplicaFaithful(SnapshotSystem* sys, const std::string& name,
                           SnapshotTable* replica) {
  auto expected = sys->ExpectedContents(name);
  ASSERT_TRUE(expected.ok());
  auto actual = replica->Contents();
  ASSERT_TRUE(actual.ok());
  ASSERT_EQ(actual->size(), expected->size());
  for (const auto& [addr, row] : *expected) {
    ASSERT_TRUE(actual->contains(addr)) << "missing " << addr.ToString();
    EXPECT_TRUE(actual->at(addr).Equals(row)) << "differs at "
                                              << addr.ToString();
  }
  ASSERT_TRUE(replica->ValidateIndex().ok());
}

void WaitFor(const std::function<bool()>& pred) {
  for (int i = 0; i < 1000 && !pred(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_TRUE(pred());
}

std::string UnixAddr(const std::string& tag) {
  return "unix:" + testing::TempDir() + "snapdiff_" + tag + ".sock";
}

TEST(RefreshServerTest, AttachRefreshAckOverUnixSocket) {
  SnapshotSystem sys;
  auto base = sys.CreateBaseTable("emp", EmpSchema());
  ASSERT_TRUE(base.ok());
  std::vector<Address> addrs = Load(*base, 200);
  ASSERT_TRUE(sys.CreateSnapshot("low", "emp", "Salary < 50").ok());

  ServerOptions options;
  options.listen_addr = UnixAddr("attach");
  RefreshServer server(&sys, options);
  ASSERT_TRUE(server.Start().ok());

  auto site = RemoteSnapshotSite::Connect(server.bound_addr(), "low");
  ASSERT_TRUE(site.ok());
  auto report = (*site)->Refresh();
  ASSERT_TRUE(report.ok());
  EXPECT_NE(report->session_id, 0u);
  EXPECT_EQ(report->resumes, 0u);
  ExpectReplicaFaithful(&sys, "low", (*site)->table());
  const Timestamp first_snap_time = (*site)->table()->snap_time();
  EXPECT_NE(first_snap_time, kNullTimestamp);

  {
    std::lock_guard<std::mutex> lock(sys.serve_mutex());
    Churn(*base, &addrs, 1);
  }
  auto second = (*site)->Refresh();
  ASSERT_TRUE(second.ok());
  ExpectReplicaFaithful(&sys, "low", (*site)->table());
  EXPECT_GT((*site)->table()->snap_time(), first_snap_time);

  WaitFor([&] { return server.stats().acks >= 2; });
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.connections_accepted, 1u);
  EXPECT_EQ(stats.hellos, 1u);
  EXPECT_EQ(stats.sessions_served, 2u);
  EXPECT_EQ(stats.resumes, 0u);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_GT(server.AggregateTransportStats().wire_bytes, 0u);
  server.Stop();
}

TEST(RefreshServerTest, AttachUnknownSnapshotRejected) {
  SnapshotSystem sys;
  ASSERT_TRUE(sys.CreateBaseTable("emp", EmpSchema()).ok());
  RefreshServer server(&sys, ServerOptions{.listen_addr = UnixAddr("bad")});
  ASSERT_TRUE(server.Start().ok());
  auto site = RemoteSnapshotSite::Connect(server.bound_addr(), "nope");
  EXPECT_TRUE(site.status().IsInvalidArgument());
  WaitFor([&] { return server.stats().errors >= 1; });
  server.Stop();
}

TEST(RefreshServerTest, ServerAtCapacityRejectsExtraClient) {
  SnapshotSystem sys;
  auto base = sys.CreateBaseTable("emp", EmpSchema());
  ASSERT_TRUE(base.ok());
  Load(*base, 10);
  ASSERT_TRUE(sys.CreateSnapshot("all", "emp", "TRUE").ok());
  ServerOptions options;
  options.listen_addr = UnixAddr("capacity");
  options.max_connections = 1;
  RefreshServer server(&sys, options);
  ASSERT_TRUE(server.Start().ok());

  auto first = RemoteSnapshotSite::Connect(server.bound_addr(), "all");
  ASSERT_TRUE(first.ok());
  auto second = RemoteSnapshotSite::Connect(server.bound_addr(), "all");
  EXPECT_FALSE(second.ok());
  EXPECT_EQ(server.stats().connections_rejected, 1u);
  server.Stop();
}

/// The serve stream over a real socket must be byte-identical to the same
/// serve into an in-process Channel — for all five refresh methods. Twin
/// systems are driven through identical operation sequences; the reference
/// stream is collected from a plain Channel, the socket stream from the
/// client's admitted-message recording.
class ByteIdentityTest : public ::testing::TestWithParam<RefreshMethod> {};

TEST_P(ByteIdentityTest, SocketStreamMatchesInProcessChannel) {
  const RefreshMethod method = GetParam();

  SnapshotSystem ref_sys;
  SnapshotSystem srv_sys;
  auto ref_base = ref_sys.CreateBaseTable("emp", EmpSchema());
  auto srv_base = srv_sys.CreateBaseTable("emp", EmpSchema());
  ASSERT_TRUE(ref_base.ok());
  ASSERT_TRUE(srv_base.ok());
  std::vector<Address> ref_addrs = Load(*ref_base, 80);
  std::vector<Address> srv_addrs = Load(*srv_base, 80);

  SnapshotOptions snap_options;
  snap_options.method = method;
  ASSERT_TRUE(
      ref_sys.CreateSnapshot("snap", "emp", "Salary < 60", snap_options)
          .ok());
  ASSERT_TRUE(
      srv_sys.CreateSnapshot("snap", "emp", "Salary < 60", snap_options)
          .ok());
  auto ref_info = ref_sys.DescribeSnapshot("snap");
  ASSERT_TRUE(ref_info.ok());

  ServerOptions server_options;
  server_options.listen_addr =
      UnixAddr("ident" + std::string(RefreshMethodToString(method)));
  RefreshServer server(&srv_sys, server_options);
  ASSERT_TRUE(server.Start().ok());
  RemoteSiteOptions site_options;
  site_options.record_stream = true;
  auto site =
      RemoteSnapshotSite::Connect(server.bound_addr(), "snap", site_options);
  ASSERT_TRUE(site.ok());

  const auto reference_stream =
      [&](Timestamp client_time) -> std::vector<std::string> {
    Channel channel;
    SnapshotSystem::ServeRequest request;
    request.snapshot_id = ref_info->id;
    request.client_snap_time = client_time;
    auto outcome = ref_sys.ServeRefresh(request, &channel);
    EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
    std::vector<std::string> stream;
    while (channel.HasPending()) {
      auto msg = channel.Receive();
      EXPECT_TRUE(msg.ok());
      std::string bytes;
      msg->SerializeTo(&bytes);
      stream.push_back(std::move(bytes));
    }
    if (outcome.ok() && outcome->session_id != 0) {
      EXPECT_TRUE(
          ref_sys.AcknowledgeServe(ref_info->id, outcome->session_id).ok());
    }
    return stream;
  };

  const auto expect_identical = [&](int round) {
    const Timestamp client_time = (*site)->table()->snap_time();
    (*site)->ClearRecordedStream();
    auto report = (*site)->Refresh();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    const std::vector<std::string> expected = reference_stream(client_time);
    const std::vector<std::string>& actual = (*site)->recorded_stream();
    ASSERT_EQ(actual.size(), expected.size()) << "round " << round;
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(actual[i], expected[i])
          << "round " << round << " message " << i << " differs";
    }
    ExpectReplicaFaithful(&srv_sys, "snap", (*site)->table());
  };

  expect_identical(1);

  if (method != RefreshMethod::kAsap) {
    // ASAP serves only the initial copy remotely; every other method
    // refreshes incrementally after identical churn on both twins.
    Churn(*ref_base, &ref_addrs, 1);
    {
      std::lock_guard<std::mutex> lock(srv_sys.serve_mutex());
      Churn(*srv_base, &srv_addrs, 1);
    }
    expect_identical(2);
  }
  server.Stop();
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, ByteIdentityTest,
    ::testing::Values(RefreshMethod::kFull, RefreshMethod::kDifferential,
                      RefreshMethod::kIdeal, RefreshMethod::kLogBased,
                      RefreshMethod::kAsap),
    [](const ::testing::TestParamInfo<RefreshMethod>& info) {
      std::string name(RefreshMethodToString(info.param));
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(RefreshServerTest, MidRefreshDisconnectCompletesViaResume) {
  SnapshotSystem sys;
  auto base = sys.CreateBaseTable("emp", EmpSchema());
  ASSERT_TRUE(base.ok());
  std::vector<Address> addrs = Load(*base, 300);
  ASSERT_TRUE(sys.CreateSnapshot("low", "emp", "Salary < 80").ok());

  RefreshServer server(&sys,
                       ServerOptions{.listen_addr = UnixAddr("resume")});
  ASSERT_TRUE(server.Start().ok());
  auto site = RemoteSnapshotSite::Connect(server.bound_addr(), "low");
  ASSERT_TRUE(site.ok());
  ASSERT_TRUE((*site)->Refresh().ok());
  ExpectReplicaFaithful(&sys, "low", (*site)->table());

  {
    std::lock_guard<std::mutex> lock(sys.serve_mutex());
    Churn(*base, &addrs, 1);
  }

  // Kill the connection after 10 stream messages: the server's 11th send
  // fails, it closes the connection mid-refresh, the client reconnects and
  // RESUMEs — and the base suppresses exactly the 10-message prefix the
  // client already applied.
  constexpr uint64_t kDeliveredBeforeKill = 10;
  server.ArmLiveConnections(FaultPlan::PartitionAfter(kDeliveredBeforeKill));
  auto report = (*site)->Refresh();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GE(report->reconnects, 1u);
  EXPECT_EQ(report->resumes, 1u);
  EXPECT_EQ(report->duplicates_dropped, 0u);
  ExpectReplicaFaithful(&sys, "low", (*site)->table());

  WaitFor([&] { return server.stats().acks >= 2; });
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.resumes, 1u);
  // Exact unapplied-suffix accounting: the resumed serve suppressed
  // precisely the messages delivered before the kill, nothing else.
  EXPECT_EQ(stats.suppressed_messages, kDeliveredBeforeKill);
  EXPECT_EQ(stats.sessions_served, 2u);  // initial + the resumed serve
  server.Stop();
}

TEST(RefreshServerTest, ResumeOfEvictedSessionFallsBackToFreshServe) {
  SnapshotSystem sys;
  auto base = sys.CreateBaseTable("emp", EmpSchema());
  ASSERT_TRUE(base.ok());
  Load(*base, 60);
  ASSERT_TRUE(sys.CreateSnapshot("a", "emp", "Salary < 40").ok());
  ASSERT_TRUE(sys.CreateSnapshot("b", "emp", "Salary >= 40").ok());
  auto a_info = sys.DescribeSnapshot("a");
  auto b_info = sys.DescribeSnapshot("b");
  ASSERT_TRUE(a_info.ok());
  ASSERT_TRUE(b_info.ok());

  // Serve A but never acknowledge: its session stays live, pinning its
  // scan epoch.
  Channel a_wire;
  SnapshotSystem::ServeRequest a_request;
  a_request.snapshot_id = a_info->id;
  auto a_outcome = sys.ServeRefresh(a_request, &a_wire);
  ASSERT_TRUE(a_outcome.ok());

  // Serving B over the same base table steals nothing: A's dangling
  // session holds only its scan epoch, so B streams right past it.
  Channel b_wire;
  SnapshotSystem::ServeRequest b_request;
  b_request.snapshot_id = b_info->id;
  auto b_outcome = sys.ServeRefresh(b_request, &b_wire);
  ASSERT_TRUE(b_outcome.ok()) << b_outcome.status().ToString();
  ASSERT_TRUE(sys.AcknowledgeServe(b_info->id, b_outcome->session_id).ok());

  // What does evict A's first session is a *fresh* serve of A itself
  // (supersession: the client abandoned the stream and re-demanded).
  Channel a2_wire;
  auto a2_outcome = sys.ServeRefresh(a_request, &a2_wire);
  ASSERT_TRUE(a2_outcome.ok());
  EXPECT_NE(a2_outcome->session_id, a_outcome->session_id);
  ASSERT_TRUE(
      sys.AcknowledgeServe(a_info->id, a2_outcome->session_id).ok());

  // The superseded session's late acknowledgement finds no session
  // (harmless)...
  EXPECT_TRUE(
      sys.AcknowledgeServe(a_info->id, a_outcome->session_id).IsNotFound());

  // ... and A's RESUME falls back to a fresh session: new id, nothing
  // suppressed, full stream from the client's snap time.
  Channel resume_wire;
  SnapshotSystem::ServeRequest resume_request;
  resume_request.snapshot_id = a_info->id;
  resume_request.resume_session_id = a_outcome->session_id;
  resume_request.resume_after_seq = 5;
  auto resumed = sys.ServeRefresh(resume_request, &resume_wire);
  ASSERT_TRUE(resumed.ok());
  EXPECT_FALSE(resumed->resumed);
  EXPECT_NE(resumed->session_id, a_outcome->session_id);
  EXPECT_EQ(resumed->suppressed, 0u);
}

TEST(RefreshServerTest, ConcurrentClientsAcrossBaseTables) {
  SnapshotSystem sys;
  constexpr int kTables = 3;
  std::vector<BaseTable*> bases;
  std::vector<std::vector<Address>> addrs(kTables);
  for (int t = 0; t < kTables; ++t) {
    auto base = sys.CreateBaseTable("t" + std::to_string(t), EmpSchema());
    ASSERT_TRUE(base.ok());
    bases.push_back(*base);
    addrs[t] = Load(*base, 120);
    ASSERT_TRUE(sys.CreateSnapshot("s" + std::to_string(t),
                                   "t" + std::to_string(t), "Salary < 70")
                    .ok());
  }
  RefreshServer server(
      &sys, ServerOptions{.listen_addr = UnixAddr("concurrent")});
  ASSERT_TRUE(server.Start().ok());

  std::vector<std::unique_ptr<RemoteSnapshotSite>> sites;
  for (int t = 0; t < kTables; ++t) {
    auto site = RemoteSnapshotSite::Connect(server.bound_addr(),
                                            "s" + std::to_string(t));
    ASSERT_TRUE(site.ok());
    sites.push_back(std::move(*site));
  }

  for (int round = 0; round < 3; ++round) {
    std::atomic<int> failures{0};
    std::vector<std::thread> workers;
    for (int t = 0; t < kTables; ++t) {
      workers.emplace_back([&, t] {
        if (!sites[t]->Refresh().ok()) failures.fetch_add(1);
      });
    }
    for (auto& w : workers) w.join();
    EXPECT_EQ(failures.load(), 0);
    for (int t = 0; t < kTables; ++t) {
      ExpectReplicaFaithful(&sys, "s" + std::to_string(t),
                            sites[t]->table());
    }
    std::lock_guard<std::mutex> lock(sys.serve_mutex());
    for (int t = 0; t < kTables; ++t) {
      Churn(bases[t], &addrs[t], round + 1);
    }
  }
  server.Stop();
}

TEST(RefreshServerTest, StopWakesIdleConnections) {
  SnapshotSystem sys;
  auto base = sys.CreateBaseTable("emp", EmpSchema());
  ASSERT_TRUE(base.ok());
  Load(*base, 10);
  ASSERT_TRUE(sys.CreateSnapshot("all", "emp", "TRUE").ok());
  auto server = std::make_unique<RefreshServer>(
      &sys, ServerOptions{.listen_addr = UnixAddr("stop")});
  ASSERT_TRUE(server->Start().ok());
  auto site = RemoteSnapshotSite::Connect(server->bound_addr(), "all");
  ASSERT_TRUE(site.ok());
  ASSERT_TRUE((*site)->Refresh().ok());
  // The client sits idle-connected; Stop must not hang on its handler.
  server->Stop();
  server.reset();
  // With the server gone the next refresh exhausts its reconnects.
  RemoteSiteOptions fast;
  fast.reconnect_attempts = 1;
  fast.reconnect_backoff_ms = 1;
  auto orphan = RemoteSnapshotSite::Connect("unix:/nonexistent/nope.sock",
                                            "all", fast);
  EXPECT_FALSE(orphan.ok());
}

}  // namespace
}  // namespace snapdiff
