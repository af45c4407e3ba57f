#include "net/socket_transport.h"

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <algorithm>
#include <string>
#include <vector>

#include "net/channel.h"
#include "net/wire.h"

namespace snapdiff {
namespace {

Address A(uint64_t raw) { return Address::FromRaw(raw); }

/// A representative stream touching every accounting category.
std::vector<Message> SampleStream() {
  std::vector<Message> stream;
  stream.push_back(MakeClear(7));
  for (int i = 0; i < 5; ++i) {
    stream.push_back(
        MakeEntry(7, A(10 + i), A(9 + i), "payload" + std::to_string(i)));
  }
  stream.push_back(MakeUpsert(7, A(99), "upsert-payload"));
  stream.push_back(MakeDeleteMsg(7, A(3)));
  stream.push_back(MakeDeleteRange(7, A(40), A(50)));
  stream.push_back(MakeEndOfRefresh(7, A(14), 123));
  return stream;
}

TEST(WireAddrTest, ParsesTcpAndUnixForms) {
  auto tcp = wire::ParseAddr("127.0.0.1:8042");
  ASSERT_TRUE(tcp.ok());
  EXPECT_FALSE(tcp->is_unix);
  EXPECT_EQ(tcp->host, "127.0.0.1");
  EXPECT_EQ(tcp->port, 8042);

  auto unix_addr = wire::ParseAddr("unix:/tmp/srv.sock");
  ASSERT_TRUE(unix_addr.ok());
  EXPECT_TRUE(unix_addr->is_unix);
  EXPECT_EQ(unix_addr->path, "/tmp/srv.sock");

  EXPECT_FALSE(wire::ParseAddr("no-port-here").ok());
  EXPECT_FALSE(wire::ParseAddr("host:").ok());
  EXPECT_FALSE(wire::ParseAddr("host:notaport").ok());
  EXPECT_FALSE(wire::ParseAddr("host:70000").ok());
  EXPECT_FALSE(wire::ParseAddr("unix:").ok());
}

TEST(WireTest, SchemaRoundTrips) {
  Schema schema({{"Name", TypeId::kString, false},
                 {"Salary", TypeId::kInt64, true},
                 {"Hired", TypeId::kTimestamp, false}});
  std::string bytes;
  wire::SerializeSchema(schema, &bytes);
  std::string_view in = bytes;
  auto back = wire::DeserializeSchema(&in);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(in.empty());
  EXPECT_TRUE(back->Equals(schema));
}

TEST(WireTest, TcpListenConnectFramedRoundTrip) {
  auto listener = wire::Listen("127.0.0.1:0", 4);
  ASSERT_TRUE(listener.ok());
  auto addr = wire::BoundAddr(*listener);
  ASSERT_TRUE(addr.ok());
  EXPECT_NE(addr->find(':'), std::string::npos);

  auto client = wire::Connect(*addr);
  ASSERT_TRUE(client.ok());
  auto served = wire::Accept(*listener);
  ASSERT_TRUE(served.ok());

  const Message sent = MakeEntry(3, A(11), A(10), "tcp-payload");
  ASSERT_TRUE(wire::WriteMessage(*client, sent).ok());
  auto received = wire::ReadMessage(*served);
  ASSERT_TRUE(received.ok());
  EXPECT_EQ(*received, sent);

  wire::ShutdownAndClose(*client);
  // EOF surfaces as Unavailable, not a hang or a crash.
  EXPECT_TRUE(wire::ReadMessage(*served).status().IsUnavailable());
  wire::ShutdownAndClose(*served);
  wire::ShutdownAndClose(*listener);
}

/// Refresh streams end in small frames; Nagle on either end would hold
/// them for the peer's delayed ACK, so both fds must carry TCP_NODELAY.
TEST(WireTest, TcpBothEndsDisableNagle) {
  auto listener = wire::Listen("127.0.0.1:0", 4);
  ASSERT_TRUE(listener.ok());
  auto addr = wire::BoundAddr(*listener);
  ASSERT_TRUE(addr.ok());
  auto client = wire::Connect(*addr);
  ASSERT_TRUE(client.ok());
  auto served = wire::Accept(*listener);
  ASSERT_TRUE(served.ok());

  for (const int fd : {*client, *served}) {
    int nodelay = 0;
    socklen_t len = sizeof(nodelay);
    ASSERT_EQ(::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, &len), 0);
    EXPECT_EQ(nodelay, 1) << (fd == *client ? "connected" : "accepted")
                          << " end runs Nagle";
  }
  wire::ShutdownAndClose(*client);
  wire::ShutdownAndClose(*served);
  wire::ShutdownAndClose(*listener);
}

TEST(WireTest, UnixListenConnectRoundTrip) {
  const std::string addr =
      "unix:" + testing::TempDir() + "wire_unix_test.sock";
  auto listener = wire::Listen(addr, 4);
  ASSERT_TRUE(listener.ok());
  auto bound = wire::BoundAddr(*listener);
  ASSERT_TRUE(bound.ok());
  EXPECT_EQ(*bound, addr);

  auto client = wire::Connect(addr);
  ASSERT_TRUE(client.ok());
  auto served = wire::Accept(*listener);
  ASSERT_TRUE(served.ok());
  const Message sent = MakeHello("emp_low");
  ASSERT_TRUE(wire::WriteMessage(*client, sent).ok());
  auto received = wire::ReadMessage(*served);
  ASSERT_TRUE(received.ok());
  EXPECT_EQ(*received, sent);
  wire::ShutdownAndClose(*client);
  wire::ShutdownAndClose(*served);
  wire::ShutdownAndClose(*listener);
}

TEST(SocketTransportTest, LoopbackRoundTripsEveryMessageShape) {
  auto pair = MakeLoopbackPair();
  ASSERT_TRUE(pair.ok());
  std::vector<Message> stream = SampleStream();
  stream.push_back(MakeHello("snap"));
  stream.push_back(MakeHelloAck(7, "schema-bytes"));
  stream.push_back(MakeSessionAck(7, 42, 17));
  stream.push_back(MakeServerError("boom"));
  stream.push_back(MakeResumeRefresh(7, 42, 17));
  stream.push_back(MakeRefreshRequest(7, 55, "Salary < 10"));
  for (const Message& msg : stream) {
    ASSERT_TRUE(pair->first->Send(msg).ok()) << msg.ToString();
  }
  for (const Message& msg : stream) {
    ASSERT_TRUE(pair->second->HasPending());
    auto got = pair->second->Receive();
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, msg);
  }
  EXPECT_FALSE(pair->second->HasPending());
}

TEST(SocketTransportTest, MetersBitIdenticalToChannel) {
  Channel channel;
  auto pair = MakeLoopbackPair();
  ASSERT_TRUE(pair.ok());
  for (const Message& msg : SampleStream()) {
    ASSERT_TRUE(channel.Send(msg).ok());
    ASSERT_TRUE(pair->first->Send(msg).ok());
  }
  const ChannelStats& a = channel.stats();
  const ChannelStats& b = pair->first->stats();
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.entry_messages, b.entry_messages);
  EXPECT_EQ(a.delete_messages, b.delete_messages);
  EXPECT_EQ(a.control_messages, b.control_messages);
  EXPECT_EQ(a.batched_entries, b.batched_entries);
  EXPECT_EQ(a.payload_bytes, b.payload_bytes);
  EXPECT_EQ(a.wire_bytes, b.wire_bytes);
  EXPECT_EQ(a.frames, b.frames);
}

TEST(SocketTransportTest, FiredPartitionRejectsBeforeTheWire) {
  auto pair = MakeLoopbackPair();
  ASSERT_TRUE(pair.ok());
  pair->first->Arm(FaultPlan::PartitionNow());
  EXPECT_TRUE(pair->first->Send(MakeClear(1)).IsUnavailable());
  EXPECT_EQ(pair->first->fault_phase(), FaultPhase::kFired);
  EXPECT_EQ(pair->first->stats().send_failures, 1u);
  EXPECT_FALSE(pair->second->HasPending());  // nothing reached the socket

  pair->first->Heal();
  EXPECT_TRUE(pair->first->Send(MakeClear(1)).ok());
  auto got = pair->second->Receive();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->type, MessageType::kClear);
}

TEST(SocketTransportTest, PartitionAfterNSendsFiresMidStream) {
  auto pair = MakeLoopbackPair();
  ASSERT_TRUE(pair.ok());
  pair->first->Arm(FaultPlan::PartitionAfter(3));
  int delivered = 0;
  for (int i = 0; i < 5; ++i) {
    if (pair->first->Send(MakeUpsert(1, A(i), "v")).ok()) ++delivered;
  }
  EXPECT_EQ(delivered, 3);
  EXPECT_EQ(pair->first->fault_phase(), FaultPhase::kFired);
  for (int i = 0; i < delivered; ++i) {
    EXPECT_TRUE(pair->second->Receive().ok());
  }
  EXPECT_FALSE(pair->second->HasPending());
}

TEST(SocketTransportTest, ResetStatsHonorsFaultLifecycleContract) {
  auto pair = MakeLoopbackPair();
  ASSERT_TRUE(pair.ok());
  SocketTransport* t = pair->first.get();

  // Armed-but-unfired plan: ResetStats disarms (fresh baseline = honest
  // link).
  t->Arm(FaultPlan::DropEvery(2));
  EXPECT_EQ(t->fault_phase(), FaultPhase::kArmed);
  t->ResetStats();
  EXPECT_EQ(t->fault_phase(), FaultPhase::kIdle);
  EXPECT_EQ(t->stats().messages, 0u);
  ASSERT_TRUE(t->Send(MakeClear(1)).ok());
  ASSERT_TRUE(t->Send(MakeClear(1)).ok());  // not dropped: plan disarmed
  EXPECT_TRUE(pair->second->Receive().ok());
  EXPECT_TRUE(pair->second->Receive().ok());

  // Fired partition: a real outage persists across ResetStats until healed.
  t->Arm(FaultPlan::PartitionNow());
  EXPECT_TRUE(t->Send(MakeClear(1)).IsUnavailable());
  t->ResetStats();
  EXPECT_TRUE(t->partitioned());
  EXPECT_TRUE(t->Send(MakeClear(1)).IsUnavailable());
  t->Heal();
  EXPECT_TRUE(t->Send(MakeClear(1)).ok());
}

TEST(SocketTransportTest, DropConsumesWireWithoutDelivering) {
  auto pair = MakeLoopbackPair();
  ASSERT_TRUE(pair.ok());
  pair->first->Arm(FaultPlan::DropEvery(2));
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(pair->first->Send(MakeUpsert(1, A(i), "v")).ok());
  }
  EXPECT_EQ(pair->first->stats().messages, 4u);  // metered: wire consumed
  EXPECT_EQ(pair->first->stats().dropped_messages, 2u);
  std::vector<Message> got;
  while (pair->second->HasPending()) {
    auto msg = pair->second->Receive();
    ASSERT_TRUE(msg.ok());
    got.push_back(*msg);
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].base_addr, A(0));
  EXPECT_EQ(got[1].base_addr, A(2));
}

TEST(SocketTransportTest, DuplicateDeliversTwiceMetersOnce) {
  auto pair = MakeLoopbackPair();
  ASSERT_TRUE(pair.ok());
  pair->first->Arm(FaultPlan::DuplicateEvery(2));
  ASSERT_TRUE(pair->first->Send(MakeUpsert(1, A(0), "v")).ok());
  ASSERT_TRUE(pair->first->Send(MakeUpsert(1, A(1), "v")).ok());
  EXPECT_EQ(pair->first->stats().messages, 2u);
  EXPECT_EQ(pair->first->stats().duplicated_messages, 1u);
  std::vector<Message> got;
  while (pair->second->HasPending()) {
    auto msg = pair->second->Receive();
    ASSERT_TRUE(msg.ok());
    got.push_back(*msg);
  }
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[1].base_addr, A(1));
  EXPECT_EQ(got[2].base_addr, A(1));
}

TEST(SocketTransportTest, ReorderDisplacesWithinWindow) {
  auto pair = MakeLoopbackPair();
  ASSERT_TRUE(pair.ok());
  pair->first->Arm(FaultPlan::Reorder(/*window=*/4, /*seed=*/7));
  const int kSends = 32;
  for (int i = 0; i < kSends; ++i) {
    ASSERT_TRUE(pair->first->Send(MakeUpsert(1, A(i), "v")).ok());
  }
  pair->first->FlushFrame();  // drain frames held back by the window
  std::vector<uint64_t> order;
  while (pair->second->HasPending()) {
    auto msg = pair->second->Receive();
    ASSERT_TRUE(msg.ok());
    order.push_back(msg->base_addr.raw());
  }
  ASSERT_EQ(order.size(), static_cast<size_t>(kSends));
  // Every message arrives exactly once ...
  std::vector<uint64_t> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < kSends; ++i) EXPECT_EQ(sorted[i], static_cast<uint64_t>(i));
  // ... but not in FIFO order, and the meter saw the displacements.
  bool fifo = true;
  for (int i = 0; i < kSends; ++i) {
    if (order[i] != static_cast<uint64_t>(i)) fifo = false;
  }
  EXPECT_FALSE(fifo);
  EXPECT_GT(pair->first->stats().reordered_messages, 0u);
}

TEST(SocketTransportTest, SendAfterPeerClosedMetersSendFailure) {
  auto pair = MakeLoopbackPair();
  ASSERT_TRUE(pair.ok());
  pair->second->Close();
  Status sent = pair->first->Send(MakeClear(1));
  // A socketpair write after peer close raises EPIPE immediately.
  EXPECT_TRUE(sent.IsUnavailable());
  EXPECT_EQ(pair->first->stats().send_failures, 1u);
}

}  // namespace
}  // namespace snapdiff
