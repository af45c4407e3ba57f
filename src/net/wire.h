#ifndef SNAPDIFF_NET_WIRE_H_
#define SNAPDIFF_NET_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "catalog/schema.h"
#include "common/result.h"
#include "common/status.h"
#include "net/message.h"

namespace snapdiff::wire {

/// Socket-layer plumbing for the refresh server: address parsing, blocking
/// connect/listen/accept, and the framed message stream — every protocol
/// message travels as [u32 length][Message serialization], the same
/// length-prefixed framing the in-process serialization already uses for
/// payloads.
///
/// Addresses: "host:port" (TCP; port 0 picks a free port) or
/// "unix:/path/to.sock" (Unix domain, the form tests use).

struct ParsedAddr {
  bool is_unix = false;
  std::string host;   // TCP only
  uint16_t port = 0;  // TCP only
  std::string path;   // Unix only
};

Result<ParsedAddr> ParseAddr(const std::string& addr);

/// Binds + listens. Returns the listening fd. A pre-existing Unix socket
/// file at the path is unlinked first (stale leftover of a dead server).
Result<int> Listen(const std::string& addr, int backlog);

/// The address the fd actually bound ("host:port" with the resolved port,
/// or "unix:/path") — what clients should dial after listening on port 0.
Result<std::string> BoundAddr(int listen_fd);

/// Blocking accept. Unavailable when the listener was shut down. An
/// accepted TCP connection has Nagle disabled (TCP_NODELAY), like Connect's.
Result<int> Accept(int listen_fd);

/// Blocking connect to a ParseAddr-style address (TCP_NODELAY on TCP).
Result<int> Connect(const std::string& addr);

/// Wakes threads blocked in ReadMessage/Accept on `fd`, then closes it.
void ShutdownAndClose(int fd);
void CloseFd(int fd);

Status WriteFull(int fd, const char* data, size_t n);
/// Unavailable on EOF or peer reset.
Status ReadFull(int fd, char* data, size_t n);

/// One framed message: [u32 len][Message bytes].
Status WriteMessage(int fd, const Message& msg);
/// Writes an already-serialized message (avoids re-serializing when the
/// caller metered the bytes already).
Status WriteFrame(int fd, const std::string& serialized);
Result<Message> ReadMessage(int fd);

/// True when a framed message can be read without blocking.
bool Readable(int fd);

/// Schema payload of HELLO_ACK: [u32 column_count] then per column
/// [len-prefixed name][u8 type][u8 nullable].
void SerializeSchema(const Schema& schema, std::string* dst);
Result<Schema> DeserializeSchema(std::string_view* input);

}  // namespace snapdiff::wire

#endif  // SNAPDIFF_NET_WIRE_H_
