#include "net/wire.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/coding.h"

namespace snapdiff::wire {

namespace {

std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

/// Refresh streams are many small framed messages; don't let Nagle batch
/// them against the peer's delayed-ACK clock. Applies to both ends of a TCP
/// connection; unix sockets have no Nagle.
void DisableNagle(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

Result<ParsedAddr> ParseAddr(const std::string& addr) {
  ParsedAddr parsed;
  if (addr.rfind("unix:", 0) == 0) {
    parsed.is_unix = true;
    parsed.path = addr.substr(5);
    if (parsed.path.empty()) {
      return Status::InvalidArgument("empty unix socket path in " + addr);
    }
    if (parsed.path.size() >= sizeof(sockaddr_un{}.sun_path)) {
      return Status::InvalidArgument("unix socket path too long: " + addr);
    }
    return parsed;
  }
  const size_t colon = addr.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == addr.size()) {
    return Status::InvalidArgument(
        "address must be host:port or unix:/path, got " + addr);
  }
  parsed.host = addr.substr(0, colon);
  unsigned long port = 0;
  const std::string port_text = addr.substr(colon + 1);
  for (char c : port_text) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument("bad port in " + addr);
    }
    port = port * 10 + static_cast<unsigned long>(c - '0');
    if (port > 65535) return Status::InvalidArgument("bad port in " + addr);
  }
  parsed.port = static_cast<uint16_t>(port);
  return parsed;
}

namespace {

Result<int> OpenSocket(const ParsedAddr& parsed) {
  const int fd =
      ::socket(parsed.is_unix ? AF_UNIX : AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Internal(Errno("socket"));
  return fd;
}

Status FillSockaddr(const ParsedAddr& parsed, sockaddr_storage* storage,
                    socklen_t* len) {
  std::memset(storage, 0, sizeof(*storage));
  if (parsed.is_unix) {
    auto* sun = reinterpret_cast<sockaddr_un*>(storage);
    sun->sun_family = AF_UNIX;
    std::strncpy(sun->sun_path, parsed.path.c_str(),
                 sizeof(sun->sun_path) - 1);
    *len = static_cast<socklen_t>(sizeof(sockaddr_un));
    return Status::OK();
  }
  auto* sin = reinterpret_cast<sockaddr_in*>(storage);
  sin->sin_family = AF_INET;
  sin->sin_port = htons(parsed.port);
  if (::inet_pton(AF_INET, parsed.host.c_str(), &sin->sin_addr) != 1) {
    return Status::InvalidArgument("bad IPv4 host: " + parsed.host);
  }
  *len = static_cast<socklen_t>(sizeof(sockaddr_in));
  return Status::OK();
}

}  // namespace

Result<int> Listen(const std::string& addr, int backlog) {
  ASSIGN_OR_RETURN(ParsedAddr parsed, ParseAddr(addr));
  ASSIGN_OR_RETURN(int fd, OpenSocket(parsed));
  if (parsed.is_unix) {
    ::unlink(parsed.path.c_str());
  } else {
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  }
  sockaddr_storage storage;
  socklen_t len = 0;
  Status filled = FillSockaddr(parsed, &storage, &len);
  if (!filled.ok()) {
    ::close(fd);
    return filled;
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&storage), len) != 0) {
    const std::string err = Errno("bind " + addr);
    ::close(fd);
    return Status::Unavailable(err);
  }
  if (::listen(fd, backlog) != 0) {
    const std::string err = Errno("listen " + addr);
    ::close(fd);
    return Status::Unavailable(err);
  }
  return fd;
}

Result<std::string> BoundAddr(int listen_fd) {
  sockaddr_storage storage;
  socklen_t len = sizeof(storage);
  if (::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&storage),
                    &len) != 0) {
    return Status::Internal(Errno("getsockname"));
  }
  if (storage.ss_family == AF_UNIX) {
    const auto* sun = reinterpret_cast<const sockaddr_un*>(&storage);
    return "unix:" + std::string(sun->sun_path);
  }
  const auto* sin = reinterpret_cast<const sockaddr_in*>(&storage);
  char host[INET_ADDRSTRLEN] = {0};
  if (::inet_ntop(AF_INET, &sin->sin_addr, host, sizeof(host)) == nullptr) {
    return Status::Internal(Errno("inet_ntop"));
  }
  return std::string(host) + ":" + std::to_string(ntohs(sin->sin_port));
}

Result<int> Accept(int listen_fd) {
  for (;;) {
    sockaddr_storage peer;
    socklen_t len = sizeof(peer);
    const int fd =
        ::accept(listen_fd, reinterpret_cast<sockaddr*>(&peer), &len);
    if (fd >= 0) {
      if (peer.ss_family == AF_INET) DisableNagle(fd);
      return fd;
    }
    if (errno == EINTR) continue;
    return Status::Unavailable(Errno("accept"));
  }
}

Result<int> Connect(const std::string& addr) {
  ASSIGN_OR_RETURN(ParsedAddr parsed, ParseAddr(addr));
  ASSIGN_OR_RETURN(int fd, OpenSocket(parsed));
  sockaddr_storage storage;
  socklen_t len = 0;
  Status filled = FillSockaddr(parsed, &storage, &len);
  if (!filled.ok()) {
    ::close(fd);
    return filled;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&storage), len) != 0) {
    const std::string err = Errno("connect " + addr);
    ::close(fd);
    return Status::Unavailable(err);
  }
  if (!parsed.is_unix) DisableNagle(fd);
  return fd;
}

void ShutdownAndClose(int fd) {
  if (fd < 0) return;
  ::shutdown(fd, SHUT_RDWR);
  ::close(fd);
}

void CloseFd(int fd) {
  if (fd >= 0) ::close(fd);
}

Status WriteFull(int fd, const char* data, size_t n) {
  size_t written = 0;
  while (written < n) {
    // send(MSG_NOSIGNAL), not write(): a peer-closed socket must surface
    // as EPIPE → Unavailable, not a process-killing SIGPIPE.
    const ssize_t rc =
        ::send(fd, data + written, n - written, MSG_NOSIGNAL);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable(Errno("socket write"));
    }
    if (rc == 0) return Status::Unavailable("socket write: peer gone");
    written += static_cast<size_t>(rc);
  }
  return Status::OK();
}

Status ReadFull(int fd, char* data, size_t n) {
  size_t got = 0;
  while (got < n) {
    const ssize_t rc = ::read(fd, data + got, n - got);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable(Errno("socket read"));
    }
    if (rc == 0) return Status::Unavailable("socket read: peer closed");
    got += static_cast<size_t>(rc);
  }
  return Status::OK();
}

Status WriteFrame(int fd, const std::string& serialized) {
  std::string frame;
  frame.reserve(4 + serialized.size());
  PutFixed32(&frame, static_cast<uint32_t>(serialized.size()));
  frame.append(serialized);
  return WriteFull(fd, frame.data(), frame.size());
}

Status WriteMessage(int fd, const Message& msg) {
  std::string bytes;
  msg.SerializeTo(&bytes);
  return WriteFrame(fd, bytes);
}

Result<Message> ReadMessage(int fd) {
  char header[4];
  RETURN_IF_ERROR(ReadFull(fd, header, sizeof(header)));
  std::string_view header_view(header, sizeof(header));
  uint32_t len = 0;
  RETURN_IF_ERROR(GetFixed32(&header_view, &len));
  // A protocol message is at most a batch of projected rows; anything
  // larger is a corrupt or hostile frame, not a legal stream.
  constexpr uint32_t kMaxFrameBytes = 64u << 20;
  if (len > kMaxFrameBytes) {
    return Status::Corruption("oversized frame: " + std::to_string(len));
  }
  std::string bytes(len, '\0');
  RETURN_IF_ERROR(ReadFull(fd, bytes.data(), len));
  std::string_view in = bytes;
  ASSIGN_OR_RETURN(Message msg, Message::DeserializeFrom(&in));
  if (!in.empty()) return Status::Corruption("trailing bytes in frame");
  return msg;
}

bool Readable(int fd) {
  pollfd pfd{fd, POLLIN, 0};
  return ::poll(&pfd, 1, 0) > 0 && (pfd.revents & POLLIN) != 0;
}

void SerializeSchema(const Schema& schema, std::string* dst) {
  PutFixed32(dst, static_cast<uint32_t>(schema.column_count()));
  for (const Column& col : schema.columns()) {
    PutLengthPrefixed(dst, col.name);
    dst->push_back(static_cast<char>(col.type));
    dst->push_back(col.nullable ? 1 : 0);
  }
}

Result<Schema> DeserializeSchema(std::string_view* input) {
  uint32_t count = 0;
  RETURN_IF_ERROR(GetFixed32(input, &count));
  std::vector<Column> columns;
  columns.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    Column col;
    RETURN_IF_ERROR(GetLengthPrefixed(input, &col.name));
    if (input->size() < 2) return Status::Corruption("schema underflow");
    col.type = static_cast<TypeId>((*input)[0]);
    col.nullable = (*input)[1] != 0;
    input->remove_prefix(2);
    columns.push_back(std::move(col));
  }
  return Schema(std::move(columns));
}

}  // namespace snapdiff::wire
