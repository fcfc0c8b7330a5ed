#include "src/serve/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <utility>

namespace connectit::serve {

namespace {

// Largest ComponentSizes reply: bounded so a hostile max_entries cannot
// make the server assemble an arbitrarily large frame.
constexpr uint32_t kMaxSizesEntries = 1u << 18;

bool SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

std::string Errno(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

}  // namespace

Server::Server(Connectivity* index, ServerConfig config)
    : index_(index), config_(std::move(config)) {
  if (config_.workers == 0) config_.workers = 1;
  if (config_.queue_capacity == 0) config_.queue_capacity = 1;
}

Server::~Server() { Stop(); }

bool Server::Start(std::string* error) {
  auto fail = [&](const std::string& message) {
    if (error != nullptr) *error = message;
    for (int fd : listen_fds_) close(fd);
    listen_fds_.clear();
    if (stop_event_fd_ >= 0) close(stop_event_fd_);
    stop_event_fd_ = -1;
    workers_.clear();
    return false;
  };
  if (started_) return fail("server already started");
  if (config_.unix_path.empty() && config_.tcp_port == 0) {
    return fail("no listener configured (need unix_path or tcp_port)");
  }

  if (!config_.unix_path.empty()) {
    const int fd = socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return fail(Errno("socket(AF_UNIX)"));
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (config_.unix_path.size() >= sizeof(addr.sun_path)) {
      close(fd);
      return fail("unix socket path too long: " + config_.unix_path);
    }
    std::strncpy(addr.sun_path, config_.unix_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    unlink(config_.unix_path.c_str());
    if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      close(fd);
      return fail(Errno(("bind(" + config_.unix_path + ")").c_str()));
    }
    if (listen(fd, config_.listen_backlog) != 0 || !SetNonBlocking(fd)) {
      close(fd);
      return fail(Errno("listen(unix)"));
    }
    listen_fds_.push_back(fd);
  }

  if (config_.tcp_port != 0) {
    const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return fail(Errno("socket(AF_INET)"));
    const int one = 1;
    setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(config_.tcp_port);
    if (inet_pton(AF_INET, config_.tcp_host.c_str(), &addr.sin_addr) != 1) {
      close(fd);
      return fail("bad tcp host: " + config_.tcp_host);
    }
    if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      close(fd);
      return fail(Errno("bind(tcp)"));
    }
    if (listen(fd, config_.listen_backlog) != 0 || !SetNonBlocking(fd)) {
      close(fd);
      return fail(Errno("listen(tcp)"));
    }
    listen_fds_.push_back(fd);
  }

  stop_event_fd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (stop_event_fd_ < 0) return fail(Errno("eventfd(stop)"));

  workers_.clear();
  for (size_t i = 0; i < config_.workers; ++i) {
    auto worker = std::make_unique<Worker>();
    worker->epoll_fd = epoll_create1(EPOLL_CLOEXEC);
    worker->completion_event_fd = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (worker->epoll_fd < 0 || worker->completion_event_fd < 0) {
      return fail(Errno("epoll_create1/eventfd"));
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = stop_event_fd_;
    epoll_ctl(worker->epoll_fd, EPOLL_CTL_ADD, stop_event_fd_, &ev);
    ev.data.fd = worker->completion_event_fd;
    epoll_ctl(worker->epoll_fd, EPOLL_CTL_ADD, worker->completion_event_fd,
              &ev);
    for (int lfd : listen_fds_) {
      // EPOLLEXCLUSIVE: one worker wakes per pending accept, no dedicated
      // acceptor thread, no thundering herd.
      ev.events = EPOLLIN | EPOLLEXCLUSIVE;
      ev.data.fd = lfd;
      epoll_ctl(worker->epoll_fd, EPOLL_CTL_ADD, lfd, &ev);
    }
    workers_.push_back(std::move(worker));
  }

  draining_ = false;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    queue_stopping_ = false;
    queue_.clear();
  }
  started_ = true;
  writer_thread_ = std::thread([this] { WriterLoop(); });
  for (size_t i = 0; i < workers_.size(); ++i) {
    workers_[i]->thread = std::thread([this, i] { WorkerLoop(i); });
  }
  return true;
}

void Server::Stop() {
  if (!started_.exchange(false)) return;
  draining_ = true;
  // 1. Stop accepting: closed fds drop out of every epoll automatically.
  for (int fd : listen_fds_) close(fd);
  // 2. Drain the mutation queue: the writer applies every batch already
  //    accepted (workers refuse new ones with kShuttingDown), then exits.
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    queue_stopping_ = true;
  }
  queue_cv_.notify_all();
  if (writer_thread_.joinable()) writer_thread_.join();
  // 3. Wake workers: the stop eventfd is signalled but never read, so the
  //    level-triggered event reaches every worker's epoll.
  uint64_t one = 1;
  [[maybe_unused]] ssize_t n = write(stop_event_fd_, &one, sizeof(one));
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
  for (auto& worker : workers_) {
    if (worker->completion_event_fd >= 0) close(worker->completion_event_fd);
    if (worker->epoll_fd >= 0) close(worker->epoll_fd);
  }
  workers_.clear();
  listen_fds_.clear();
  if (stop_event_fd_ >= 0) close(stop_event_fd_);
  stop_event_fd_ = -1;
  if (!config_.unix_path.empty()) unlink(config_.unix_path.c_str());
}

// ---- worker side ----

void Server::WorkerLoop(size_t index) {
  Worker& worker = *workers_[index];
  // Stable copy: Stop closes these fds but never reuses the numbers inside
  // this worker (no new fds appear once the listeners are gone).
  const std::vector<int> listeners = listen_fds_;
  std::vector<epoll_event> events(64);
  bool stop = false;
  while (!stop) {
    const int n = epoll_wait(worker.epoll_fd, events.data(),
                             static_cast<int>(events.size()), -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    // One epoch pin serves every read frame that arrived in this wakeup,
    // across all ready connections (acquired lazily on the first read).
    Snapshot snap;
    bool snap_acquired = false;
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == stop_event_fd_) {
        stop = true;
        continue;
      }
      if (fd == worker.completion_event_fd) {
        uint64_t drained;
        while (read(worker.completion_event_fd, &drained, sizeof(drained)) >
               0) {
        }
        DeliverCompletions(worker);
        continue;
      }
      if (std::find(listeners.begin(), listeners.end(), fd) !=
          listeners.end()) {
        AcceptReady(worker, fd);
        continue;
      }
      const auto it = worker.conn_by_fd.find(fd);
      if (it == worker.conn_by_fd.end()) continue;
      Connection& conn = worker.conns.at(it->second);
      // EPOLLHUP rides along with EPOLLIN on an orderly peer close: drain
      // first so the EOF takes the clean path. Only a readless HUP or an
      // error is an immediate drop.
      if ((events[i].events & EPOLLERR) != 0 ||
          ((events[i].events & EPOLLHUP) != 0 &&
           (events[i].events & EPOLLIN) == 0)) {
        CloseConnection(worker, conn, /*dropped=*/true);
        continue;
      }
      DrainResult result = DrainResult::kKeep;
      if ((events[i].events & EPOLLIN) != 0) {
        result = DrainConnection(index, worker, conn, snap, snap_acquired);
      }
      if (result == DrainResult::kKeep &&
          (events[i].events & EPOLLOUT) != 0 &&
          !FlushConnection(worker, conn)) {
        result = DrainResult::kCloseError;
      }
      if (result == DrainResult::kKeep && conn.close_after_flush &&
          conn.out.empty()) {
        result = DrainResult::kCloseClean;
      }
      if (result != DrainResult::kKeep) {
        CloseConnection(worker, conn,
                        /*dropped=*/result == DrainResult::kCloseError);
      }
    }
  }
  // Graceful drain: hand out any responses the writer finished, then give
  // each connection a bounded window to take its pending bytes.
  DeliverCompletions(worker);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  std::vector<uint64_t> ids;
  ids.reserve(worker.conns.size());
  for (const auto& [id, conn] : worker.conns) ids.push_back(id);
  for (uint64_t id : ids) {
    auto it = worker.conns.find(id);
    if (it == worker.conns.end()) continue;
    Connection& conn = it->second;
    while (conn.out_written < conn.out.size() &&
           std::chrono::steady_clock::now() < deadline) {
      pollfd pfd{conn.fd, POLLOUT, 0};
      if (poll(&pfd, 1, 100) <= 0) continue;
      const ssize_t w = write(conn.fd, conn.out.data() + conn.out_written,
                              conn.out.size() - conn.out_written);
      if (w > 0) {
        conn.out_written += static_cast<size_t>(w);
      } else if (w < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
        break;
      }
    }
    CloseConnection(worker, conn, /*dropped=*/false);
  }
}

void Server::AcceptReady(Worker& worker, int listen_fd) {
  while (true) {
    const int fd =
        accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN (another worker took it) or closed
    if (draining_) {
      close(fd);
      continue;
    }
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    Connection conn;
    conn.fd = fd;
    conn.id = next_conn_id_.fetch_add(1, std::memory_order_relaxed);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (epoll_ctl(worker.epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
      close(fd);
      continue;
    }
    worker.conn_by_fd[fd] = conn.id;
    worker.conns[conn.id] = std::move(conn);
    stats::RecordConnectionAccepted();
  }
}

Server::DrainResult Server::DrainConnection(size_t worker_index,
                                            Worker& worker, Connection& conn,
                                            Snapshot& snap,
                                            bool& snap_acquired) {
  bool eof = false;
  while (true) {
    uint8_t buf[64 * 1024];
    const ssize_t r = read(conn.fd, buf, sizeof(buf));
    if (r > 0) {
      conn.in.insert(conn.in.end(), buf, buf + r);
      continue;
    }
    if (r == 0) {
      eof = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    return DrainResult::kCloseError;
  }
  // Parse every complete frame in the buffer.
  while (conn.in.size() - conn.in_consumed >= kFrameHeaderBytes) {
    const uint8_t* base = conn.in.data() + conn.in_consumed;
    const size_t available = conn.in.size() - conn.in_consumed;
    FrameHeader header;
    std::string error;
    if (!DecodeFrameHeader(base, available, &header, &error)) {
      // A bad header desynchronizes the stream: drop the connection (the
      // decode already ticked protocol_errors with the field diagnostic).
      return DrainResult::kCloseError;
    }
    const size_t frame_len = kFrameHeaderBytes + header.payload_length;
    if (available < frame_len) break;  // incomplete: wait for more bytes
    const uint8_t* payload = base + kFrameHeaderBytes;
    if (!ValidatePayload(header, payload, &error)) {
      return DrainResult::kCloseError;
    }
    stats::RecordFramesIn(1, frame_len);
    conn.in_consumed += frame_len;
    if (!DispatchFrame(worker_index, worker, conn, header, payload, snap,
                      snap_acquired)) {
      return DrainResult::kCloseError;
    }
  }
  // Compact once the parsed prefix dominates the buffer.
  if (conn.in_consumed == conn.in.size()) {
    conn.in.clear();
    conn.in_consumed = 0;
  } else if (conn.in_consumed > (1u << 20)) {
    conn.in.erase(conn.in.begin(),
                  conn.in.begin() + static_cast<ptrdiff_t>(conn.in_consumed));
    conn.in_consumed = 0;
  }
  if (!FlushConnection(worker, conn)) return DrainResult::kCloseError;
  if (!eof) return DrainResult::kKeep;
  // Orderly EOF. Trailing partial bytes mean the client died mid-frame;
  // a response still in flight keeps the connection up until written.
  if (conn.in_consumed != conn.in.size()) return DrainResult::kCloseError;
  if (conn.out_written < conn.out.size()) {
    conn.close_after_flush = true;
    return DrainResult::kKeep;
  }
  return DrainResult::kCloseClean;
}

bool Server::DispatchFrame(size_t worker_index, Worker& worker,
                           Connection& conn, const FrameHeader& header,
                           const uint8_t* payload, Snapshot& snap,
                           bool& snap_acquired) {
  if ((header.opcode & kResponseBit) != 0) {
    // A client must not send response frames; unrecoverable confusion.
    stats::RecordProtocolError();
    return false;
  }
  const Opcode opcode = static_cast<Opcode>(header.opcode);
  const uint64_t id = header.request_id;
  const size_t len = header.payload_length;
  std::string error;

  const size_t out_before = conn.out.size();
  if (IsReadOpcode(opcode)) {
    if (!snap_acquired) {
      snap = index_->Acquire();
      snap_acquired = true;
    }
    const NodeId n = snap.num_nodes();
    switch (opcode) {
      case Opcode::kComponent: {
        NodeId v = 0;
        if (!DecodeComponentRequest(payload, len, &v, &error) || v >= n) {
          AppendStatusResponse(opcode, id, Status::kBadRequest, &conn.out);
        } else {
          AppendComponentResponse(id, Status::kOk, snap.Component(v),
                                  &conn.out);
        }
        break;
      }
      case Opcode::kSameComponent: {
        NodeId u = 0, v = 0;
        if (!DecodeSameComponentRequest(payload, len, &u, &v, &error) ||
            u >= n || v >= n) {
          AppendStatusResponse(opcode, id, Status::kBadRequest, &conn.out);
        } else {
          AppendSameComponentResponse(id, Status::kOk,
                                      snap.SameComponent(u, v), &conn.out);
        }
        break;
      }
      case Opcode::kNumComponents: {
        if (!DecodeNumComponentsRequest(payload, len, &error)) {
          AppendStatusResponse(opcode, id, Status::kBadRequest, &conn.out);
        } else {
          AppendNumComponentsResponse(id, Status::kOk, snap.NumComponents(),
                                      snap.version(), &conn.out);
        }
        break;
      }
      case Opcode::kComponentSizes: {
        uint32_t max_entries = 0;
        if (!DecodeComponentSizesRequest(payload, len, &max_entries,
                                         &error)) {
          AppendStatusResponse(opcode, id, Status::kBadRequest, &conn.out);
          break;
        }
        max_entries = std::min(max_entries, kMaxSizesEntries);
        worker.sizes_scratch.clear();
        for (NodeId v = 0;
             v < n && worker.sizes_scratch.size() < max_entries; ++v) {
          const NodeId size = snap.ComponentSize(v);
          if (size != 0) worker.sizes_scratch.push_back({v, size});
        }
        AppendComponentSizesResponse(id, Status::kOk, snap.NumComponents(),
                                     worker.sizes_scratch, &conn.out);
        break;
      }
      case Opcode::kStats: {
        if (!DecodeStatsRequest(payload, len, &error)) {
          AppendStatusResponse(opcode, id, Status::kBadRequest, &conn.out);
        } else {
          HandleStatsProbe(conn, id, snap);
        }
        break;
      }
      default:
        AppendStatusResponse(opcode, id, Status::kBadRequest, &conn.out);
        break;
    }
  } else {
    // Mutation: decode here (worker-side validation), apply on the writer.
    Mutation mutation;
    mutation.worker_index = worker_index;
    mutation.conn_id = conn.id;
    mutation.opcode = opcode;
    mutation.request_id = id;
    if (!DecodeMutateRequest(opcode, payload, len, &mutation.request,
                             &error)) {
      AppendStatusResponse(opcode, id, Status::kBadRequest, &conn.out);
    } else {
      if (!snap_acquired) {
        snap = index_->Acquire();
        snap_acquired = true;
      }
      const NodeId n = snap.num_nodes();
      bool in_range = true;
      for (const Edge& e : mutation.request.edges) {
        if (e.u >= n || e.v >= n) in_range = false;
      }
      for (const Edge& q : mutation.request.queries) {
        if (q.u >= n || q.v >= n) in_range = false;
      }
      Status refusal = Status::kOk;
      if (!in_range) {
        AppendStatusResponse(opcode, id, Status::kBadRequest, &conn.out);
      } else if (!EnqueueMutation(std::move(mutation), &refusal)) {
        AppendStatusResponse(opcode, id, refusal, &conn.out);
      }
      // On success the writer thread owns the response.
    }
  }
  if (conn.out.size() > out_before) {
    stats::RecordFramesOut(1, conn.out.size() - out_before);
  }
  return true;
}

void Server::HandleStatsProbe(Connection& conn, uint64_t request_id,
                              const Snapshot& snap) {
  const stats::TransportSnapshot t = stats::ReadTransport();
  const stats::ServingSnapshot s = stats::ReadServing();
  StatsProbe probe;
  probe.connections_accepted = t.connections_accepted;
  probe.connections_dropped = t.connections_dropped;
  probe.frames_in = t.frames_in;
  probe.frames_out = t.frames_out;
  probe.bytes_in = t.bytes_in;
  probe.bytes_out = t.bytes_out;
  probe.backpressure_rejections = t.backpressure_rejections;
  probe.protocol_errors = t.protocol_errors;
  probe.queue_depth_hwm = t.queue_depth_hwm;
  probe.snapshot_publications = s.snapshot_publications;
  // The retired cadence slots (see StatsProbe).
  probe.publication_skips = 0;
  probe.publication_cadence_k = 1;
  probe.num_nodes = snap.num_nodes();
  probe.num_components = snap.NumComponents();
  probe.snapshot_version = snap.version();
  AppendStatsResponse(request_id, probe, &conn.out);
}

bool Server::FlushConnection(Worker& worker, Connection& conn) {
  while (conn.out_written < conn.out.size()) {
    const ssize_t w = write(conn.fd, conn.out.data() + conn.out_written,
                            conn.out.size() - conn.out_written);
    if (w > 0) {
      conn.out_written += static_cast<size_t>(w);
      continue;
    }
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!conn.epollout_armed) {
        epoll_event ev{};
        ev.events = EPOLLIN | EPOLLOUT;
        ev.data.fd = conn.fd;
        epoll_ctl(worker.epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev);
        conn.epollout_armed = true;
      }
      return true;
    }
    if (w < 0 && errno == EINTR) continue;
    return false;
  }
  conn.out.clear();
  conn.out_written = 0;
  if (conn.epollout_armed) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = conn.fd;
    epoll_ctl(worker.epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev);
    conn.epollout_armed = false;
  }
  return true;
}

void Server::CloseConnection(Worker& worker, Connection& conn, bool dropped) {
  if (conn.fd >= 0) {
    close(conn.fd);
    worker.conn_by_fd.erase(conn.fd);
  }
  if (dropped) stats::RecordConnectionDropped();
  worker.conns.erase(conn.id);  // invalidates conn
}

void Server::DeliverCompletions(Worker& worker) {
  std::vector<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(worker.completion_mu);
    batch.swap(worker.completions);
  }
  for (Completion& completion : batch) {
    const auto it = worker.conns.find(completion.conn_id);
    if (it == worker.conns.end()) continue;  // client left before the reply
    Connection& conn = it->second;
    conn.out.insert(conn.out.end(), completion.frame.begin(),
                    completion.frame.end());
    stats::RecordFramesOut(1, completion.frame.size());
    if (!FlushConnection(worker, conn)) {
      CloseConnection(worker, conn, /*dropped=*/true);
    } else if (conn.close_after_flush && conn.out.empty()) {
      CloseConnection(worker, conn, /*dropped=*/false);
    }
  }
}

// ---- writer side ----

bool Server::EnqueueMutation(Mutation mutation, Status* refusal) {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (queue_stopping_) {
      *refusal = Status::kShuttingDown;
      return false;
    }
    if (queue_.size() >= config_.queue_capacity) {
      *refusal = Status::kBackpressure;
      stats::RecordBackpressureRejection();
      return false;
    }
    queue_.push_back(std::move(mutation));
    stats::RecordQueueDepth(queue_.size());
  }
  queue_cv_.notify_one();
  return true;
}

void Server::WriterLoop() {
  while (true) {
    Mutation mutation;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock,
                     [this] { return !queue_.empty() || queue_stopping_; });
      if (queue_.empty()) return;  // stopping and drained
      mutation = std::move(queue_.front());
      queue_.pop_front();
    }
    MutateResponse response;
    if (!index_->streaming()) {
      response.status = Status::kNotStreaming;
    } else if (mutation.opcode == Opcode::kInsertBatch) {
      response.answers =
          index_->Insert(mutation.request.edges, mutation.request.queries);
    } else {
      response.answers =
          index_->Erase(mutation.request.edges, mutation.request.queries);
    }
    Completion completion;
    completion.conn_id = mutation.conn_id;
    AppendMutateResponse(mutation.opcode, mutation.request_id, response,
                         &completion.frame);
    Worker& worker = *workers_[mutation.worker_index];
    {
      std::lock_guard<std::mutex> lock(worker.completion_mu);
      worker.completions.push_back(std::move(completion));
    }
    uint64_t one = 1;
    [[maybe_unused]] ssize_t n =
        write(worker.completion_event_fd, &one, sizeof(one));
  }
}

}  // namespace connectit::serve
