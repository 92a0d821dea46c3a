#pragma once

/// \file client.hpp
/// Loopback client for the `ecohmem-serve` daemon: the reference
/// implementation of the docs/serving.md protocol, used by the
/// `ecohmem-serve` tool's client mode, the tests and ci.sh.
///
/// The protocol is strictly request/response per connection, and the
/// client enforces that shape: every method writes one frame, then
/// blocks reading exactly one reply. ERROR replies surface as
/// `Expected` failures formatted `server error (<token>): <detail>`;
/// BUSY surfaces either as a distinct outcome (`ingest_block_once`) or
/// is retried with the server's backoff hint (`ingest_block`).

#include <cstdint>
#include <string>
#include <vector>

#include "ecohmem/common/expected.hpp"
#include "ecohmem/common/posix.hpp"
#include "ecohmem/serve/protocol.hpp"
#include "ecohmem/trace/codec.hpp"
#include "ecohmem/trace/events.hpp"

namespace ecohmem::serve {

/// One connection to a daemon. Not thread-safe: the request/response
/// discipline means one in-flight request per connection by design.
class Client {
 public:
  /// Connects to the daemon socket at `path` (no frames exchanged yet).
  [[nodiscard]] static Expected<Client> connect(const std::string& path);

  Client(Client&&) = default;
  Client& operator=(Client&&) = default;

  /// HELLO with a fresh session: the header blob is built from the
  /// given tables (v3 header, declared event count 0).
  [[nodiscard]] Status hello_create(const trace::StackTable& stacks,
                                    const trace::FunctionTable& functions,
                                    const bom::ModuleTable& modules, double sample_rate_hz);

  /// HELLO attaching to an existing session.
  [[nodiscard]] Status hello_attach(std::uint64_t session_id);

  /// The session id negotiated by HELLO (0 before).
  [[nodiscard]] std::uint64_t session_id() const { return session_id_; }

  /// The HELLO_OK parameters (valid after a successful hello).
  [[nodiscard]] const HelloOk& negotiated() const { return negotiated_; }

  /// One ingest attempt's outcome.
  enum class Ingest {
    kAccepted,  ///< BLOCK_OK — block queued
    kBusy,      ///< BUSY — backpressure, resend the same block
  };

  /// Sends one block of events (encoded with a fresh delta base) and
  /// returns the server's verdict without retrying.
  [[nodiscard]] Expected<Ingest> ingest_block_once(const std::vector<trace::Event>& events);

  /// Like `ingest_block_once`, but retries BUSY replies (sleeping the
  /// server's hint) until accepted or `max_retries` is exhausted.
  [[nodiscard]] Status ingest_block(const std::vector<trace::Event>& events,
                                    std::size_t max_retries = 1000);

  /// Streams `events` in blocks of `block_events`, retrying BUSY.
  [[nodiscard]] Status ingest_events(const std::vector<trace::Event>& events,
                                     std::size_t block_events);

  /// QUERY_PLACEMENT: runs the Advisor on a fresh snapshot. `config`
  /// supplies the tiers; when `bandwidth_aware`, the §VII refinement
  /// runs with `peak_pmem_bw_gbs` (0 = the snapshot's observed peak; a
  /// negative or non-finite value is answered with BAD_CONFIG).
  [[nodiscard]] Expected<Report> query(const advisor::AdvisorConfig& config,
                                       bool bandwidth_aware = false,
                                       double peak_pmem_bw_gbs = 0.0);

  /// SNAPSHOT: the per-site CSV of a fresh snapshot.
  [[nodiscard]] Expected<SnapshotData> snapshot_csv();

  /// STATS: current session counters.
  [[nodiscard]] Expected<StatsData> stats();

  /// The last BUSY reply (valid after `ingest_block_once` returned
  /// `kBusy`; carries the server's retry hint).
  [[nodiscard]] const Busy& last_busy() const { return last_busy_; }

  /// BYE; with `close_session` the daemon also retires the session.
  /// The connection is unusable afterwards.
  [[nodiscard]] Status bye(bool close_session = false);

  /// Sends raw envelope bytes (tests: malformed/truncated frames).
  [[nodiscard]] Status send_raw(const std::string& bytes);

  /// Reads one reply frame (tests). Fails on I/O errors and EOF.
  [[nodiscard]] Expected<Frame> read_reply();

 private:
  explicit Client(common::posix::UniqueFd fd) : fd_(std::move(fd)) {}

  [[nodiscard]] Status send_frame(FrameType type, const std::string& payload);
  /// One request/response round. Fails unless the reply has
  /// `expect` type (ERROR replies become formatted failures).
  [[nodiscard]] Expected<Frame> round_trip(FrameType type, const std::string& payload,
                                           FrameType expect);
  [[nodiscard]] Status finish_hello(const HelloRequest& request);

  common::posix::UniqueFd fd_;
  std::uint64_t session_id_ = 0;
  std::uint64_t next_block_seq_ = 0;
  HelloOk negotiated_;
  Busy last_busy_;
};

}  // namespace ecohmem::serve
