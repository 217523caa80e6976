#ifndef SEQFM_SERVE_SERVER_H_
#define SEQFM_SERVE_SERVER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "data/dataset.h"
#include "serve/predictor.h"
#include "util/mutex.h"
#include "util/ordered_mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace seqfm {
namespace serve {

class ScoringBackend;  // serve/backend.h; kept out of this header's includes

struct BatchServerOptions {
  /// Most requests fused into one scoring wave. The dispatcher drains up to
  /// this many queued requests at once and scores all their candidate
  /// chunks through a single ParallelFor, so the pool stays busy even when
  /// each individual catalog is too small to feed every thread.
  size_t max_wave_requests = 64;
  /// Upper bound on admitted-but-not-yet-dispatched requests; 0 = unbounded
  /// (the pre-RPC behavior). With a bound set, admission becomes load
  /// shedding instead of unbounded queueing: once queue depth reaches the
  /// bound, TrySubmit returns kOverloaded (and Submit fails its future)
  /// WITHOUT enqueueing, so an overloaded server's memory and queueing delay
  /// stay bounded while rejected clients get an explicit answer. Serve-side
  /// front ends (serve::RpcServer) translate the rejection into an
  /// OVERLOADED response.
  size_t max_queue_requests = 0;
};

/// Counters exposed by BatchServer::stats().
struct BatchServerStats {
  uint64_t requests_admitted = 0;
  uint64_t requests_served = 0;
  /// Requests shed at admission because the queue sat at
  /// BatchServerOptions::max_queue_requests (overload rejections only;
  /// submit-after-shutdown failures are not counted here).
  uint64_t requests_rejected = 0;
  uint64_t waves = 0;
  uint64_t largest_wave = 0;

  double avg_wave_size() const {
    return waves == 0 ? 0.0 : static_cast<double>(requests_served) /
                                  static_cast<double>(waves);
  }
};

/// \brief Request-batched serving front end over a serve::Predictor.
///
/// Submit() admits (example, candidates, k) requests from any thread and
/// returns a future of the ranked top-K. A dispatcher thread fuses queued
/// requests into multi-user scoring waves: per wave it resolves each unique
/// (user, history) SharedContext once (through the Predictor's ContextCache
/// when enabled), then scores every candidate chunk of every request in one
/// ParallelFor on the shared util::ThreadPool — raising pool utilization
/// over the one-catalog-at-a-time Predictor loop. Results are bit-for-bit
/// identical to Predictor::TopK (and so to Model::Score).
///
/// Admission is bounded when max_queue_requests is set: a request arriving
/// at a full queue is shed synchronously (TrySubmit returns kOverloaded,
/// Submit fails its future) instead of queueing unboundedly, and the shed is
/// counted in stats().requests_rejected — the load-shedding contract the
/// RPC tier (serve::RpcServer) exposes as OVERLOADED responses.
///
/// Shutdown (and the destructor, which calls it) drains the queue: every
/// admitted request is served before the dispatcher exits, so futures never
/// dangle and callbacks fire exactly once. A Submit that loses the race
/// with shutdown fails its future cleanly with a std::runtime_error instead
/// of deadlocking, dropping the promise, or crashing the process.
class BatchServer {
 public:
  /// How TrySubmit disposed of a request.
  enum class AdmitResult {
    kAdmitted,    // queued; the done callback will fire exactly once
    kOverloaded,  // shed: queue at max_queue_requests; callback never fires
    kShutdown,    // lost the race with Shutdown; callback never fires
    kBadRequest,  // an id outside the feature space (Predictor::AcceptsIds);
                  // callback never fires
  };

  /// Invoked with the ranked top-K when an admitted request's wave
  /// completes. Runs on the dispatcher thread with no server lock held, so
  /// it may call Submit/TrySubmit/stats — but never Shutdown (the
  /// dispatcher cannot join itself) — and must stay cheap: wave N+1 does
  /// not start until every wave-N callback returned.
  using DoneCallback = std::function<void(std::vector<ScoredItem>)>;

  /// \p predictor is borrowed and must outlive the server.
  explicit BatchServer(Predictor* predictor, BatchServerOptions options = {});
  ~BatchServer();

  BatchServer(const BatchServer&) = delete;
  BatchServer& operator=(const BatchServer&) = delete;

  /// Enqueues one request; the future resolves with the top-k of
  /// \p candidates for \p ex (semantics identical to Predictor::TopK: k
  /// clamped, descending score, candidate-id tie-break). Thread-safe, and
  /// safe to race with Shutdown: once shutdown has begun — or when the
  /// bounded queue sheds the request (max_queue_requests) — the returned
  /// future fails with std::runtime_error rather than ever blocking. A
  /// request with an out-of-range id fails it with std::invalid_argument.
  std::future<std::vector<ScoredItem>> Submit(const data::SequenceExample& ex,
                                              std::vector<int32_t> candidates,
                                              size_t k);

  /// Callback-style admission with explicit shedding: on kAdmitted, \p done
  /// fires exactly once with the ranked top-K; on kOverloaded, kShutdown or
  /// kBadRequest the request was NOT enqueued and \p done never fires — the
  /// caller answers the client immediately (serve::RpcServer encodes these
  /// as OVERLOADED / SHUTTING_DOWN / BAD_REQUEST responses). A user outside
  /// [0, num_users) or a history or slate id outside [0, num_objects) is
  /// kBadRequest: scoring it would abort the process or silently read
  /// another entity's embedding. This is the non-blocking
  /// admission path an event-loop front end needs: no future to park a
  /// thread on, and rejection is synchronous. Thread-safe.
  AdmitResult TrySubmit(const data::SequenceExample& ex,
                        std::vector<int32_t> candidates, size_t k,
                        DoneCallback done);

  /// Stops admitting requests, serves everything already admitted, and joins
  /// the dispatcher. Idempotent and safe to call from several threads
  /// concurrently; the destructor calls it. After it returns every admitted
  /// future is resolved and later Submits fail cleanly.
  void Shutdown();

  /// Hot-swaps model parameters from \p path with serving quiesced: waits
  /// for the in-flight wave to finish, reloads, and invalidates the context
  /// cache, so no request is ever scored against a mix of old parameters
  /// and stale contexts. Requests queued behind the reload score against
  /// the new parameters.
  Status ReloadCheckpoint(const std::string& path) SEQFM_EXCLUDES(serve_mu_);

  BatchServerStats stats() const;

 private:
  struct Request {
    data::SequenceExample ex;
    std::vector<int32_t> candidates;
    size_t k = 0;
    DoneCallback done;
  };

  void DispatchLoop();
  /// Scores one wave and fires its callbacks. Caller holds serve_mu_; the
  /// annotation is on the declaration, not re-locked inside (callbacks run
  /// with mu_ released but serve_mu_ held — they may re-enter TrySubmit).
  void ServeWave(std::vector<Request>* wave) SEQFM_REQUIRES(serve_mu_);

  Predictor* predictor_;
  BatchServerOptions options_;
  /// The wave engine room: every request of a wave becomes one ScoreJob on
  /// this LocalShardBackend (serve/backend.h) — context dedup, the fused
  /// ParallelFor, and the bounded per-request top-K reduction all live
  /// there.
  std::unique_ptr<ScoringBackend> backend_;

  mutable util::OrderedMutex mu_{"BatchServer::mu_",
                                 util::lock_rank::kBatchQueue};
  util::CondVar cv_;
  std::deque<Request> queue_ SEQFM_GUARDED_BY(mu_);
  bool shutdown_ SEQFM_GUARDED_BY(mu_) = false;
  BatchServerStats stats_ SEQFM_GUARDED_BY(mu_);
  /// Serializes the dispatcher join across concurrent Shutdown callers.
  std::once_flag join_once_;

  /// Held while a wave executes; ReloadCheckpoint quiesces on it. Ranked
  /// below mu_: the dispatcher acquires serve_mu_ first, then mu_ for the
  /// stats update, and wave callbacks may re-enter TrySubmit (mu_) while
  /// the wave still holds serve_mu_.
  util::OrderedMutex serve_mu_{"BatchServer::serve_mu_",
                               util::lock_rank::kBatchServe};

  /// Last member: starts after every field above is initialized.
  std::thread dispatcher_;
};

}  // namespace serve
}  // namespace seqfm

#endif  // SEQFM_SERVE_SERVER_H_
