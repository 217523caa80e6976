#include "serve/server.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "serve/backend.h"
#include "serve/shard.h"
#include "util/logging.h"

namespace seqfm {
namespace serve {

BatchServer::BatchServer(Predictor* predictor, BatchServerOptions options)
    : predictor_(predictor), options_(options) {
  SEQFM_CHECK(predictor_ != nullptr) << "BatchServer: null predictor";
  SEQFM_CHECK_GT(options_.max_wave_requests, 0u);
  backend_ = std::make_unique<LocalShardBackend>(predictor_);
  dispatcher_ = std::thread([this]() { DispatchLoop(); });
}

BatchServer::~BatchServer() { Shutdown(); }

void BatchServer::Shutdown() {
  {
    util::OrderedMutexLock lock(mu_);
    shutdown_ = true;
  }
  cv_.NotifyAll();
  // call_once: concurrent Shutdown callers (or Shutdown racing the
  // destructor) must not both join the dispatcher; late callers block here
  // until the first join completes, so "after Shutdown returns, all admitted
  // futures are resolved" holds for every caller.
  std::call_once(join_once_, [this]() {
    dispatcher_.join();  // DispatchLoop drains the queue before returning
  });
}

std::future<std::vector<ScoredItem>> BatchServer::Submit(
    const data::SequenceExample& ex, std::vector<int32_t> candidates,
    size_t k) {
  // std::promise is move-only but DoneCallback must be copyable; shared_ptr
  // bridges the two.
  auto promise = std::make_shared<std::promise<std::vector<ScoredItem>>>();
  std::future<std::vector<ScoredItem>> result = promise->get_future();
  const AdmitResult admit =
      TrySubmit(ex, std::move(candidates), k,
                [promise](std::vector<ScoredItem> items) {
                  promise->set_value(std::move(items));
                });
  switch (admit) {
    case AdmitResult::kAdmitted:
      break;
    case AdmitResult::kOverloaded:
      promise->set_exception(std::make_exception_ptr(std::runtime_error(
          "BatchServer::Submit overloaded: queue at max_queue_requests")));
      break;
    case AdmitResult::kShutdown:
      // Lost the race with Shutdown: the dispatcher may already have drained
      // past us (or exited), so enqueueing could strand the promise and
      // deadlock the caller's get(). Fail the future cleanly instead.
      promise->set_exception(std::make_exception_ptr(
          std::runtime_error("BatchServer::Submit after shutdown")));
      break;
    case AdmitResult::kBadRequest:
      promise->set_exception(std::make_exception_ptr(std::invalid_argument(
          "BatchServer::Submit: id outside the feature space")));
      break;
  }
  return result;
}

BatchServer::AdmitResult BatchServer::TrySubmit(
    const data::SequenceExample& ex, std::vector<int32_t> candidates, size_t k,
    DoneCallback done) {
  if (!predictor_->AcceptsIds(ex, candidates)) return AdmitResult::kBadRequest;
  Request req;
  req.ex = ex;
  req.candidates = std::move(candidates);
  req.k = k;
  req.done = std::move(done);
  {
    util::OrderedMutexLock lock(mu_);
    if (shutdown_) return AdmitResult::kShutdown;
    if (options_.max_queue_requests > 0 &&
        queue_.size() >= options_.max_queue_requests) {
      // Shed instead of queueing unboundedly: the caller gets the rejection
      // synchronously and the callback is never retained, so an overloaded
      // server holds at most max_queue_requests requests' memory.
      ++stats_.requests_rejected;
      return AdmitResult::kOverloaded;
    }
    queue_.push_back(std::move(req));
    ++stats_.requests_admitted;
  }
  cv_.NotifyOne();
  return AdmitResult::kAdmitted;
}

Status BatchServer::ReloadCheckpoint(const std::string& path) {
  // serve_mu_ quiesces serving: the in-flight wave (if any) completes
  // against the old parameters, then the reload + cache invalidation run
  // with no scoring in progress.
  util::OrderedMutexLock serve_lock(serve_mu_);
  return predictor_->ReloadCheckpoint(path);
}

BatchServerStats BatchServer::stats() const {
  util::OrderedMutexLock lock(mu_);
  return stats_;
}

void BatchServer::DispatchLoop() {
  for (;;) {
    std::vector<Request> wave;
    {
      util::OrderedMutexLock lock(mu_);
      cv_.Wait(mu_, [this]() SEQFM_REQUIRES(mu_) {
        return shutdown_ || !queue_.empty();
      });
      if (queue_.empty()) return;  // shutdown with nothing left to drain
      const size_t take = std::min(queue_.size(), options_.max_wave_requests);
      wave.reserve(take);
      for (size_t i = 0; i < take; ++i) {
        wave.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      ++stats_.waves;
      stats_.largest_wave = std::max<uint64_t>(stats_.largest_wave, take);
    }
    util::OrderedMutexLock serve_lock(serve_mu_);
    ServeWave(&wave);
  }
}

void BatchServer::ServeWave(std::vector<Request>* wave) {
  const size_t num_requests = wave->size();

  // Every request of the wave is one ScoreJob on the shared backend seam
  // (serve/backend.h). The LocalShardBackend resolves unique (user,
  // history) contexts once per wave across requests, then runs one fused
  // ParallelFor over every (job, chunk) task — all pool threads busy
  // regardless of per-request catalog size — reduced into one bounded
  // top-K heap per job, so the wave holds sum of min(k, slate) retained
  // entries plus one chunk-local score buffer per pool thread, never a
  // full score vector. An empty slate or k = 0 is a job with nothing to
  // score, and its run is empty.
  std::vector<ScoreJob> jobs;
  jobs.reserve(num_requests);
  for (const Request& req : *wave) {
    jobs.push_back({&req.ex, &req.candidates, 0, req.candidates.size(), req.k});
  }
  std::vector<std::vector<RankEntry>> runs;
  const Status st = backend_->ScoreTopK(jobs, &runs);
  SEQFM_CHECK(st.ok()) << "BatchServer: local backend failed: "
                       << st.ToString();

  // Request r's sorted run is its ranking. The served counter is published
  // first so a client that observed its result arrive always sees its
  // request counted.
  {
    util::OrderedMutexLock lock(mu_);
    stats_.requests_served += num_requests;
  }
  for (size_t r = 0; r < num_requests; ++r) {
    std::vector<ScoredItem> items;
    items.reserve(runs[r].size());
    for (const RankEntry& e : runs[r]) items.push_back({e.item, e.score});
    (*wave)[r].done(std::move(items));
  }
}

}  // namespace serve
}  // namespace seqfm
